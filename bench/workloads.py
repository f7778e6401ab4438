"""Seeded operation streams for the four benchmark workloads.

Each workload is a fixed design: a list of slots that fixes the structural
size of every operation (subcommand, function, order, steps, grid), so that
the cost mix of a run does not depend on the seed.  The seed draws everything
else: the numeric inputs (lambda, expansion points, ranges, periods) and the
order of the operations inside each cycle; ``pointwise`` also draws its
orders and ``identities`` its subsets, since their ops are many and cheap.
A run repeats the design cycle after cycle with fresh draws, so no two
operations in a run are the same invocation.

Why each workload exists:

* ``curves1d`` -- batched 1-D path: ``sweep --x-range`` lifts about 577
  points per x (513 grid + 64 quadrature) and reuses one lambda per sweep.
* ``multivar`` -- n-D dict jets and big-integer Stirling n-D sums, including
  a 3-D grid of 33 per axis (35,937 sample points) and the largest memory.
* ``pointwise`` -- batch size 1 at high order, fresh lambda and x0 per op, so
  no two ops share (order, lambda); CLI parser build and rendering weigh in.
* ``identities`` -- Stirling ratio rows and the identity sums, which run
  nowhere else.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import reference as R

TWO_PI_I = 2j * math.pi


@dataclass
class Op:
    """One CLI invocation plus what the oracle needs to check its output."""

    argv: list[str]
    kind: str
    dims: int = 0
    order: int | None = None
    lam: complex | None = None
    meta: dict = field(default_factory=dict)
    slot: int = -1  # position in the workload's design

    @property
    def share_key(self):
        """Ops with equal keys could share a per-(order, lambda) cache."""
        return (self.order, self.lam)


def lam_literal(lam: complex) -> str:
    return f"{lam.real!r}{'+' if lam.imag >= 0 else '-'}{abs(lam.imag)!r}i"


def _lam_value(lam: complex) -> complex:
    # the value the CLI parses back from the literal, bit for bit
    return complex(float(repr(lam.real)), float(repr(lam.imag)))


def _r(v: float) -> float:
    return round(v, 6)


# ---- curves1d ---------------------------------------------------------------

# (function, eval order, x-range order, x-range steps, n-range top N).  Steps
# and N are set so that six of the seven x-range sweeps cost about the same,
# with the 161-step sweep above them, and the n-range sweeps cluster likewise:
# p90 and p50 then fall inside a cluster of equal-cost ops, not between two.
_CURVES = (
    (R.cos_periodic, 8, 8, 41, 16),
    (R.identity, 12, 4, 161, 24),
    (R.square, 10, 8, 81, 20),
    (R.sin_cubic, 12, 6, 63, 16),
    (lambda: R.exp_scaled(2.0), 6, 4, 89, 20),
    (R.recip_cos, 16, 14, 21, 12),
    (R.log_shift, 14, 8, 67, 20),
)


def _curves1d_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for make, eval_order, xr_order, steps, n_top in _CURVES:
        fn = make()
        for kind in ("eval", "sweep_x", "sweep_n"):
            lam = _lam_value(rng.choice((TWO_PI_I, 1.0 + 0j)))
            reach = 0.15 if lam.imag else 0.3  # inside the series' convergence region
            x0 = _r(rng.uniform(-0.1, 0.1))
            base = ["--fn", fn.source, "--lambda", lam_literal(lam), f"--x0={x0!r}"]
            meta = {"fn": fn, "x0": x0}
            if kind == "eval":
                order = eval_order
                x = _r(x0 + rng.uniform(-reach, reach))
                argv = ["eval", *base, f"--x={x!r}", "--order", str(order), "--check", "--format", "json"]
                meta.update(x=x)
            elif kind == "sweep_x":
                order, n = xr_order, steps
                lo = _r(x0 - rng.uniform(0.3, 1.0) * reach)
                hi = _r(x0 + rng.uniform(0.3, 1.0) * reach)
                argv = ["sweep", *base, "--order", str(order), f"--x-range={lo!r}:{hi!r}:{n}"]
                meta.update(lo=lo, hi=hi, steps=n)
            else:
                order = n_top
                x = _r(x0 + rng.uniform(0.3, 1.0) * reach * rng.choice((-1, 1)))
                argv = ["sweep", *base, f"--x={x!r}", "--n-range", f"1:{order}"]
                meta.update(x=x)
            ops.append(Op(argv, kind, dims=1, order=order, lam=lam, meta=meta))
    return ops


# ---- multivar ---------------------------------------------------------------


@dataclass(frozen=True)
class FnN:
    """An n-variable test function.

    ``factors`` holds the 1-D factors of a separable function.  ``axis(c, i)``
    gives the 1-D function of ``x_i`` with every other coordinate fixed at
    ``c``, whose coefficients are the n-D ones on axis ``i``.
    """

    source: str
    dims: int
    value: object
    axis: object
    factors: tuple | None = None


def _plus(const: float, fn: R.Fn1) -> R.Fn1:
    """``const + fn`` as a 1-D reference function (its source is not used)."""
    return R.Fn1("", lambda x: const + fn.value(x), lambda B: B.const(const) + fn.series(B))


def _cos_product(n: int) -> FnN:
    src = "*".join(f"cos(2*pi*x{i + 1})" for i in range(n))
    val = lambda x: math.prod(math.cos(2 * math.pi * v) for v in x)
    return FnN(src, n, val, None, tuple(R.cos_periodic() for _ in range(n)))


def _exp_product(n: int) -> FnN:
    src = "*".join(f"exp(x{i + 1})" for i in range(n))
    val = lambda x: math.exp(sum(x))
    return FnN(src, n, val, None, tuple(R.exp_scaled(1.0) for _ in range(n)))


def _recip_sum(n: int) -> FnN:
    src = "1/(4+" + "+".join(f"x{i + 1}" for i in range(n)) + ")"

    def axis(c, i):
        rest = 4.0 + sum(c) - c[i]
        return R.Fn1("", lambda x: 1.0 / (rest + x), lambda B: R.recip(B.const(rest) + B.x()))

    return FnN(src, n, lambda x: 1.0 / (4.0 + sum(x)), axis)


def _exp_bilinear(n: int) -> FnN:
    tail = {2: "", 3: "+x3^2", 4: "+x3^2+x4"}[n]
    extra = {2: lambda x: 0.0, 3: lambda x: x[2] ** 2, 4: lambda x: x[2] ** 2 + x[3]}[n]
    value = lambda x: math.exp(x[0] * x[1]) + extra(x)

    def axis(c, i):
        if i < 2:
            part, own = R.exp_scaled(c[1 - i]), math.exp(c[0] * c[1])
        elif i == 2:
            part, own = R.square(), c[2] ** 2
        else:
            part, own = R.identity(), c[3]
        return _plus(value(c) - own, part)

    return FnN(f"exp(x1*x2){tail}", n, value, axis)


# (function, order, grid or None for no --x): each slot has one fixed size so
# that the latency distribution is the same in every run; together the slots
# cover 2-4 variables, orders 6-16 and grids 9-33, half of them with --x.
# Two slots are heaviest; one of them, a 3-D grid of 33, sets the peak memory.
_MULTIVAR = (
    (lambda: _cos_product(2), 7, None),
    (lambda: _exp_product(2), 16, None),
    (lambda: _recip_sum(2), 10, 25),
    (lambda: _exp_bilinear(2), 8, 9),
    (lambda: _cos_product(3), 8, None),
    (lambda: _recip_sum(3), 10, None),
    (lambda: _exp_bilinear(3), 7, 13),
    (lambda: _recip_sum(3), 8, 33),
    (lambda: _exp_product(4), 8, None),
    (lambda: _cos_product(4), 16, None),
    (lambda: _recip_sum(4), 10, 21),
    (lambda: _exp_bilinear(4), 6, 33),
)


def _multivar_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for make, order, grid in _MULTIVAR:
        fn = make()
        n = fn.dims
        lam = _lam_value(rng.choice((TWO_PI_I, 1.0 + 0j)))
        reach = 0.1 if lam.imag else 0.2
        center = tuple(_r(rng.uniform(-0.05, 0.05)) for _ in range(n))
        argv = ["nd", "--fn", fn.source, "--dims", str(n), "--lambda", lam_literal(lam),
                "--x0=" + ",".join(map(repr, center)), "--order", str(order), "--format", "json"]
        meta = {"fn": fn, "center": center}
        if grid is not None:
            x = tuple(_r(c + rng.uniform(-reach, reach)) for c in center)
            argv += ["--x=" + ",".join(map(repr, x)), "--grid", str(grid), "--seed", str(rng.randrange(1000))]
            meta.update(x=x, grid=grid)
        ops.append(Op(argv, "nd", dims=n, order=order, lam=lam, meta=meta))
    return ops


# ---- pointwise ----------------------------------------------------------------

_POINTWISE_FNS = (
    R.cos_periodic,
    R.recip_cos,
    lambda T: R.identity(),
    lambda T: R.square(),
    lambda T: R.sin_cubic(),
    lambda T: R.exp_scaled(1.0),
    lambda T: R.log_shift(),
)


def _pointwise_cycle(rng: random.Random) -> list[Op]:
    ops = []
    for make in _POINTWISE_FNS:
        for kind in ("expand", "radius", "growth"):
            T = _r(rng.uniform(0.5, 2.0))
            lam = _lam_value(TWO_PI_I / T)
            fn = make(T)
            base = ["--fn", fn.source, "--lambda", lam_literal(lam)]
            meta = {"fn": fn, "T": T}
            if kind == "expand":
                # the first slot is the cold probes' op: one size keeps their median steady
                order = 40 if not ops else rng.randint(16, 64)
                x0 = _r(rng.uniform(-0.5, 0.5))
                argv = ["expand", *base, f"--x0={x0!r}", "--order", str(order), "--format", "json"]
                meta.update(x0=x0)
            elif kind == "radius":
                order = rng.randint(24, 64)
                x0 = _r(rng.uniform(-0.5, 0.5))
                argv = ["radius", *base, f"--x0={x0!r}", "--j-max", str(order), "--format", "json"]
                meta.update(x0=x0)
            else:
                order = rng.randint(8, 24)
                argv = ["growth", *base, "--period", repr(T), "--n-max", str(order), "--format", "json"]
            ops.append(Op(argv, kind, dims=1, order=order, lam=lam, meta=meta))
    return ops


# ---- identities ---------------------------------------------------------------

LIGHT_IDENTITIES = (
    "cosine_x0.1_J60",
    "cosine_x-0.15_J80",
    "linear_x0.1_J80",
    "linear_boundary_J400",
    "log_k2_J60",
    "log_k5_J200",
    "stirling_k1_weighted_J60",
    "stirling_k2_weighted_J60",
    "stirling_k3_weighted_J60",
    "stirling_k4_weighted_J60",
)
MID_IDENTITIES = (
    "stirling_k1_unweighted_J20000",
    "stirling_k3_unweighted_J20000",
    "stirling_k4_unweighted_J20000",
)
HEAVY_IDENTITY = "stirling_k2_unweighted_J100000"
# registration order, which is the order the suite reports in
ALL_IDENTITIES = LIGHT_IDENTITIES + (
    MID_IDENTITIES[0], HEAVY_IDENTITY, MID_IDENTITIES[1], MID_IDENTITIES[2],
)


def _identity_op(names: list[str] | None) -> Op:
    suite = "all" if names is None else ",".join(names)
    chosen = ALL_IDENTITIES if names is None else tuple(n for n in ALL_IDENTITIES if n in names)
    j_max = max((int(n.rsplit("J", 1)[1]) for n in chosen if n.startswith("stirling")), default=0)
    argv = ["identities", "--suite", suite, "--format", "json"]
    # the ratio rows depend only on their length: that is the shareable key
    return Op(argv, "identities", order=j_max + 1 if j_max else None, meta={"names": chosen})


def _identities_cycle(rng: random.Random) -> list[Op]:
    # latency modes: 3 light (no long Stirling sum), 3 mid (one J = 20000
    # sum), 2 heavy (the J = 100000 sum), 2 whole-suite runs; mid and heavy
    # ops carry exactly two light extras so that each mode stays narrow
    ops = []
    for _ in range(3):
        ops.append(_identity_op(rng.sample(LIGHT_IDENTITIES, rng.randint(1, 5))))
    for _ in range(3):
        ops.append(_identity_op([rng.choice(MID_IDENTITIES), *rng.sample(LIGHT_IDENTITIES, 2)]))
    for _ in range(2):
        ops.append(_identity_op([HEAVY_IDENTITY, *rng.sample(LIGHT_IDENTITIES, 2)]))
    for _ in range(2):
        ops.append(_identity_op(None))
    return ops


WORKLOADS = {
    "curves1d": _curves1d_cycle,
    "multivar": _multivar_cycle,
    "pointwise": _pointwise_cycle,
    "identities": _identities_cycle,
}


def cycles(workload: str, seed: int, stream: str = "ops"):
    """Endless stream of design cycles, each shuffled, drawn from ``seed``.

    ``stream`` names an independent sequence for the same seed, so the
    cold-process probes do not repeat the measured ops.
    """
    rng = random.Random(f"{workload}:{seed}:{stream}")
    make = WORKLOADS[workload]
    while True:
        ops = make(rng)
        for slot, op in enumerate(ops):
            op.slot = slot
        rng.shuffle(ops)
        yield ops
