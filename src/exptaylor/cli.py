"""Command-line interface.

Subcommands
-----------
expand        coefficient table of the series at an expansion point
eval          truncated series value, exact remainder, and bounds at a point
sweep         CSV error/bound curves over x (``--x-range``) or N (``--n-range``)
radius        ratio-test radius estimate and x-region half-width
growth        stage-sup growth diagnostic against factorial envelopes
nd            multivariate coefficient table, optional remainder and bounds
identities    numeric identity suite

Exit codes: 0 success, 1 bad usage or validation failure (a non-finite
number in any option included), 2 domain error during evaluation or a
non-finite value to be printed, 3 a ``--check`` or an identity failed.

Any option value may begin with ``-`` (``--x -1e-2``, ``--fn '-x'``).  Each
handler returns a record that :mod:`exptaylor.render` prints as
``--format`` text, json or csv to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import DiagnosticError, DomainError, ParseError, ValidationError
from .expr import eval_complex, parse
from .identities import run_suite
from .render import RENDERERS, Field, Table, format_complex, format_float
from .series1d import expm1, growth_diagnostic, horner, radius_estimate, remainder_bound, remainder_bounds
from .seriesnd import evaluate, expand, multi_indices, remainder_bound_nd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CHECK = 3


def parse_complex_literal(text: str) -> complex:
    """Parse ``a``, ``bi``, ``a+bi``, or ``a-bi`` into a finite complex number.

    Parts are plain decimal floats (exponents allowed); no arithmetic, no
    parentheses, imaginary unit spelled ``i`` and written last.
    """
    s = text.strip()
    try:
        if not s.endswith("i"):
            z = complex(float(s))
        else:
            body = s[:-1]
            # split real/imag at the last sign that is not an exponent sign
            sign = re.search(r".*[^eE]([+-])", body)
            split = sign.start(1) if sign else 0
            im = body[split:]
            z = complex(float(body[:split] or 0), float(im + "1" if im in ("", "+", "-") else im))
    except ValueError:
        raise ValidationError(f"bad complex literal {text!r}; expected a+bi") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"complex literal {text!r} is not finite")
    return z


# ---- option values ---------------------------------------------------------------

def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"expected a finite number, got {text!r}")
    return value


def _vector(text: str) -> tuple[float, ...]:
    return tuple(_float(part) for part in text.split(","))


def _x_range(text: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = _float(lo), _float(hi), int(steps)
    except ValueError:
        raise ValidationError(f"--x-range expects lo:hi:steps, got {text!r}") from None
    if steps < 1:
        raise ValidationError("--x-range needs steps >= 1")
    if not math.isfinite(hi - lo):
        raise ValidationError(f"--x-range needs a finite span hi - lo, got {text!r}")
    return lo, hi, steps


def _n_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise ValidationError(f"--n-range expects lo:hi, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise ValidationError("--n-range needs 1 <= lo <= hi")
    return lo, hi


def _override(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise ValidationError(f"bad --tol-override {text!r}, expected NAME=VALUE")
    tol = _float(value)
    if tol < 0:
        raise ValidationError(f"--tol-override must be >= 0, got {text!r}")
    return name, tol


# ---- subcommand handlers -----------------------------------------------------

def _coeff_table(items, index_kind: str, label: Callable) -> Table:
    columns = (("index", index_kind), ("", "complex"))
    return Table(columns, list(items), lambda i, c: f"c[{label(i)}] = {format_complex(c)}")


def _cmd_expand(args):
    exp = expand(parse(args.fn, dims=1), args.lam, (args.x0,), args.order)
    return [
        Field(None, args.fn, "str", "fn"),
        Field("lambda", args.lam, "lit"),
        Field("x0", args.x0, "float"),
        Field("order", exp.order, "int"),
        Field("coeffs", _coeff_table(enumerate(exp.coeffs), "int", str), "table"),
    ], EXIT_OK


def _cmd_eval(args):
    if args.check_tol < 0:
        raise ValidationError(f"--check-tol must be >= 0, got {args.check_tol!r}")
    ast = parse(args.fn, dims=1)
    series = evaluate(expand(ast, args.lam, (args.x0,), args.order), (args.x,))
    true = complex(eval_complex(ast, args.x))
    est = remainder_bound(
        ast, args.lam, args.x0, args.x, args.order, grid=args.grid, quad_nodes=args.quad_nodes
    )
    remainder = complex(est.integral_value)
    recon_error = abs(series + remainder - true)
    check_ok = recon_error <= args.check_tol
    record = [
        Field("fn", args.fn, "str"),
        Field("lambda", args.lam, "lit"),
        Field("x0", args.x0, "float"),
        Field("x", args.x, "float", csv=True),
        Field("order", args.order, "int"),
        Field("series", series, "complex", csv=True),
        Field("true", true, "complex", csv=True),
        Field("abs_error", abs(true - series), "float", csv=True),
        Field("remainder", remainder, "complex", csv=True),
        Field("bound_tight", est.bound_tight, "float", csv=True),
        Field("bound_loose", est.bound_loose, "float", csv=True),
        Field("recon_error", recon_error, "float", csv=True),
    ]
    if args.check:
        record.append(Field("check", (check_ok, args.check_tol), "check"))
    return record, EXIT_OK if (not args.check or check_ok) else EXIT_CHECK


def _cmd_sweep(args):
    if (args.x_range is None) == (args.n_range is None):
        raise ValidationError("sweep needs exactly one of --x-range or --n-range")
    if args.x_range is not None:
        column = ("x", "float")
        xs = points = [float(x) for x in np.linspace(*args.x_range)]
        orders = [args.order]
    elif args.x is None:
        raise ValidationError("an --n-range sweep needs --x")
    else:
        column = ("N", "int")
        xs, orders = [args.x], list(range(args.n_range[0], args.n_range[1] + 1))
        points = orders
    ast = parse(args.fn, dims=1)
    # one remainder_bounds call per sweep: it lifts consecutive segments together, in blocks
    ests = remainder_bounds(ast, args.lam, args.x0, xs, orders, grid=args.grid, quad_nodes=args.quad_nodes)
    # the order-n expansion is the first n coefficients of the highest-order one: one Horner per
    # order over every x, and the errors x-major, as the estimates
    full = expand(ast, args.lam, (args.x0,), max(orders))
    w = expm1(full.lam * (np.array(xs) - args.x0))
    trues = np.array([complex(eval_complex(ast, x)) for x in xs])[:, None]
    errs = np.abs(trues - np.stack([horner(full.coeffs[:n], w) for n in orders], axis=1)).ravel().tolist()
    rows = [(p, err, est.bound_tight, est.bound_loose) for p, err, est in zip(points, errs, ests)]
    columns = (column, ("abs_error", "float"), ("bound_tight", "float"), ("bound_loose", "float"))
    return [Field("sweep", column[0], "str", None), Field("rows", Table(columns, rows), "table")], EXIT_OK


def _cmd_radius(args):
    rep = radius_estimate(parse(args.fn, dims=1), args.lam, args.x0, j_max=args.j_max, window=args.window)
    ratios = Table(
        (("j", "int"), ("value", "float", "ratio")),
        list(zip(rep.ratio_indices, rep.ratios)),
        lambda j, v: f"rho[{j}] = {format_float(v)}",
    )
    return [
        Field("fn", args.fn, "str"),
        Field("lambda", args.lam, "lit"),
        Field("x0", args.x0, "float"),
        Field("j_max", args.j_max, "int"),
        Field("window", rep.window, "int"),
        Field("r_estimate", rep.r_estimate, "float"),
        Field("x_region_halfwidth", rep.x_region_halfwidth, "inf", "halfwidth"),
        Field("stable", rep.stable, "bool"),
        Field("ratios", ratios, "table"),
    ], EXIT_OK


def _cmd_growth(args):
    rep = growth_diagnostic(parse(args.fn, dims=1), args.lam, args.period, n_max=args.n_max, grid=args.grid)
    sups = Table(
        (("n", "int"), ("value", "float", "sup")),
        list(enumerate(rep.sup_values, 1)),
        lambda n, v: f"g[{n}] = {format_float(v)}",
    )
    return [
        Field("fn", args.fn, "str"),
        Field("lambda", args.lam, "lit"),
        Field("period", args.period, "float"),
        Field("n_max", rep.n_max, "int"),
        Field("grid", rep.grid, "int"),
        Field("k_fit", rep.k_fit, "int"),
        Field("c0", rep.c0, "float"),
        Field("envelope_bounded", rep.envelope_bounded, "bool"),
        Field("periodic_input", rep.periodic_input, "bool"),
        Field("sup", sups, "table"),
    ], EXIT_OK


def _cmd_nd(args):
    n = args.dims
    ast = parse(args.fn, dims=n)
    center = (0.0,) * n if args.x0 is None else args.x0
    exp = expand(ast, args.lam, center, args.order)
    keys = multi_indices(n, exp.order)
    coeffs = _coeff_table(zip(keys, map(exp.coeffs.item, keys)), "index", lambda g: ",".join(map(str, g)))
    record = [
        Field("fn", args.fn, "str"),
        Field("dims", n, "int"),
        Field("lambda", args.lam, "lit"),
        Field("center", center, "vector"),
        Field("order", exp.order, "int"),
        Field("coeffs", coeffs, "table"),
    ]
    if args.x is not None:
        series = evaluate(exp, args.x)  # checks the length of x
        true = complex(eval_complex(ast, args.x))
        est = remainder_bound_nd(ast, args.lam, center, args.x, args.order, grid=args.grid)
        remainder = complex(est.integral_value)
        point = [
            Field("x", args.x, "vector"),
            Field("series", series, "complex"),
            Field("true", true, "complex"),
            Field("abs_error", abs(true - series), "float"),
            Field("remainder", remainder, "complex"),
            Field("bound_tight", est.bound_tight, "float"),
            Field("bound", est.bound_loose, "float"),
            Field("recon_error", abs(series + remainder - true), "float"),
        ]
        record.append(Field("point", point, "group"))
    return record, EXIT_OK


def _identity_line(name, computed, target, terms_used, tolerance, abs_error, passed, variant) -> str:
    variant = f" [{variant}]" if variant else ""
    return f"{'PASS' if passed else 'FAIL'}  {name:<42} err={abs_error:.3e} tol={tolerance:.3e}{variant}"


def _cmd_identities(args):
    if args.suite == "all":
        names = None
    else:
        names = tuple(part for part in args.suite.split(",") if part)
        if not names:
            raise ValidationError("--suite needs 'all' or a comma-separated name list")
    results = run_suite(dict(args.tol_override or ()), names=names)
    n_pass = sum(1 for r in results if r.passed)
    # each column holds the IdentityResult field of its name
    columns = (
        ("name", "str"), ("computed", "complex"), ("target", "complex"), ("terms_used", "int"),
        ("tolerance", "float"), ("abs_error", "float"), ("passed", "bool"), ("variant", "str"),
    )
    table = Table(columns, [tuple(getattr(r, key) for key, _ in columns) for r in results], _identity_line)
    summary = f"{n_pass} passed, {len(results) - n_pass} failed"
    code = EXIT_OK if n_pass == len(results) else EXIT_CHECK
    return [Field("", table, "table"), Field(None, summary, "line", "summary")], code


# ---- options -------------------------------------------------------------------

def _opt(flag: str, help: str, **kw) -> tuple[str, dict]:
    return flag, dict(kw, help=help)


def _output(default: str) -> tuple:
    fmt = _opt("--format", f"output format (default {default})", choices=tuple(RENDERERS), default=default)
    return fmt, _opt("--out", "write to this file instead of stdout")


FN = _opt("--fn", "expression, e.g. 'cos(2*pi*x)'", required=True)
LAMBDA = _opt("--lambda", "complex literal, e.g. 0+6.283185307179586i or 1",
              type=parse_complex_literal, required=True, dest="lam", metavar="A+BI")
X0 = _opt("--x0", "expansion point (default 0)", type=_float, default=0.0)
QUAD_NODES = _opt("--quad-nodes", "Gauss-Legendre nodes (default 64)", type=int, default=64)
GRID = _opt("--grid", "bound sampling grid, odd and >= 3 (default 513)", type=int, default=513)

# subcommand -> (handler, help, options as add_argument keywords)
COMMANDS = {
    "expand": (_cmd_expand, "print series coefficients", (
        FN, LAMBDA, X0,
        _opt("--order", "number of coefficients N (default 8)", type=int, default=8),
        *_output("text"),
    )),
    "eval": (_cmd_eval, "series value, remainder, and bounds at x", (
        FN, LAMBDA, X0,
        _opt("--x", "evaluation point", type=_float, required=True),
        _opt("--order", "truncation order N (default 8)", type=int, default=8),
        QUAD_NODES, GRID,
        _opt("--check", "exit 3 unless series + remainder = true value", action="store_true"),
        _opt("--check-tol", "tolerance for --check (default 1e-9)", type=_float, default=1e-9),
        *_output("text"),
    )),
    "sweep": (_cmd_sweep, "error/bound curves over x or N", (
        FN, LAMBDA, X0,
        _opt("--x", "evaluation point for --n-range sweeps", type=_float),
        _opt("--order", "truncation order for --x-range sweeps", type=int, default=8),
        _opt("--x-range", "sweep x over a uniform grid", type=_x_range, metavar="LO:HI:STEPS"),
        _opt("--n-range", "sweep the truncation order", type=_n_range, metavar="LO:HI"),
        QUAD_NODES, GRID,
        *_output("csv"),
    )),
    "radius": (_cmd_radius, "ratio-test radius and x-region half-width", (
        FN, LAMBDA, X0,
        _opt("--j-max", "highest coefficient index (default 48)", type=int, default=48),
        _opt("--window", "trailing ratios kept, 4 <= window < j-max (default 8)", type=int, default=8),
        *_output("text"),
    )),
    "growth": (_cmd_growth, "stage-sup growth against factorial envelopes", (
        FN, LAMBDA,
        _opt("--period", "grid interval [0, T] (default 1)", type=_float, default=1.0),
        _opt("--n-max", "stages examined (default 16)", type=int, default=16),
        _opt("--grid", "sampling grid, >= 2 (default 257)", type=int, default=257),
        *_output("text"),
    )),
    "nd": (_cmd_nd, "multivariate coefficients, remainder and bounds", (
        FN,
        _opt("--dims", "number of variables x1..xn", type=int, required=True),
        LAMBDA,
        _opt("--x0", "expansion center (default origin)", type=_vector, metavar="C1,..,CN"),
        _opt("--x", "evaluation point for the bound block", type=_vector, metavar="X1,..,XN"),
        _opt("--order", "total degree bound N (default 6)", type=int, default=6),
        _opt("--grid", "samples on the segment, >= 3 (default 33)", type=int, default=33),
        _opt("--seed", "accepted, no effect", type=int, default=0),
        *_output("text"),
    )),
    "identities": (_cmd_identities, "run the numeric identity suite", (
        _opt("--suite", "'all' or comma-separated identity names", default="all"),
        _opt(
            "--tol-override", "replace one identity's tolerance (repeatable)",
            type=_override, action="append", metavar="NAME=VALUE",
        ),
        *_output("text"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="exptaylor", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name, (handler, help_, options) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_)
        for flag, kw in options:
            sub.add_argument(flag, **kw)
        sub.set_defaults(handler=handler)
    return parser


def _attach_values(argv: Sequence[str]) -> list[str]:
    """Join each option that takes a value with a following token that starts with ``-``.

    argparse reads such a token as an option unless it is a plain negative
    number, so ``--fn -x`` becomes ``--fn=-x``.  A token that is one of the
    subcommand's own options is left alone, and argparse reports the
    missing value.
    """
    options = COMMANDS[argv[0]][2] if argv and argv[0] in COMMANDS else ()
    flags = {flag for flag, _ in options} | {"-h", "--help"}
    takes_value = {flag for flag, kw in options if kw.get("action") != "store_true"}
    out: list[str] = []
    for token in argv:
        if out and out[-1] in takes_value and token.startswith("-") and token.split("=")[0] not in flags:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        record, code = args.handler(args)
        text = RENDERERS[args.format](record)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is reserved for domain errors here
        return EXIT_USAGE if exc.code == 2 else exc.code or EXIT_OK
    except (ParseError, ValidationError, DiagnosticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        # a sample count past what memory holds: numpy refuses the array before filling it
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.out in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return code
