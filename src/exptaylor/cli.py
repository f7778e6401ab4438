"""Command-line interface.

Subcommands
-----------
expand        coefficient table of the series at an expansion point
eval          truncated series value, exact remainder, and bounds at a point
sweep         CSV error/bound curves over x (``--x-range``) or N (``--n-range``)
radius        ratio-test radius estimate and x-region half-width
growth        stage-sup growth diagnostic against factorial envelopes
nd            multivariate coefficient table, optional remainder bound
identities    numeric identity suite

Exit codes: 0 success, 1 bad usage or validation failure, 2 domain error
during evaluation, 3 a ``--check`` assertion or an identity failed.

Output goes to stdout or ``--out``, in ``--format`` text, json, or csv.
CSV floats carry 17 significant digits so they round-trip to the exact
double.  Identical invocations (including ``--seed``) produce byte-identical
output.  An infinite x-region half-width is printed as ``inf`` and emitted
as the JSON string ``"inf"``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Sequence

import numpy as np

from .errors import DiagnosticError, DomainError, ParseError, ValidationError
from .expr import eval_complex, parse
from .identities import results_to_json, results_to_text, run_suite
from .series1d import (
    eval_series,
    expand_1d,
    growth_diagnostic,
    radius_estimate,
    remainder_bound,
)
from .seriesnd import eval_nd, expand_nd, remainder_bound_nd

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CHECK = 3


def parse_complex_literal(text: str) -> complex:
    """Parse ``a``, ``bi``, ``a+bi``, or ``a-bi`` into a complex number.

    Parts are plain decimal floats (exponents allowed); no arithmetic, no
    parentheses, imaginary unit spelled ``i`` and written last.
    """
    s = text.strip()
    if not s:
        raise ValidationError("empty complex literal")
    try:
        if not s.endswith("i"):
            return complex(float(s))
        body = s[:-1]
        # split real/imag at the last sign that is not an exponent sign
        split = None
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                split = pos
                break
        if split is None:
            re_part, im_part = "", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im_val = 1.0
        elif im_part == "-":
            im_val = -1.0
        else:
            im_val = float(im_part)
        re_val = float(re_part) if re_part else 0.0
        return complex(re_val, im_val)
    except ValueError:
        raise ValidationError(f"bad complex literal {text!r}; expected a+bi") from None


def _parse_vector(text: str, dims: int, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated floats, got {text!r}") from None
    if len(values) != dims:
        raise ValidationError(f"{flag} has {len(values)} components, --dims is {dims}")
    return values


def _parse_x_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--x-range expects lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"--x-range expects lo:hi:steps, got {text!r}") from None
    if steps < 1:
        raise ValidationError("--x-range needs steps >= 1")
    return lo, hi, steps


def _parse_n_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(f"--n-range expects lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"--n-range expects lo:hi, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise ValidationError("--n-range needs 1 <= lo <= hi")
    return lo, hi


# ---- formatting helpers ------------------------------------------------------

def _g(x: float) -> str:
    return format(float(x), ".17g")


def _c_text(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{_g(z.real)} {sign} {_g(abs(z.imag))}i"


def _c_lit(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{_g(z.real)}{sign}{_g(abs(z.imag))}i"


def _c_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _kv_block(pairs: list[tuple[str, str]]) -> list[str]:
    width = max(len(k) for k, _ in pairs)
    return [f"{k:<{width}} = {v}" for k, v in pairs]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---- subcommand handlers -----------------------------------------------------

def _cmd_expand(args) -> tuple[str, int]:
    ast = parse(args.fn, dims=1)
    lam = parse_complex_literal(args.lam)
    exp = expand_1d(ast, lam, args.x0, args.order)
    coeffs = [complex(c) for c in exp.coeffs]
    if args.format == "json":
        payload = {
            "lambda": _c_json(lam),
            "x0": float(args.x0),
            "order": exp.order,
            "coeffs": [{"index": j, "re": c.real, "im": c.imag} for j, c in enumerate(coeffs)],
        }
        return _json(payload), EXIT_OK
    if args.format == "csv":
        lines = ["index,re,im"]
        lines += [f"{j},{_g(c.real)},{_g(c.imag)}" for j, c in enumerate(coeffs)]
        return "\n".join(lines) + "\n", EXIT_OK
    pairs = [
        ("fn", args.fn),
        ("lambda", _c_lit(lam)),
        ("x0", _g(args.x0)),
        ("order", str(exp.order)),
    ]
    lines = _kv_block(pairs)
    lines += [f"c[{j}] = {_c_text(c)}" for j, c in enumerate(coeffs)]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_eval(args) -> tuple[str, int]:
    ast = parse(args.fn, dims=1)
    lam = parse_complex_literal(args.lam)
    exp = expand_1d(ast, lam, args.x0, args.order)
    series = complex(eval_series(exp, args.x))
    true = complex(eval_complex(ast, args.x))
    est = remainder_bound(
        ast, lam, args.x0, args.x, args.order, grid=args.grid, quad_nodes=args.quad_nodes
    )
    remainder = complex(est.integral_value)
    abs_error = abs(true - series)
    recon_error = abs(series + remainder - true)
    check_ok = recon_error <= args.check_tol
    code = EXIT_OK if (not args.check or check_ok) else EXIT_CHECK

    if args.format == "json":
        payload = {
            "fn": args.fn,
            "lambda": _c_json(lam),
            "x0": float(args.x0),
            "x": float(args.x),
            "order": args.order,
            "series": _c_json(series),
            "true": _c_json(true),
            "abs_error": abs_error,
            "remainder": _c_json(remainder),
            "bound_tight": float(est.bound_tight),
            "bound_loose": float(est.bound_loose),
            "recon_error": recon_error,
        }
        if args.check:
            payload["check"] = {"tolerance": float(args.check_tol), "passed": check_ok}
        return _json(payload), code
    if args.format == "csv":
        header = (
            "x,series_re,series_im,true_re,true_im,abs_error,"
            "remainder_re,remainder_im,bound_tight,bound_loose,recon_error"
        )
        row = ",".join(
            _g(v)
            for v in (
                args.x,
                series.real,
                series.imag,
                true.real,
                true.imag,
                abs_error,
                remainder.real,
                remainder.imag,
                est.bound_tight,
                est.bound_loose,
                recon_error,
            )
        )
        return header + "\n" + row + "\n", code
    pairs = [
        ("fn", args.fn),
        ("lambda", _c_lit(lam)),
        ("x0", _g(args.x0)),
        ("x", _g(args.x)),
        ("order", str(args.order)),
        ("series", _c_text(series)),
        ("true", _c_text(true)),
        ("abs_error", _g(abs_error)),
        ("remainder", _c_text(remainder)),
        ("bound_tight", _g(est.bound_tight)),
        ("bound_loose", _g(est.bound_loose)),
        ("recon_error", _g(recon_error)),
    ]
    if args.check:
        pairs.append(("check", f"{'pass' if check_ok else 'fail'} (tol {_g(args.check_tol)})"))
    return "\n".join(_kv_block(pairs)) + "\n", code


def _cmd_sweep(args) -> tuple[str, int]:
    if (args.x_range is None) == (args.n_range is None):
        raise ValidationError("sweep needs exactly one of --x-range or --n-range")
    ast = parse(args.fn, dims=1)
    lam = parse_complex_literal(args.lam)

    rows: list[tuple[str, float, float, float]] = []
    if args.x_range is not None:
        key = "x"
        lo, hi, steps = _parse_x_range(args.x_range)
        exp = expand_1d(ast, lam, args.x0, args.order)
        for x in np.linspace(lo, hi, steps):
            x = float(x)
            err = abs(eval_complex(ast, x) - eval_series(exp, x))
            est = remainder_bound(
                ast, lam, args.x0, x, args.order, grid=args.grid, quad_nodes=args.quad_nodes
            )
            rows.append((_g(x), err, est.bound_tight, est.bound_loose))
    else:
        key = "N"
        if args.x is None:
            raise ValidationError("an --n-range sweep needs --x")
        lo, hi = _parse_n_range(args.n_range)
        for n in range(lo, hi + 1):
            exp = expand_1d(ast, lam, args.x0, n)
            err = abs(eval_complex(ast, args.x) - eval_series(exp, args.x))
            est = remainder_bound(
                ast, lam, args.x0, args.x, n, grid=args.grid, quad_nodes=args.quad_nodes
            )
            rows.append((str(n), err, est.bound_tight, est.bound_loose))

    if args.format == "json":
        payload = {
            "sweep": key,
            "rows": [
                {
                    key: (float(first) if key == "x" else int(first)),
                    "abs_error": float(err),
                    "bound_tight": float(bt),
                    "bound_loose": float(bl),
                }
                for first, err, bt, bl in rows
            ],
        }
        return _json(payload), EXIT_OK
    lines = [f"{key},abs_error,bound_tight,bound_loose"]
    lines += [f"{first},{_g(err)},{_g(bt)},{_g(bl)}" for first, err, bt, bl in rows]
    text = "\n".join(lines) + "\n"
    if args.format == "text":
        text = text.replace(",", "  ")
    return text, EXIT_OK


def _cmd_radius(args) -> tuple[str, int]:
    ast = parse(args.fn, dims=1)
    lam = parse_complex_literal(args.lam)
    rep = radius_estimate(ast, lam, args.x0, j_max=args.j_max, window=args.window)
    half = rep.x_region_halfwidth
    if args.format == "json":
        if half is None:
            half_json = None
        elif half == float("inf"):
            half_json = "inf"
        else:
            half_json = float(half)
        payload = {
            "fn": args.fn,
            "lambda": _c_json(lam),
            "x0": float(args.x0),
            "j_max": args.j_max,
            "window": rep.window,
            "r_estimate": float(rep.r_estimate),
            "x_region_halfwidth": half_json,
            "stable": rep.stable,
            "ratios": [
                {"j": int(j), "value": float(v)}
                for j, v in zip(rep.ratio_indices, rep.ratios)
            ],
        }
        return _json(payload), EXIT_OK
    if args.format == "csv":
        lines = ["j,ratio"]
        lines += [f"{j},{_g(v)}" for j, v in zip(rep.ratio_indices, rep.ratios)]
        return "\n".join(lines) + "\n", EXIT_OK
    pairs = [
        ("fn", args.fn),
        ("lambda", _c_lit(lam)),
        ("x0", _g(args.x0)),
        ("j_max", str(args.j_max)),
        ("window", str(rep.window)),
        ("r_estimate", _g(rep.r_estimate)),
        ("halfwidth", "none" if half is None else _g(half)),
        ("stable", "true" if rep.stable else "false"),
    ]
    lines = _kv_block(pairs)
    lines += [f"rho[{j}] = {_g(v)}" for j, v in zip(rep.ratio_indices, rep.ratios)]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_growth(args) -> tuple[str, int]:
    ast = parse(args.fn, dims=1)
    lam = parse_complex_literal(args.lam)
    rep = growth_diagnostic(ast, lam, args.period, n_max=args.n_max, grid=args.grid)
    sups = [float(v) for v in rep.sup_values]
    if args.format == "json":
        payload = {
            "fn": args.fn,
            "lambda": _c_json(lam),
            "period": float(args.period),
            "n_max": rep.n_max,
            "grid": rep.grid,
            "k_fit": rep.k_fit,
            "c0": float(rep.c0),
            "envelope_bounded": rep.envelope_bounded,
            "periodic_input": rep.periodic_input,
            "sup": [{"n": i + 1, "value": v} for i, v in enumerate(sups)],
        }
        return _json(payload), EXIT_OK
    if args.format == "csv":
        lines = ["n,sup"]
        lines += [f"{i + 1},{_g(v)}" for i, v in enumerate(sups)]
        return "\n".join(lines) + "\n", EXIT_OK
    pairs = [
        ("fn", args.fn),
        ("lambda", _c_lit(lam)),
        ("period", _g(args.period)),
        ("n_max", str(rep.n_max)),
        ("grid", str(rep.grid)),
        ("k_fit", str(rep.k_fit)),
        ("c0", _g(rep.c0)),
        ("envelope_bounded", "true" if rep.envelope_bounded else "false"),
        ("periodic_input", "true" if rep.periodic_input else "false"),
    ]
    lines = _kv_block(pairs)
    lines += [f"g[{i + 1}] = {_g(v)}" for i, v in enumerate(sups)]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_nd(args) -> tuple[str, int]:
    n = args.dims
    ast = parse(args.fn, dims=n)
    lam = parse_complex_literal(args.lam)
    center = _parse_vector(args.x0, n, "--x0") if args.x0 is not None else (0.0,) * n
    exp = expand_nd(ast, n, lam, center, args.order)
    items = [(g, complex(c)) for g, c in exp.coeffs.items()]

    point = None
    if args.x is not None:
        x = _parse_vector(args.x, n, "--x")
        series = complex(eval_nd(exp, x))
        true = complex(eval_complex(ast, x))
        bound = float(
            remainder_bound_nd(ast, n, lam, center, x, args.order, grid=args.grid, seed=args.seed)
        )
        point = (x, series, true, abs(true - series), bound)

    if args.format == "json":
        payload = {
            "fn": args.fn,
            "dims": n,
            "lambda": _c_json(lam),
            "center": [float(c) for c in center],
            "order": exp.order,
            "coeffs": [
                {"index": list(g), "re": c.real, "im": c.imag} for g, c in items
            ],
        }
        if point is not None:
            x, series, true, err, bound = point
            payload["point"] = {
                "x": [float(v) for v in x],
                "series": _c_json(series),
                "true": _c_json(true),
                "abs_error": err,
                "bound": bound,
            }
        return _json(payload), EXIT_OK
    if args.format == "csv":
        lines = ["index,re,im"]
        lines += [f"{' '.join(map(str, g))},{_g(c.real)},{_g(c.imag)}" for g, c in items]
        return "\n".join(lines) + "\n", EXIT_OK
    pairs = [
        ("fn", args.fn),
        ("dims", str(n)),
        ("lambda", _c_lit(lam)),
        ("center", ",".join(_g(c) for c in center)),
        ("order", str(exp.order)),
    ]
    lines = _kv_block(pairs)
    lines += [f"c[{','.join(map(str, g))}] = {_c_text(c)}" for g, c in items]
    if point is not None:
        x, series, true, err, bound = point
        lines += _kv_block(
            [
                ("x", ",".join(_g(v) for v in x)),
                ("series", _c_text(series)),
                ("true", _c_text(true)),
                ("abs_error", _g(err)),
                ("bound", _g(bound)),
            ]
        )
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_identities(args) -> tuple[str, int]:
    overrides: dict[str, float] = {}
    for item in args.tol_override or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValidationError(f"bad --tol-override {item!r}, expected NAME=VALUE")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise ValidationError(f"bad tolerance in --tol-override {item!r}") from None
    if args.suite == "all":
        names = None
    else:
        names = tuple(part for part in args.suite.split(",") if part)
        if not names:
            raise ValidationError("--suite needs 'all' or a comma-separated name list")
    results = run_suite(overrides, names=names)
    code = EXIT_OK if all(r.passed for r in results) else EXIT_CHECK

    if args.format == "json":
        return results_to_json(results) + "\n", code
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            [
                "name",
                "computed_re",
                "computed_im",
                "target_re",
                "target_im",
                "terms_used",
                "tolerance",
                "abs_error",
                "passed",
                "variant",
            ]
        )
        for r in results:
            writer.writerow(
                [
                    r.name,
                    _g(r.computed.real),
                    _g(r.computed.imag),
                    _g(r.target.real),
                    _g(r.target.imag),
                    r.terms_used,
                    _g(r.tolerance),
                    _g(r.abs_error),
                    "true" if r.passed else "false",
                    r.variant or "",
                ]
            )
        return buf.getvalue(), code
    n_pass = sum(1 for r in results if r.passed)
    summary = f"{n_pass} passed, {len(results) - n_pass} failed"
    return results_to_text(results).rstrip("\n") + "\n" + summary + "\n", code


# ---- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for domain
    # errors here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_output_flags(sub, default_format: str) -> None:
    sub.add_argument(
        "--format", choices=("text", "json", "csv"), default=default_format,
        help=f"output format (default {default_format})",
    )
    sub.add_argument("--out", default=None, help="write to this file instead of stdout")


def _add_fn_lambda(sub, dims_flag: bool = False) -> None:
    sub.add_argument("--fn", required=True, help="expression, e.g. 'cos(2*pi*x)'")
    if dims_flag:
        sub.add_argument("--dims", type=int, required=True, help="number of variables x1..xn")
    sub.add_argument(
        "--lambda", dest="lam", required=True, metavar="A+BI",
        help="complex literal, e.g. 0+6.283185307179586i or 1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="exptaylor", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    sub = subs.add_parser("expand", help="print series coefficients")
    _add_fn_lambda(sub)
    sub.add_argument("--x0", type=float, default=0.0, help="expansion point (default 0)")
    sub.add_argument("--order", type=int, default=8, help="number of coefficients N (default 8)")
    _add_output_flags(sub, "text")
    sub.set_defaults(handler=_cmd_expand)

    sub = subs.add_parser("eval", help="series value, remainder, and bounds at x")
    _add_fn_lambda(sub)
    sub.add_argument("--x0", type=float, default=0.0, help="expansion point (default 0)")
    sub.add_argument("--x", type=float, required=True, help="evaluation point")
    sub.add_argument("--order", type=int, default=8, help="truncation order N (default 8)")
    sub.add_argument("--quad-nodes", type=int, default=64, help="Gauss-Legendre nodes (default 64)")
    sub.add_argument("--grid", type=int, default=513, help="bound sampling grid (default 513)")
    sub.add_argument("--check", action="store_true", help="exit 3 unless series + remainder = true value")
    sub.add_argument("--check-tol", type=float, default=1e-9, help="tolerance for --check (default 1e-9)")
    _add_output_flags(sub, "text")
    sub.set_defaults(handler=_cmd_eval)

    sub = subs.add_parser("sweep", help="error/bound curves over x or N")
    _add_fn_lambda(sub)
    sub.add_argument("--x0", type=float, default=0.0, help="expansion point (default 0)")
    sub.add_argument("--x", type=float, default=None, help="evaluation point for --n-range sweeps")
    sub.add_argument("--order", type=int, default=8, help="truncation order for --x-range sweeps")
    sub.add_argument(
        "--x-range", default=None, metavar="LO:HI:STEPS",
        help="sweep x over a uniform grid (use --x-range=-0.1:0.1:5 for a negative lo)",
    )
    sub.add_argument("--n-range", default=None, metavar="LO:HI", help="sweep the truncation order")
    sub.add_argument("--quad-nodes", type=int, default=64, help="Gauss-Legendre nodes (default 64)")
    sub.add_argument("--grid", type=int, default=513, help="bound sampling grid (default 513)")
    _add_output_flags(sub, "csv")
    sub.set_defaults(handler=_cmd_sweep)

    sub = subs.add_parser("radius", help="ratio-test radius and x-region half-width")
    _add_fn_lambda(sub)
    sub.add_argument("--x0", type=float, default=0.0, help="expansion point (default 0)")
    sub.add_argument("--j-max", type=int, default=48, help="highest coefficient index (default 48)")
    sub.add_argument("--window", type=int, default=8, help="trailing ratios kept (default 8)")
    _add_output_flags(sub, "text")
    sub.set_defaults(handler=_cmd_radius)

    sub = subs.add_parser("growth", help="stage-sup growth against factorial envelopes")
    _add_fn_lambda(sub)
    sub.add_argument("--period", type=float, default=1.0, help="grid interval [0, T] (default 1)")
    sub.add_argument("--n-max", type=int, default=16, help="stages examined (default 16)")
    sub.add_argument("--grid", type=int, default=257, help="sampling grid (default 257)")
    _add_output_flags(sub, "text")
    sub.set_defaults(handler=_cmd_growth)

    sub = subs.add_parser("nd", help="multivariate coefficients and remainder bound")
    _add_fn_lambda(sub, dims_flag=True)
    sub.add_argument("--x0", default=None, metavar="C1,..,CN", help="expansion center (default origin)")
    sub.add_argument("--x", default=None, metavar="X1,..,XN", help="evaluation point for the bound block")
    sub.add_argument("--order", type=int, default=6, help="total degree bound N (default 6)")
    sub.add_argument("--grid", type=int, default=33, help="box sampling grid per axis (default 33)")
    sub.add_argument("--seed", type=int, default=0, help="box sampling seed (default 0)")
    _add_output_flags(sub, "text")
    sub.set_defaults(handler=_cmd_nd)

    sub = subs.add_parser("identities", help="run the numeric identity suite")
    sub.add_argument("--suite", default="all", help="'all' or comma-separated identity names")
    sub.add_argument(
        "--tol-override", action="append", default=None, metavar="NAME=VALUE",
        help="replace one identity's tolerance (repeatable)",
    )
    _add_output_flags(sub, "text")
    sub.set_defaults(handler=_cmd_identities)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_OK
    try:
        text, code = args.handler(args)
    except (ParseError, ValidationError, DiagnosticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    _emit(text, args.out)
    return code
