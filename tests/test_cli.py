"""End-to-end CLI tests.

Most run ``cli.main`` in this process (``run_main``), which returns the
exit code and writes the bytes that ``python -m exptaylor`` would.  A named
set runs the real process (``run_cli``): what only a process shows.
"""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptaylor import cli
from exptaylor.cli import parse_complex_literal
from exptaylor.errors import DomainError, ValidationError
from exptaylor.expr import eval_complex, parse
from exptaylor.identities import run_suite
from exptaylor.render import RENDERERS, Field, Table, format_complex
from exptaylor.series1d import expm1, radius_estimate
from exptaylor.seriesnd import evaluate, expand

TWO_PI_I = "0+6.283185307179586i"


GOLDEN = Path(__file__).resolve().parent / "golden"
# numpy RuntimeWarnings become errors, so any one reaching stderr is caught
STRICT = ("-W", "error::RuntimeWarning")


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_main(capsys, *argv):
    """``cli.main`` in this process: (exit code, stdout, stderr), also as ``.returncode``, ``.stdout``, ``.stderr``."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return Run(code, out, err)


# ``python -m exptaylor`` in a child process, for what only a real process
# shows; every such test runs ``__main__``:
# - a numpy RuntimeWarning made an error by ``-W`` (STRICT): the
#   ``test_overflow_*``, ``test_nd_zero_divisor_*``, ``test_growth_overflow_*``
#   and ``test_readme_examples_emit_no_runtime_warning`` cases;
# - stderr with no traceback and no raw warning, without ``-W``:
#   ``test_sampled_nd_bound_overflow_exits_2_with_one_line``;
# - the exit code as the shell sees it, one per code: ``test_no_subcommand_exits_1``,
#   ``test_eval_domain_error_exits_2`` and ``test_eval_check_failure_exits_3``;
# - determinism across processes: ``test_output_is_deterministic``.
def run_cli(*argv, timeout=60, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "exptaylor", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


# ---- complex literals ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("i", 1j),
        ("-i", -1j),
        ("1e-3i", 1e-3j),
        ("0+6.283185307179586i", 6.283185307179586j),
        ("2-i", 2 - 1j),
        ("-2.5e+3+1e-2i", -2.5e3 + 1e-2j),
        (" 4 ", 4 + 0j),
    ],
)
def test_parse_complex_literal(text, value):
    assert parse_complex_literal(text) == value


@pytest.mark.parametrize("text", ["", "foo", "1+2j", "i2", "1++2i", "nan", "infi", "1-nani", "1e999"])
def test_parse_complex_literal_rejects(text):
    with pytest.raises(ValidationError):
        parse_complex_literal(text)


@settings(max_examples=200, deadline=None)
@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_parse_complex_literal_round_trips_printed_literal(z):
    assert parse_complex_literal(format_complex(z, "")) == z


# ---- expand ---------------------------------------------------------------------


def test_expand_json_schema(capsys):
    p = run_main(
        capsys, "expand", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
        "--order", "6", "--format", "json",
    )
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert set(payload) == {"lambda", "x0", "order", "coeffs"}
    assert payload["lambda"] == {"re": 0.0, "im": 6.283185307179586}
    assert payload["order"] == 6
    assert [c["index"] for c in payload["coeffs"]] == list(range(6))
    coeffs = {c["index"]: complex(c["re"], c["im"]) for c in payload["coeffs"]}
    assert coeffs[0] == pytest.approx(1.0)
    assert coeffs[1] == pytest.approx(0.0, abs=1e-12)
    assert coeffs[2] == pytest.approx(0.5, abs=1e-12)
    assert coeffs[3] == pytest.approx(-0.5, abs=1e-12)


def test_expand_csv_round_trips_to_json_values(capsys):
    args = ("expand", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--order", "6")
    js = json.loads(run_main(capsys, *args, "--format", "json").stdout)
    csv_out = run_main(capsys, *args, "--format", "csv").stdout.splitlines()
    assert csv_out[0] == "index,re,im"
    assert len(csv_out) == 7
    for line, ref in zip(csv_out[1:], js["coeffs"]):
        idx, re, im = line.split(",")
        # 17 significant digits recover the exact double
        assert int(idx) == ref["index"]
        assert float(re) == ref["re"]
        assert float(im) == ref["im"]


def test_expand_text_output(capsys):
    p = run_main(capsys, "expand", "--fn", "x", "--lambda", TWO_PI_I, "--order", "3")
    assert p.returncode == 0
    assert "c[0]" in p.stdout and "c[2]" in p.stdout
    assert "lambda" in p.stdout


def test_expand_out_file(capsys, tmp_path):
    target = tmp_path / "coeffs.csv"
    args = (
        "expand", "--fn", "x", "--lambda", TWO_PI_I,
        "--order", "4", "--format", "csv",
    )
    direct = run_main(capsys, *args)
    p = run_main(capsys, *args, "--out", str(target))
    assert p.returncode == 0
    assert p.stdout == ""
    assert target.read_text() == direct.stdout


# ---- eval -----------------------------------------------------------------------


def test_eval_json_reconstruction(capsys):
    p = run_main(
        capsys, "eval", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
        "--x", "0.05", "--order", "8", "--format", "json",
    )
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    true = complex(payload["true"]["re"], payload["true"]["im"])
    assert true == pytest.approx(math.cos(0.1 * math.pi), rel=1e-14)
    assert payload["abs_error"] <= payload["bound_tight"] * 1.01
    assert payload["bound_tight"] <= payload["bound_loose"] * 1.01
    # series + exact remainder reproduces the function value
    assert payload["recon_error"] < 1e-12


def test_eval_at_expansion_point_is_exact(capsys):
    p = run_main(
        capsys, "eval", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
        "--x", "0", "--order", "6", "--format", "json",
    )
    payload = json.loads(p.stdout)
    assert payload["abs_error"] == 0.0
    assert payload["remainder"] == {"re": 0.0, "im": 0.0}
    assert payload["bound_tight"] == 0.0


def test_eval_near_the_center_keeps_w_exact(capsys):
    # w = expm1(1e-10), not exp(1e-10) - 1, which is 8.3e-8 relative off
    code, out, _ = run_main(capsys, "eval", "--fn", "x", "--lambda", "1", "--x", "1e-10", "--order", "6")
    assert code == 0
    assert "abs_error   = 0\n" in out


def test_eval_with_a_tiny_lambda_keeps_the_series(capsys):
    # exp(5e-301) - 1 is 0, so the series printed 0 and abs_error 0.5
    argv = ("eval", "--fn", "x", "--lambda", "1e-300", "--x", "0.5", "--order", "6")
    code, out, _ = run_main(capsys, *argv)
    assert code == 0
    assert "series      = 0.49999999999999994 + 0i\n" in out
    code, out, _ = run_main(capsys, *argv, "--format", "json")
    assert json.loads(out)["abs_error"] <= 2.0**-53


TINY_LAMBDA_COEFFS = [
    "0 + 0i",
    "9.999999999999999e+299 + 0i",
    "-4.9999999999999995e+299 + 0i",
    "3.3333333333333328e+299 + 0i",
    "-2.4999999999999994e+299 + 0i",
    "1.9999999999999997e+299 + 0i",
]


def test_a_tiny_lambda_keeps_the_finite_coefficients(capsys):
    # lam^-m overflows from m = 2 on; only the nonzero coefficients (of x, or of
    # x1 and x2) are scaled, so the exact zeros past them contribute 0, not nan
    code, out, _ = run_main(capsys, "expand", "--fn", "x", "--lambda", "1e-300", "--order", "6")
    assert code == 0
    assert [line.split(" = ")[1] for line in out.splitlines() if line.startswith("c[")] == TINY_LAMBDA_COEFFS
    code, out, _ = run_main(capsys, "nd", "--fn", "x1+x2", "--dims", "2", "--lambda", "1e-300", "--order", "6")
    assert code == 0
    coeffs = dict(line[2:].split("] = ") for line in out.splitlines() if line.startswith("c["))
    assert len(coeffs) == 21
    for key, value in coeffs.items():
        g1, g2 = map(int, key.split(","))
        assert value == (TINY_LAMBDA_COEFFS[g1 + g2] if 0 in (g1, g2) else "0 + 0i"), key


@pytest.mark.parametrize(
    "argv",
    [
        # every stage past 0 is an exact zero, and (e^400 - 1)^2 overflows in
        # the tight, loose and quadrature products
        ("eval", "--fn", "1+0*x", "--lambda", "1", "--x", "400", "--order", "3"),
        # every stage of |g| = 4 is an exact zero, and eps^3 = (e^300 - 1)^3 overflows
        ("nd", "--fn", "1+0*x1", "--dims", "2", "--lambda", "1", "--x", "300,0", "--order", "4", "--grid", "3"),
    ],
    ids=["eval", "nd"],
)
def test_an_exactly_zero_remainder_is_bounded_by_zero(capsys, argv):
    code, out, err = run_main(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    record = json.loads(out)
    if argv[0] == "eval":
        assert record["remainder"] == {"re": 0.0, "im": 0.0}
        assert record["bound_tight"] == record["bound_loose"] == record["abs_error"] == 0.0
    else:
        point = record["point"]
        assert point["remainder"] == {"re": 0.0, "im": 0.0}
        assert point["bound_tight"] == point["bound"] == point["abs_error"] == point["recon_error"] == 0.0


def test_eval_check_passes(capsys):
    p = run_main(
        capsys, "eval", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
        "--x", "0.1", "--order", "6", "--check",
    )
    assert p.returncode == 0
    assert "check" in p.stdout and "pass" in p.stdout


def test_eval_check_failure_exits_3():
    p = run_cli(
        "eval", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
        "--x", "0.3", "--order", "6", "--check", "--check-tol", "1e-30",
    )
    assert p.returncode == 3


def test_eval_domain_error_exits_2():
    # the remainder integrand samples the segment [x0, x] across log's pole
    p = run_cli(
        "eval", "--fn", "log(x)", "--lambda", "1", "--x0", "1", "--x", "-0.5",
    )
    assert p.returncode == 2
    assert "domain error" in p.stderr


@pytest.mark.parametrize(
    "argv, what",
    [
        # the jet of 1/x at 1e-200 overflows from c[2] on
        (("expand", "--fn", "1/x", "--lambda", "1", "--x0", "1e-200", "--order", "4"), "expansion coefficient"),
        # exp(800) overflows a double in the series value
        (("eval", "--fn", "exp(x)", "--lambda", "1", "--x", "800", "--order", "64"), "exp overflows"),
        # (exp(300) - 1)^63 overflows in both remainder bounds
        (("eval", "--fn", "exp(x)", "--lambda", "1", "--x", "300", "--order", "64"), "remainder bound"),
        (("sweep", "--fn", "exp(x)", "--lambda", "1", "--x", "400", "--n-range", "60:64"), "remainder bound"),
        # the bounds at x = 0.9 overflow and the segment to x = -0.1 meets log's
        # cut; one lift holds both segments, so the lift's error is the one printed
        (("sweep", "--fn", "exp(800*x)+log(x)", "--lambda", "1", "--x0", "0.5", "--order", "4",
          "--x-range", "0.9:-0.1:3"), "log"),
        # the jet of 1/x at 1e-200 overflows, and so do its stage values
        (("radius", "--fn", "1/x", "--lambda", "1", "--x0", "1e-200"), "stage value"),
        # sup |exp(z) - 1| over |z| <= 800 overflows a double in the loose bound
        (("eval", "--fn", "x", "--lambda", "1", "--x", "800", "--order", "2"), "remainder bound"),
        # (exp(300) - 1)^3 overflows in the n-D bound; the series overflows too
        (("nd", "--fn", "x1+x2", "--dims", "2", "--lambda", "1", "--x", "300,0", "--order", "4", "--grid", "3"),
         "bound"),
        # the general-lambda scan of |exp(lam z) - 1|^2 overflows, and so does the sup itself
        (("nd", "--fn", "x1+x2", "--dims", "2", "--lambda", "0.3+1i", "--x", "3000,0", "--order", "2",
          "--grid", "3"), "bound"),
    ],
    ids=["expand_nonfinite", "eval_overflow", "eval_remainder_overflow", "sweep_remainder_overflow",
         "sweep_lift_error_after_an_overflow", "radius_nonfinite", "eval_epsilon_overflow",
         "nd_epsilon_power_overflow", "nd_general_lambda_epsilon_overflow"],
)
def test_overflow_exits_2_with_one_line(argv, what):
    p = run_cli(*argv, python_flags=STRICT)
    assert p.returncode == 2
    assert p.stdout == ""
    lines = p.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("domain error:")
    assert what in lines[0]


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (("eval", "--fn", "x", "--lambda", "1", "--x", "1e308", "--x0=-1e308", "--order", "3"), 2,
         "domain error: non-finite remainder bound or integral at x=1e+308, order 3"),
        (("nd", "--fn", "x1+x2", "--dims", "2", "--lambda", "1", "--x0=-1e308,0", "--x", "1e308,0", "--order", "2"),
         2, "domain error: non-finite value in bound"),
        (("sweep", "--fn", "x", "--lambda", "1", "--x0", "0", "--order", "3", "--x-range=-1e308:1e308:3"), 1,
         "error: --x-range needs a finite span hi - lo, got '-1e308:1e308:3'"),
        # a general lambda takes epsilon_sup's grid scan, which an infinite offset once filled with nan
        (("nd", "--fn", "x1+x2", "--dims", "2", "--lambda", "0.3+1i", "--x0=-1e308,0", "--x", "1e308,0",
          "--order", "2"), 2, "domain error: non-finite value in bound"),
    ],
    ids=["eval", "nd", "sweep", "nd_general_lambda"],
)
def test_offset_past_the_largest_double_is_refused_without_a_warning(capsys, argv, code, line):
    # x - x0 overflows a double: the library refuses the bound, and the CLI the sweep's span
    p = run_main(capsys, *argv)
    assert (p.returncode, p.stdout) == (code, "")
    lines = p.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line)


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "--fn", "x", "--lambda", "1", "--x", "0.5", "--grid", "1000000000000001"),
        ("sweep", "--fn", "x", "--lambda", "1", "--x-range", "0:0.1:1000000000000000"),
        ("nd", "--fn", "x1*x2", "--dims", "2", "--lambda", "1", "--x", "0.1,0.1", "--grid", "1000000000000000"),
        ("growth", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--period", "1", "--grid", "1000000000000000"),
    ],
    ids=["eval", "sweep", "nd", "growth"],
)
def test_a_sample_count_past_memory_exits_1_with_one_line(capsys, argv):
    # 10^15 float64 samples are 7.1 PiB, more than any address space: numpy refuses
    # the first array at once, before a byte is written
    p = run_main(capsys, *argv)
    assert (p.returncode, p.stdout) == (1, "")
    lines = p.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: Unable to allocate"), lines


def test_nd_zero_divisor_past_the_first_chunk_exits_2():
    # the divisor vanishes at t = 0.75, sample 1,536 of the segment's 2,049,
    # so only the second chunk of the lift meets it
    p = run_cli(
        "nd", "--fn", "1/(x1-0.75)", "--dims", "3", "--lambda", "1", "--x", "1,1,1", "--grid", "2049",
        python_flags=STRICT,
    )
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr == "domain error: division: argument is zero at a lift point\n"


@pytest.mark.parametrize(
    "case", json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8")), ids=lambda c: c["name"]
)
def test_readme_examples_emit_no_runtime_warning(case):
    p = run_cli(*case["argv"], python_flags=STRICT)
    assert p.returncode == case["exit"]
    assert p.stderr == ""


# ---- sweep ----------------------------------------------------------------------


def test_sweep_x_range_csv(capsys):
    p = run_main(
        capsys, "sweep", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--order", "4",
        "--x-range", "0:0.1:3", "--grid", "33", "--quad-nodes", "16",
    )
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert lines[0] == "x,abs_error,bound_tight,bound_loose"
    assert len(lines) == 4
    first = lines[1].split(",")
    # x = x0 row: truncation error and bounds all vanish
    assert [float(v) for v in first] == [0.0, 0.0, 0.0, 0.0]


def test_sweep_single_step(capsys):
    p = run_main(
        capsys, "sweep", "--fn", "x", "--lambda", TWO_PI_I, "--order", "4",
        "--x-range", "0.05:0.2:1", "--grid", "33", "--quad-nodes", "16",
    )
    lines = p.stdout.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.05")


def test_sweep_negative_lo_equals_form(capsys):
    p = run_main(
        capsys, "sweep", "--fn", "x", "--lambda", TWO_PI_I, "--order", "4",
        "--x-range=-0.1:0.1:3", "--grid", "33", "--quad-nodes", "16",
    )
    assert p.returncode == 0
    assert p.stdout.splitlines()[1].startswith("-0.1")


def test_sweep_n_range(capsys):
    p = run_main(
        capsys, "sweep", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--x", "0.1",
        "--n-range", "2:6", "--grid", "33", "--quad-nodes", "16",
        "--format", "json",
    )
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["sweep"] == "N"
    assert [row["N"] for row in payload["rows"]] == [2, 3, 4, 5, 6]
    errs = [row["abs_error"] for row in payload["rows"]]
    assert errs[-1] < errs[0]


@pytest.mark.parametrize(
    "fn, lam, span",
    [
        ("x", TWO_PI_I, ("--order", "6", "--x-range", "0:0.15:31")),
        ("1/cos(x)+log(2+x)", "1", ("--order", "12", "--x-range=-0.3:0.4:15")),
        ("exp(sin(3*x))/(2+x^2)", "0.3-1.7i", ("--x", "0.2", "--n-range", "1:16")),
    ],
)
def test_sweep_errors_match_eval_series_point_by_point(capsys, fn, lam, span):
    code, out, _ = run_main(capsys, "sweep", "--fn", fn, "--lambda", lam, *span, "--grid", "33", "--format", "json")
    assert code == 0
    ast, lam = parse(fn), parse_complex_literal(lam)
    for row in json.loads(out)["rows"]:
        x, order = (row["x"], int(span[1])) if "--order" in span else (float(span[1]), row["N"])
        e = expand(ast, lam, (0.0,), order)
        true = complex(eval_complex(ast, x))
        # sweep's array Horner and evaluate's scalar one each round within
        # (sqrt(5) + 1)u of the terms' size per multiply-add, order - 1 of them,
        # plus a few u of w to each power: under 10 order u for the two; the
        # subtraction from true and the modulus add 2u of |true| each
        size = float(np.sum(np.abs(e.coeffs) * np.abs(expm1(e.lam * x)) ** np.arange(order)))
        tol = 10 * order * 2.0**-53 * size + 4 * 2.0**-53 * abs(true)
        assert abs(row["abs_error"] - abs(true - evaluate(e, (x,)))) <= tol


def test_sweep_bounds_of_x_against_mpmath_near_x0(capsys):
    # a sweep whose x = -0.0770328 passes dx = 2.0e-7 from x0, where a reference
    # that forms w as exp(z) - 1 cancels to 1e-9.  For f = x and lam = 1, stage
    # N is (-1)^(N-1) (N-1)! at every point and |expm1((1 - s) dx)| peaks at
    # s = 0, so at N = 4 bound_tight is |dx| |expm1(dx)|^3 and bound_loose
    # |dx| expm1(|dx|)^3, with dx from the printed x and x0.  The program's
    # dx = x - x0 rounds once (exactly near x0, by Sterbenz) and enters to the
    # fourth power, with expm1's condition number at most 1.2 here: 4.6u.  Its
    # libm expm1 (or math.expm1) is within 1 ulp = 2u, cubed: 6u; the cube is
    # two products or one pow: 2u; then 1/3!, times |dx|, times the stage and
    # times the sup round once each: 4u.  That is 16.6u to first order.
    mpmath = pytest.importorskip("mpmath")
    u = 2.0**-53
    tol = 17 * u / (1 - 17 * u)
    x0 = -0.077033
    code, out, err = run_main(
        capsys, "sweep", "--fn", "x", "--lambda", "1.0+0.0i", f"--x0={x0!r}", "--order", "4",
        "--x-range=-0.1722:0.145024:161",
    )
    assert code == 0 and err == ""
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()[1:]]
    assert len(rows) == 161 and rows[48][0] == -0.0770328
    with mpmath.workdps(40):
        for x, _, tight, loose in rows:
            dx = mpmath.mpf(x) - mpmath.mpf(x0)
            for got, want in ((tight, abs(dx) * abs(mpmath.expm1(dx)) ** 3), (loose, abs(dx) * mpmath.expm1(abs(dx)) ** 3)):
                assert abs(got - want) <= tol * want, (x, got, want)


def test_sweep_requires_exactly_one_range(capsys):
    both = run_main(
        capsys, "sweep", "--fn", "x", "--lambda", TWO_PI_I,
        "--x-range", "0:1:3", "--n-range", "2:4", "--x", "0.1",
    )
    neither = run_main(capsys, "sweep", "--fn", "x", "--lambda", TWO_PI_I)
    assert both.returncode == 1
    assert neither.returncode == 1


def test_sweep_n_range_needs_x(capsys):
    p = run_main(capsys, "sweep", "--fn", "x", "--lambda", TWO_PI_I, "--n-range", "2:4")
    assert p.returncode == 1
    assert "error" in p.stderr


# ---- radius and growth ------------------------------------------------------------


def test_radius_json(capsys):
    p = run_main(
        capsys, "radius", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--format", "json",
    )
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["stable"] is True
    assert payload["r_estimate"] == pytest.approx(47.0 / 48.0, rel=1e-12)
    assert payload["x_region_halfwidth"] == pytest.approx(1.0 / 6.0, abs=0.01)
    assert payload["ratios"][0]["j"] >= 1


def test_radius_real_lambda_has_null_halfwidth(capsys):
    p = run_main(
        capsys, "radius", "--fn", "1/(2+x)", "--lambda", "1", "--x0", "0.3",
        "--j-max", "24", "--window", "4", "--format", "json",
    )
    payload = json.loads(p.stdout)
    assert payload["x_region_halfwidth"] is None


def test_radius_terminating_series_exits_1(capsys):
    p = run_main(capsys, "radius", "--fn", "exp(x)", "--lambda", "1", "--j-max", "24")
    assert p.returncode == 1
    assert "error" in p.stderr


def test_radius_window_must_be_below_j_max(capsys):
    # ratios run over 1 <= j < j_max, so a window of j_max can never fill;
    # cos(2*pi*x) does not terminate and must not be reported as if it did
    message = "need 4 <= window < j_max <= 64, got window=8, j_max=8"
    with pytest.raises(ValidationError) as info:
        radius_estimate(parse("cos(2*pi*x)"), 2j * math.pi, 0.0, j_max=8, window=8)
    assert str(info.value) == message
    p = run_main(capsys, "radius", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--j-max", "8", "--window", "8")
    assert p.returncode == 1
    assert p.stdout == ""
    lines = p.stderr.splitlines()
    assert len(lines) == 1
    assert "window" in lines[0] and "j_max" in lines[0]
    assert "terminate" not in lines[0]


def test_radius_csv(capsys):
    p = run_main(
        capsys, "radius", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
        "--j-max", "16", "--window", "4", "--format", "csv",
    )
    lines = p.stdout.splitlines()
    assert lines[0] == "j,ratio"
    assert len(lines) > 4


def test_growth_json(capsys):
    p = run_main(
        capsys, "growth", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
        "--n-max", "8", "--grid", "65", "--format", "json",
    )
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["k_fit"] == 0
    assert payload["c0"] == pytest.approx(0.5, rel=1e-9)
    assert payload["periodic_input"] is True
    assert payload["envelope_bounded"] is True
    assert len(payload["sup"]) == 8


# ---- nd -------------------------------------------------------------------------------


def test_nd_json_with_point(capsys):
    p = run_main(
        capsys, "nd", "--fn", "x1*x2", "--dims", "2", "--lambda", TWO_PI_I,
        "--x", "0.05,0.05", "--order", "4", "--grid", "9", "--format", "json",
    )
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["dims"] == 2
    assert payload["center"] == [0.0, 0.0]
    coeffs = {tuple(c["index"]): complex(c["re"], c["im"]) for c in payload["coeffs"]}
    assert coeffs[(1, 1)] == pytest.approx(-1.0 / (4 * math.pi**2), rel=1e-12)
    point = payload["point"]
    assert point["x"] == [0.05, 0.05]
    assert list(point) == [
        "x", "series", "true", "abs_error", "remainder", "bound_tight", "bound", "recon_error"
    ]
    assert point["abs_error"] <= 1.02 * point["bound_tight"] <= 1.02 * point["bound"]
    assert point["recon_error"] <= 1e-15


def test_nd_in_one_variable_prints_the_expand_coefficients(capsys):
    # one expansion for every n: nd --dims 1 lifts the 1-D jet, as expand does, so the digits agree
    args = ("--fn", "exp(sin(x))", "--lambda", "1", "--x0=0.17", "--order", "9", "--format", "json")
    nd, ex = run_main(capsys, "nd", "--dims", "1", *args), run_main(capsys, "expand", *args)
    assert nd.returncode == ex.returncode == 0
    assert [([c["index"]], c["re"], c["im"]) for c in json.loads(ex.stdout)["coeffs"]] == [
        (c["index"], c["re"], c["im"]) for c in json.loads(nd.stdout)["coeffs"]
    ]


def test_nd_in_one_variable_takes_the_expand_order_cap_and_the_bound_keeps_its_own(capsys):
    args = ("--fn", "exp(sin(x))", "--lambda", "1", "--order", "20", "--format", "json")
    nd, ex = run_main(capsys, "nd", "--dims", "1", *args), run_main(capsys, "expand", *args)
    assert nd.returncode == ex.returncode == 0
    assert [c["re"] for c in json.loads(nd.stdout)["coeffs"]] == [c["re"] for c in json.loads(ex.stdout)["coeffs"]]
    p = run_main(capsys, "nd", "--dims", "1", *args, "--x", "0.1")
    assert (p.returncode, p.stdout, p.stderr) == (1, "", "error: order must be an integer in [1, 16], got 20\n")


def test_nd_seed_is_accepted_and_has_no_effect(capsys):
    argv = ("nd", "--fn", "1/(4+x1+x2+x3+x4)", "--dims", "4", "--lambda", "1", "--x", "0.1,0.2,-0.1,0.05",
            "--order", "5", "--grid", "9")
    plain = run_main(capsys, *argv)
    seeded = run_main(capsys, *argv, "--seed", "5")
    assert plain.returncode == seeded.returncode == 0
    assert plain.stdout == seeded.stdout


def test_nd_csv_header(capsys):
    p = run_main(
        capsys, "nd", "--fn", "x1+x2", "--dims", "2", "--lambda", TWO_PI_I,
        "--order", "3", "--format", "csv",
    )
    lines = p.stdout.splitlines()
    assert lines[0] == "index,re,im"
    assert lines[1].startswith("0 0,")


def test_nd_unknown_variable_exits_1(capsys):
    p = run_main(capsys, "nd", "--fn", "x1*x3", "--dims", "2", "--lambda", TWO_PI_I)
    assert p.returncode == 1
    assert "error" in p.stderr


def test_nd_bad_point_length_exits_1(capsys):
    p = run_main(
        capsys, "nd", "--fn", "x1*x2", "--dims", "2", "--lambda", TWO_PI_I, "--x", "0.1",
    )
    assert p.returncode == 1


# ---- identities -----------------------------------------------------------------------


def test_identities_subset(capsys):
    p = run_main(capsys, "identities", "--suite", "log_k2_J60,cosine_x0.1_J60")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 2
    assert lines[-1] == "2 passed, 0 failed"


def test_identities_json_rows_match_run_suite(capsys):
    names = ["log_k2_J60", "stirling_k2_weighted_J60"]
    p = run_main(capsys, "identities", "--suite", ",".join(names), "--format", "json")
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    results = run_suite(names=names)
    assert len(payload) == 2
    for row, r in zip(payload, results):
        assert row["name"] == r.name
        assert row["computed"]["re"] == r.computed.real
        assert row["target"]["re"] == r.target.real
        assert row["passed"] is True
    assert payload[1]["variant"] == "signed"


def test_identities_text_line_format(capsys):
    p = run_main(capsys, "identities", "--suite", "log_k2_J60")
    lines = p.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("PASS")
    assert "log(k=2, J=60)" in lines[0]
    assert lines[1] == "1 passed, 0 failed"


def test_identities_csv_header(capsys):
    p = run_main(capsys, "identities", "--suite", "log_k2_J60", "--format", "csv")
    lines = p.stdout.splitlines()
    assert lines[0] == (
        "name,computed_re,computed_im,target_re,target_im,"
        "terms_used,tolerance,abs_error,passed,variant"
    )
    assert len(lines) == 2


def test_identities_override_failure_exits_3(capsys):
    p = run_main(
        capsys, "identities", "--suite", "log_k2_J60", "--tol-override", "log_k2_J60=1e-30",
    )
    assert p.returncode == 3
    assert "FAIL" in p.stdout


def test_identities_unknown_name_exits_1(capsys):
    p = run_main(capsys, "identities", "--suite", "nope")
    assert p.returncode == 1


def test_identities_bad_override_exits_1(capsys):
    p = run_main(capsys, "identities", "--tol-override", "log_k2_J60")
    assert p.returncode == 1


# ---- usage and determinism ---------------------------------------------------------------


def test_no_subcommand_exits_1():
    p = run_cli()
    assert p.returncode == 1


def test_missing_required_flag_exits_1(capsys):
    p = run_main(capsys, "expand", "--lambda", TWO_PI_I)
    assert p.returncode == 1
    assert "usage" in p.stderr


def test_bad_expression_exits_1(capsys):
    p = run_main(capsys, "expand", "--fn", "cos(", "--lambda", TWO_PI_I)
    assert p.returncode == 1
    assert "error" in p.stderr


def test_bad_lambda_exits_1(capsys):
    p = run_main(capsys, "expand", "--fn", "x", "--lambda", "nope")
    assert p.returncode == 1


# every subcommand that takes --lambda, with a lambda that starts with a minus
NEGATIVE_LAMBDA_CASES = {
    "expand": ("expand", "--fn", "cos(x)", "--order", "6"),
    "eval": ("eval", "--fn", "cos(x)", "--x", "0.1", "--order", "6", "--grid", "65",
             "--quad-nodes", "32"),
    "sweep": ("sweep", "--fn", "cos(x)", "--order", "4", "--x-range", "0:0.1:3",
              "--grid", "33", "--quad-nodes", "16"),
    "radius": ("radius", "--fn", "cos(x)", "--j-max", "16", "--window", "4"),
    "growth": ("growth", "--fn", "cos(x)", "--n-max", "6", "--grid", "65"),
    "nd": ("nd", "--fn", "cos(x1)*x2", "--dims", "2", "--order", "4"),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_LAMBDA_CASES))
def test_lambda_with_leading_minus_as_separate_token(capsys, name):
    argv = NEGATIVE_LAMBDA_CASES[name]
    joined = run_main(capsys, *argv, "--lambda=-2-0.5i")
    separate = run_main(capsys, *argv, "--lambda", "-2-0.5i")
    assert joined.returncode == 0, joined.stderr
    assert separate.returncode == 0, separate.stderr
    assert separate.stdout
    assert separate.stdout == joined.stdout


def test_lambda_missing_value_still_exits_1(capsys):
    # a following flag is not taken as the value
    p = run_main(capsys, "expand", "--fn", "x", "--lambda", "--order", "4")
    assert p.returncode == 1
    assert "--lambda" in p.stderr


# an option value that starts with "-", as its own token and in the "=" form
LEADING_MINUS_CASES = {
    "eval_x": (("eval", "--fn", "cos(x)", "--lambda", "1", "--order", "4", "--grid", "9",
                "--quad-nodes", "8"), "--x", "-1e-2"),
    "eval_x0": (("eval", "--fn", "cos(x)", "--lambda", "1", "--x", "0", "--order", "4", "--grid", "9",
                 "--quad-nodes", "8"), "--x0", "-1e-3"),
    "expand_x0": (("expand", "--fn", "cos(x)", "--lambda", "1", "--order", "4"), "--x0", "-1e-3"),
    "expand_fn": (("expand", "--lambda", "1", "--order", "4"), "--fn", "-x"),
    "sweep_x_range": (("sweep", "--fn", "x", "--lambda", "1", "--order", "4", "--grid", "9",
                       "--quad-nodes", "8"), "--x-range", "-0.1:0.1:3"),
    "radius_x0": (("radius", "--fn", "1/(2+x)", "--lambda", "0+6.283185307179586i", "--j-max", "16",
                   "--window", "4"), "--x0", "-0.25"),
    "nd_x0": (("nd", "--fn", "cos(x1)*x2", "--dims", "2", "--lambda", "1", "--order", "4"), "--x0", "-0.1,0"),
    "nd_x": (("nd", "--fn", "cos(x1)*x2", "--dims", "2", "--lambda", "1", "--order", "4", "--grid", "5"),
             "--x", "-0.1,0"),
}


@pytest.mark.parametrize("name", sorted(LEADING_MINUS_CASES))
def test_option_value_with_leading_minus_as_separate_token(capsys, name):
    argv, flag, value = LEADING_MINUS_CASES[name]
    joined = run_main(capsys, *argv, f"{flag}={value}")
    separate = run_main(capsys, *argv, flag, value)
    assert joined[0] == 0, joined[2]
    assert separate[1]
    assert separate == joined


def test_option_followed_by_an_option_still_misses_its_value(capsys):
    p = run_main(capsys, "expand", "--fn", "--lambda", "1")
    assert p.returncode == 1
    assert "--fn" in p.stderr


def test_unwritable_out_path_exits_1_with_one_line(capsys, tmp_path):
    target = tmp_path / "missing" / "f.txt"
    code, out, err = run_main(capsys, "expand", "--fn", "x", "--lambda", "1", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: cannot write {target}: No such file or directory"]


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "--fn", "exp(x)", "--lambda", "1", "--period", "nan"),
        ("nd", "--fn", "x1*x2", "--dims", "2", "--lambda", "1", "--x", "nan,0"),
        ("eval", "--fn", "x", "--lambda", "1", "--x", "nan"),
        ("eval", "--fn", "x", "--lambda", "1", "--x", "0.1", "--check", "--check-tol", "nan"),
        ("eval", "--fn", "x", "--lambda", "1", "--x", "0.1", "--check", "--check-tol", "-1"),
        ("expand", "--fn", "x", "--lambda", "infi"),
        ("expand", "--fn", "x", "--lambda", "1", "--x0", "inf"),
        ("identities", "--tol-override", "log_k2_J60=nan"),
        ("identities", "--suite", "log_k2_J60", "--tol-override", "log_k2_J60=-1"),
    ],
    ids=["growth_period_nan", "nd_x_nan", "eval_x_nan", "check_tol_nan", "check_tol_negative",
         "lambda_infinite", "x0_infinite", "override_nan", "override_negative"],
)
def test_non_finite_or_negative_input_exits_1(capsys, argv):
    code, out, err = run_main(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_growth_overflow_exits_2_with_one_line():
    p = run_cli("growth", "--fn", "exp(x)", "--lambda", "1", "--period", "800", python_flags=STRICT)
    assert p.returncode == 2
    assert p.stdout == ""
    lines = p.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("domain error:")


def test_sampled_nd_bound_overflow_exits_2_with_one_line():
    # the expansion at the center is finite; the overflow is on the segment,
    # whose lift and stages once wrote raw RuntimeWarnings
    argv = ("nd", "--fn", "cosh(710*x1)+x2", "--dims", "2", "--lambda", "1", "--x", "1,0", "--order", "3", "--grid", "9")
    p = run_cli(*argv)
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr.splitlines() == ["domain error: non-finite value in bound"]


@pytest.mark.parametrize(
    "fn, what",
    [("exp(800*x)", "exp"), ("2 + cosh(800*x)", "cosh"), ("sin(x) * exp(exp(7*x))", "exp"), ("(1+x)^2000", "power")],
)
def test_overflow_in_the_true_value_names_the_function(fn, what):
    p = run_cli("eval", "--fn", fn, "--lambda", "1", "--x", "1", "--order", "4", python_flags=STRICT)
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr.splitlines() == [f"domain error: {what} overflows at the point (1.0)"]


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_renderer_refuses_non_finite_value(fmt):
    for kind, value in (("float", math.nan), ("float", math.inf), ("complex", complex(1, math.nan)),
                        ("vector", (0.0, math.inf)), ("inf", math.nan)):
        with pytest.raises(DomainError, match="bound"):
            RENDERERS[fmt]([Field("bound", value, kind, csv=True)])
    # only the x_region_halfwidth kind may print inf
    assert "inf" in RENDERERS[fmt]([Field("halfwidth", math.inf, "inf", csv=True)])
    for line in (None, lambda n, c: f"c[{n}]"):
        table = Table((("n", "int"), ("", "complex")), [(0, 1j), (1, complex(math.inf, 0))], line)
        with pytest.raises(DomainError, match="coeffs"):
            RENDERERS[fmt]([Field("coeffs", table, "table")])


def test_non_finite_output_exits_2_naming_the_field(capsys, monkeypatch):
    real = cli.radius_estimate

    def nan_radius(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), r_estimate=math.nan)

    monkeypatch.setattr(cli, "radius_estimate", nan_radius)
    code, out, err = run_main(capsys, "radius", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["domain error: non-finite value in r_estimate"]


@settings(max_examples=25, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_numeric_option_value_reads_the_same_in_either_form(v):
    text = repr(v)
    base = ("eval", "--fn", "x", "--lambda", "1", "--order", "2", "--grid", "3", "--quad-nodes", "2")
    for flag, rest in (("--x", ()), ("--x0", ("--x", "0"))):
        results = []
        for argv in ((*base, *rest, flag, text), (*base, *rest, f"{flag}={text}")):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            results.append((code, out.getvalue(), err.getvalue()))
        assert results[0] == results[1]
        assert results[0][1] or results[0][0] != 0


DETERMINISM_CASES = [
    ("expand", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--order", "6",
     "--format", "json"),
    ("eval", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--x", "0.1",
     "--order", "6", "--grid", "65", "--quad-nodes", "32", "--format", "json"),
    ("sweep", "--fn", "x", "--lambda", TWO_PI_I, "--order", "4",
     "--x-range", "0:0.1:3", "--grid", "33", "--quad-nodes", "16"),
    ("radius", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--j-max", "16",
     "--window", "4", "--format", "json"),
    ("growth", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--n-max", "6",
     "--grid", "65", "--format", "json"),
    ("nd", "--fn", "x1*x2", "--dims", "2", "--lambda", TWO_PI_I,
     "--x", "0.05,0.05", "--order", "4", "--grid", "9", "--seed", "3",
     "--format", "json"),
    ("identities", "--suite", "log_k2_J60,stirling_k1_weighted_J60",
     "--format", "csv"),
]


@pytest.mark.parametrize("argv", DETERMINISM_CASES, ids=lambda a: a[0])
def test_output_is_deterministic(argv):
    a = run_cli(*argv)
    b = run_cli(*argv)
    assert a.returncode == 0
    assert a.returncode == b.returncode
    assert a.stdout == b.stdout
