"""End-to-end CLI tests run through ``python -m exptaylor``."""

import json
import math
import subprocess
import sys

import pytest

from exptaylor.cli import parse_complex_literal
from exptaylor.errors import ValidationError

TWO_PI_I = "0+6.283185307179586i"


def run_cli(*argv, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "exptaylor", *argv],
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


@pytest.mark.parametrize("text", ["", "foo", "1+2j", "i2", "1++2i"])
def test_parse_complex_literal_rejects(text):
    with pytest.raises(ValidationError):
        parse_complex_literal(text)


# ---- expand ---------------------------------------------------------------------


def test_expand_json_schema():
    p = run_cli(
        "expand", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
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


def test_expand_csv_round_trips_to_json_values():
    args = ("expand", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--order", "6")
    js = json.loads(run_cli(*args, "--format", "json").stdout)
    csv_out = run_cli(*args, "--format", "csv").stdout.splitlines()
    assert csv_out[0] == "index,re,im"
    assert len(csv_out) == 7
    for line, ref in zip(csv_out[1:], js["coeffs"]):
        idx, re, im = line.split(",")
        # 17 significant digits recover the exact double
        assert int(idx) == ref["index"]
        assert float(re) == ref["re"]
        assert float(im) == ref["im"]


def test_expand_text_output():
    p = run_cli("expand", "--fn", "x", "--lambda", TWO_PI_I, "--order", "3")
    assert p.returncode == 0
    assert "c[0]" in p.stdout and "c[2]" in p.stdout
    assert "lambda" in p.stdout


def test_expand_out_file(tmp_path):
    target = tmp_path / "coeffs.csv"
    args = (
        "expand", "--fn", "x", "--lambda", TWO_PI_I,
        "--order", "4", "--format", "csv",
    )
    direct = run_cli(*args)
    p = run_cli(*args, "--out", str(target))
    assert p.returncode == 0
    assert p.stdout == ""
    assert target.read_text() == direct.stdout


# ---- eval -----------------------------------------------------------------------


def test_eval_json_reconstruction():
    p = run_cli(
        "eval", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
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


def test_eval_at_expansion_point_is_exact():
    p = run_cli(
        "eval", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
        "--x", "0", "--order", "6", "--format", "json",
    )
    payload = json.loads(p.stdout)
    assert payload["abs_error"] == 0.0
    assert payload["remainder"] == {"re": 0.0, "im": 0.0}
    assert payload["bound_tight"] == 0.0


def test_eval_check_passes():
    p = run_cli(
        "eval", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
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
    "argv",
    [
        # the jet of 1/x at 1e-200 overflows from c[2] on
        ("expand", "--fn", "1/x", "--lambda", "1", "--x0", "1e-200", "--order", "4"),
        # exp(800) overflows a double in the series value
        ("eval", "--fn", "exp(x)", "--lambda", "1", "--x", "800", "--order", "64"),
    ],
    ids=["expand_nonfinite", "eval_overflow"],
)
def test_overflow_exits_2_with_one_line(argv):
    p = run_cli(*argv)
    assert p.returncode == 2
    assert p.stdout == ""
    lines = p.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("domain error:")


# ---- sweep ----------------------------------------------------------------------


def test_sweep_x_range_csv():
    p = run_cli(
        "sweep", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--order", "4",
        "--x-range", "0:0.1:3", "--grid", "33", "--quad-nodes", "16",
    )
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert lines[0] == "x,abs_error,bound_tight,bound_loose"
    assert len(lines) == 4
    first = lines[1].split(",")
    # x = x0 row: truncation error and bounds all vanish
    assert [float(v) for v in first] == [0.0, 0.0, 0.0, 0.0]


def test_sweep_single_step():
    p = run_cli(
        "sweep", "--fn", "x", "--lambda", TWO_PI_I, "--order", "4",
        "--x-range", "0.05:0.2:1", "--grid", "33", "--quad-nodes", "16",
    )
    lines = p.stdout.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.05")


def test_sweep_negative_lo_equals_form():
    p = run_cli(
        "sweep", "--fn", "x", "--lambda", TWO_PI_I, "--order", "4",
        "--x-range=-0.1:0.1:3", "--grid", "33", "--quad-nodes", "16",
    )
    assert p.returncode == 0
    assert p.stdout.splitlines()[1].startswith("-0.1")


def test_sweep_n_range():
    p = run_cli(
        "sweep", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--x", "0.1",
        "--n-range", "2:6", "--grid", "33", "--quad-nodes", "16",
        "--format", "json",
    )
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["sweep"] == "N"
    assert [row["N"] for row in payload["rows"]] == [2, 3, 4, 5, 6]
    errs = [row["abs_error"] for row in payload["rows"]]
    assert errs[-1] < errs[0]


def test_sweep_requires_exactly_one_range():
    both = run_cli(
        "sweep", "--fn", "x", "--lambda", TWO_PI_I,
        "--x-range", "0:1:3", "--n-range", "2:4", "--x", "0.1",
    )
    neither = run_cli("sweep", "--fn", "x", "--lambda", TWO_PI_I)
    assert both.returncode == 1
    assert neither.returncode == 1


def test_sweep_n_range_needs_x():
    p = run_cli("sweep", "--fn", "x", "--lambda", TWO_PI_I, "--n-range", "2:4")
    assert p.returncode == 1
    assert "error" in p.stderr


# ---- radius and growth ------------------------------------------------------------


def test_radius_json():
    p = run_cli(
        "radius", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I, "--format", "json",
    )
    assert p.returncode == 0
    payload = json.loads(p.stdout)
    assert payload["stable"] is True
    assert payload["r_estimate"] == pytest.approx(47.0 / 48.0, rel=1e-12)
    assert payload["x_region_halfwidth"] == pytest.approx(1.0 / 6.0, abs=0.01)
    assert payload["ratios"][0]["j"] >= 1


def test_radius_real_lambda_has_null_halfwidth():
    p = run_cli(
        "radius", "--fn", "1/(2+x)", "--lambda", "1", "--x0", "0.3",
        "--j-max", "24", "--window", "4", "--format", "json",
    )
    payload = json.loads(p.stdout)
    assert payload["x_region_halfwidth"] is None


def test_radius_terminating_series_exits_1():
    p = run_cli("radius", "--fn", "exp(x)", "--lambda", "1", "--j-max", "24")
    assert p.returncode == 1
    assert "error" in p.stderr


def test_radius_csv():
    p = run_cli(
        "radius", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
        "--j-max", "16", "--window", "4", "--format", "csv",
    )
    lines = p.stdout.splitlines()
    assert lines[0] == "j,ratio"
    assert len(lines) > 4


def test_growth_json():
    p = run_cli(
        "growth", "--fn", "cos(2*pi*x)", "--lambda", TWO_PI_I,
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


def test_nd_json_with_point():
    p = run_cli(
        "nd", "--fn", "x1*x2", "--dims", "2", "--lambda", TWO_PI_I,
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
    assert point["abs_error"] <= 1.02 * point["bound"]


def test_nd_csv_header():
    p = run_cli(
        "nd", "--fn", "x1+x2", "--dims", "2", "--lambda", TWO_PI_I,
        "--order", "3", "--format", "csv",
    )
    lines = p.stdout.splitlines()
    assert lines[0] == "index,re,im"
    assert lines[1].startswith("0 0,")


def test_nd_unknown_variable_exits_1():
    p = run_cli("nd", "--fn", "x1*x3", "--dims", "2", "--lambda", TWO_PI_I)
    assert p.returncode == 1
    assert "error" in p.stderr


def test_nd_bad_point_length_exits_1():
    p = run_cli(
        "nd", "--fn", "x1*x2", "--dims", "2", "--lambda", TWO_PI_I, "--x", "0.1",
    )
    assert p.returncode == 1


# ---- identities -----------------------------------------------------------------------


def test_identities_subset():
    p = run_cli("identities", "--suite", "log_k2_J60,cosine_x0.1_J60")
    assert p.returncode == 0
    lines = p.stdout.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 2
    assert lines[-1] == "2 passed, 0 failed"


def test_identities_csv_header():
    p = run_cli("identities", "--suite", "log_k2_J60", "--format", "csv")
    lines = p.stdout.splitlines()
    assert lines[0] == (
        "name,computed_re,computed_im,target_re,target_im,"
        "terms_used,tolerance,abs_error,passed,variant"
    )
    assert len(lines) == 2


def test_identities_override_failure_exits_3():
    p = run_cli(
        "identities", "--suite", "log_k2_J60", "--tol-override", "log_k2_J60=1e-30",
    )
    assert p.returncode == 3
    assert "FAIL" in p.stdout


def test_identities_unknown_name_exits_1():
    p = run_cli("identities", "--suite", "nope")
    assert p.returncode == 1


def test_identities_bad_override_exits_1():
    p = run_cli("identities", "--tol-override", "log_k2_J60")
    assert p.returncode == 1


# ---- usage and determinism ---------------------------------------------------------------


def test_no_subcommand_exits_1():
    p = run_cli()
    assert p.returncode == 1


def test_missing_required_flag_exits_1():
    p = run_cli("expand", "--lambda", TWO_PI_I)
    assert p.returncode == 1
    assert "usage" in p.stderr


def test_bad_expression_exits_1():
    p = run_cli("expand", "--fn", "cos(", "--lambda", TWO_PI_I)
    assert p.returncode == 1
    assert "error" in p.stderr


def test_bad_lambda_exits_1():
    p = run_cli("expand", "--fn", "x", "--lambda", "nope")
    assert p.returncode == 1


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
