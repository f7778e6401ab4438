"""README examples: stdout and exit code pinned byte for byte.

``golden/cases.json`` lists each example's argv and exit code;
``golden/<name>.stdout`` holds the bytes it printed when the outputs were
pinned.  A change that alters one of them on purpose is a stated
correctness fix and replaces the file in the same change.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from exptaylor import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_readme_example_output_is_pinned(capsys, case):
    # through cli.main in this process; the test below runs the real process
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert err == ""
    want = (GOLDEN / f"{case['name']}.stdout").read_bytes()
    # lines first, so that a failure names the line that changed
    assert out.splitlines() == want.decode("utf-8").splitlines()
    assert out.encode("utf-8") == want


# one case per output format, through ``python -m exptaylor``
PROCESS_CASES = ("eval_check", "nd_json", "sweep_x")


def test_readme_examples_print_the_same_bytes_from_a_process():
    by_name = {case["name"]: case for case in CASES}
    for name in PROCESS_CASES:
        case = by_name[name]
        p = subprocess.run(
            [sys.executable, "-m", "exptaylor", *case["argv"]],
            capture_output=True,
            timeout=120,
        )
        assert p.returncode == case["exit"], name
        assert p.stderr == b"", name
        assert p.stdout == (GOLDEN / f"{name}.stdout").read_bytes(), name


def test_readme_examples_repeat_in_one_process(capsys):
    # every case twice through one process's cli.main: state that one call
    # leaves behind (the cached Stirling and quadrature tables) must not
    # change what a later call prints
    for _ in range(2):
        for case in CASES:
            code = cli.main(case["argv"])
            out, _err = capsys.readouterr()
            assert code == case["exit"], case["name"]
            want = (GOLDEN / f"{case['name']}.stdout").read_bytes()
            assert out.splitlines() == want.decode("utf-8").splitlines(), case["name"]
            assert out.encode("utf-8") == want, case["name"]
