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

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_readme_example_output_is_pinned(case):
    p = subprocess.run(
        [sys.executable, "-m", "exptaylor", *case["argv"]],
        capture_output=True,
        timeout=120,
    )
    assert p.returncode == case["exit"]
    assert p.stderr == b""
    assert p.stdout == (GOLDEN / f"{case['name']}.stdout").read_bytes()
