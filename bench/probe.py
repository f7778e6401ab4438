"""Cold-process probe: import the CLI in a fresh interpreter and run one op.

Usage: ``python -I probe.py SRC LAUNCHED FD ARGV_JSON``.  ``LAUNCHED`` is the
parent's ``perf_counter`` just before it started this process; the clock
is system-wide, so ``setup_s`` spans interpreter start-up and every import
up to ``exptaylor.cli``.  The timings go back through file descriptor
``FD``; the op's own output goes to stdout, which the parent discards.
"""

import json
import os
import sys
from time import perf_counter


def main() -> None:
    src, launched, fd, argv = sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), json.loads(sys.argv[4])
    sys.path.insert(0, src)
    from exptaylor import cli

    imported = perf_counter()
    code = cli.main(argv)
    done = perf_counter()
    report = {"setup_s": imported - launched, "cold_op_s": done - imported, "code": code}
    with os.fdopen(fd, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
