#!/usr/bin/env python3
"""rngts benchmark: `rngts run` end to end, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload catalog|screen --seed N \\
        --seconds S --trace 0|1 [--smoke] [--reference PATH]

--trace 0 launches `python -m rngts.cli run` as a child process, one at a
time (closed loop, one client), as many times as fit in S seconds (at
least once), and reports the end-to-end metrics as medians over those
invocations.  Set-up time is the median of several fresh interpreters
that import rngts.cli and load the manifest without running a cell.

--trace 1 runs the same manifest in-process through rngts.cli.main with
spans around each layer's public calls (see spans.py) and reports the
per-layer metrics.  It also runs the manifest with only cell timers, at
--jobs 1 and --jobs 2, and times each engine on its own.

Every report is compared cell by cell with reference.json.  The last
line of standard output is the JSON result; the line before it starts
with "record " and carries the environment and the raw samples, which
compare.py reads.  The exit status is 1 when any cell differs from the
reference and 2 when the checkout holds no rngts sources.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog", "screen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the benchmark's tests")
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference digests (default: reference.json)")
    return parser.parse_args(argv)


def import_rngts() -> None:
    """Import rngts from this checkout's src/, and from nowhere else."""
    if not (SRC / "rngts" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rngts sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import rngts
    if SRC.resolve() not in Path(rngts.__file__).resolve().parents:
        sys.stderr.write(f"error: rngts imported from {rngts.__file__}\n")
        raise SystemExit(2)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_rngts()
    import harness
    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
