"""Run one workload of the benchmark suite (see ``BENCHMARK.json``).

Usage, from the repository root::

    python3 benchmarks/suite/bench.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is the run's JSON result. The script
needs the program's sources next to it (``src/repro``) and exits with
code 2 without a result when they are missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench.py: no program sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    # The script's own directory must not shadow standard modules
    # (this package has a trace.py).
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.suite.cli import run_one

    sys.exit(run_one(sys.argv[1:]))
