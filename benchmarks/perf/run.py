"""The PR driver's entry point (the command in BENCHMARK.json):

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

is ``python3 -m benchmarks.perf measure`` with the same arguments.
"""

import sys
from pathlib import Path

# the script's own directory leads sys.path, where its modules would be
# importable by bare names like ``compare``; the repo root replaces it
sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.perf.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["measure", *sys.argv[1:]]))
