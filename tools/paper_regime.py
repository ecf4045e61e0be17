"""Run `gmanova test` at the shape of the paper's application.

The paper applies the test to a two-way MANOVA with thousands of responses
and tens of rows.  This script writes a CSV of six groups of 10 rows and
p = --p Gaussian responses, runs `gmanova test` on it in a child process,
and prints the child's wall time and maximum resident set size.  The
--scenario picks the design read from the six groups:

    two-way  --scenario two-way --levels 2,3 --effect interaction (default)
    one-way  --scenario one-way
    profile  --scenario profile-parallelism

and --no-diagnostics drops `--diagnostics` from the call.  It exits 1 when
the child exits non-zero or its maximum resident set size exceeds
--max-rss-mb.

Run from the repository root:

    PYTHONPATH=src python tools/paper_regime.py --p 2000 --max-rss-mb 700
    PYTHONPATH=src python tools/paper_regime.py --scenario one-way --p 20000 \\
        --no-diagnostics --max-rss-mb 300
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

CELLS, ROWS = 6, 10  # groups (2 x 3 cells for two-way), rows per group
SCENARIOS = {
    "two-way": ["--scenario", "two-way", "--levels", "2,3", "--effect", "interaction"],
    "one-way": ["--scenario", "one-way"],
    "profile": ["--scenario", "profile-parallelism"],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2000)
    parser.add_argument("--scenario", choices=SCENARIOS, default="two-way")
    parser.add_argument("--diagnostics", action=argparse.BooleanOptionalAction, default=True)
    parser.add_argument("--max-rss-mb", type=float, default=700.0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        data, report = Path(tmp) / "data.csv", Path(tmp) / "report.json"
        X = np.random.default_rng(0).standard_normal((CELLS * ROWS, args.p))
        labels = np.repeat([f"cell{i}" for i in range(CELLS)], ROWS)
        with data.open("w", encoding="utf-8") as fh:
            for label, row in zip(labels, X):
                fh.write(label + "," + ",".join(map(repr, row.tolist())) + "\n")
        argv = ["test", "--data", str(data), *SCENARIOS[args.scenario], "--out", str(report)]
        if args.diagnostics:
            argv.append("--diagnostics")
        code = ("import sys; from gmanova.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code, *argv])
        wall = time.perf_counter() - start
        max_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result = json.loads(report.read_text()) if child.returncode == 0 else {}

    a2_ratio = (result.get("diagnostics") or {}).get("a2_ratio")
    print(f"{args.scenario}, p={args.p}, {CELLS} groups of {ROWS}: exit {child.returncode}, "
          f"{wall:.2f} s, max RSS {max_rss_mb:.0f} MB (limit {args.max_rss_mb:g}), "
          f"z {result.get('z')}, a2_ratio {a2_ratio}")
    return 0 if child.returncode == 0 and max_rss_mb <= args.max_rss_mb else 1


if __name__ == "__main__":
    sys.exit(main())
