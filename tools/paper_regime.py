"""Run `gmanova test --diagnostics` at the shape of the paper's application.

The paper applies the test to a two-way MANOVA with thousands of responses
and tens of rows.  This script writes a CSV for the 2 x 3 two-way
interaction with cells of 10 rows and p = --p Gaussian responses, runs

    gmanova test --scenario two-way --levels 2,3 --effect interaction --diagnostics

on it in a child process, and prints the child's wall time and maximum
resident set size.  It exits 1 when the child exits non-zero or its maximum
resident set size exceeds --max-rss-mb.

Run from the repository root:

    PYTHONPATH=src python tools/paper_regime.py --p 2000 --max-rss-mb 700
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

CELLS, ROWS = 6, 10  # 2 x 3 levels, rows per cell


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=int, default=2000)
    parser.add_argument("--max-rss-mb", type=float, default=700.0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        data, report = Path(tmp) / "data.csv", Path(tmp) / "report.json"
        X = np.random.default_rng(0).standard_normal((CELLS * ROWS, args.p))
        labels = np.repeat([f"cell{i}" for i in range(CELLS)], ROWS)
        with data.open("w", encoding="utf-8") as fh:
            for label, row in zip(labels, X):
                fh.write(label + "," + ",".join(map(repr, row.tolist())) + "\n")
        argv = ["test", "--data", str(data), "--scenario", "two-way", "--levels", "2,3",
                "--effect", "interaction", "--diagnostics", "--out", str(report)]
        code = ("import sys; from gmanova.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code, *argv])
        wall = time.perf_counter() - start
        max_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        a2_ratio = (json.loads(report.read_text())["diagnostics"]["a2_ratio"]
                    if child.returncode == 0 else None)

    print(f"p={args.p}, cells of {ROWS}: exit {child.returncode}, {wall:.2f} s, "
          f"max RSS {max_rss_mb:.0f} MB (limit {args.max_rss_mb:g}), a2_ratio {a2_ratio}")
    return 0 if child.returncode == 0 and max_rss_mb <= args.max_rss_mb else 1


if __name__ == "__main__":
    sys.exit(main())
