"""Cycle-exactness check against the golden figure2 --quick capture.

Usage::

    PYTHONPATH=src python tools/check_parity.py [N_CELLS]
    PYTHONPATH=src python tools/check_parity.py --json EXPORT.json

The first form re-runs a sample of golden cells through run_bar and
diffs every exported field (used while developing hot-path
optimizations; the committed regression test is
tests/test_golden_parity.py).  The second form diffs a
``harness figure2 --quick --json`` export — every golden cell, every
field but ``normalized`` — which is how CI checks that each execution
mode (sanitize, observe, trace, backend, policy) replays the golden
grid digit-exact.  Exit status 0 on identical results.
"""

import argparse
import json
import sys
import time

from repro.harness.export import _BAR_FIELDS
from repro.harness.runner import bar_config, run_bar

GOLDEN = "results/golden/figure2_quick.json"
QUICK_INSTRUCTIONS = 7500
QUICK_WARMUP = 3750


def _cell(row):
    return f"{row['benchmark']}/{row['machine']}/{row['label']}"


def check_export(path: str) -> int:
    """Diff a figure2 --quick --json export against the golden capture."""
    golden = json.load(open(GOLDEN))["bars"]
    got = {_cell(row): row for row in json.load(open(path))["bars"]}
    bad = 0
    for row in golden:
        cell = got.get(_cell(row))
        if cell is None:
            bad += 1
            print(f"MISSING {_cell(row)}")
            continue
        for field, value in row.items():
            if field != "normalized" and cell.get(field) != value:
                bad += 1
                print(f"MISMATCH {_cell(row)} {field}: got "
                      f"{cell.get(field)!r} want {value!r}")
    print(f"{len(golden)} cells checked, {bad} mismatches")
    return 1 if bad else 0


def check_sample(n: int) -> int:
    """Re-simulate *n* golden cells and diff them."""
    rows = json.load(open(GOLDEN))["bars"]
    sample = rows[:: max(1, len(rows) // n)][:n] if n < len(rows) else rows
    bad = 0
    t0 = time.perf_counter()
    for row in sample:
        result = run_bar(row["benchmark"], row["machine"],
                         bar_config(row["label"]),
                         QUICK_INSTRUCTIONS, QUICK_WARMUP)
        for field in _BAR_FIELDS:
            if field == "normalized":
                continue
            got = getattr(result, field)
            if got != row[field]:
                bad += 1
                print(f"MISMATCH {_cell(row)} {field}: got {got!r} "
                      f"want {row[field]!r}")
                break
    wall = time.perf_counter() - t0
    print(f"{len(sample)} cells, {bad} mismatches, {wall:.2f}s "
          f"({wall / len(sample):.3f}s/cell)")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cells", nargs="?", type=int, default=10,
                        help="golden cells to re-simulate (default 10)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="diff this figure2 --quick --json export "
                             "instead of re-simulating")
    args = parser.parse_args(argv)
    if args.json:
        return check_export(args.json)
    return check_sample(args.cells)


if __name__ == "__main__":
    sys.exit(main())
