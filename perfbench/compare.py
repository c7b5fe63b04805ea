"""Compare two sets of benchmark results (parent vs change).

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds result files written by ``run.py`` (by default
under ``.bench_build/perfbench/results``).  For every workload and
end-to-end metric it prints each side's median and quartiles, and
whether the head is worse than the base by more than the metric's
bound in ``BENCHMARK.json``.  A run whose output checks failed, and a
workload or metric that one side has and the other lacks, count as
worse.  Results whose environment fingerprints differ
in CPU count, BLAS, Python or numpy are never put side by side: the
comparison is refused with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

#: fingerprint fields that must match for two results to be comparable
MUST_MATCH = ("cpus", "blas", "python", "numpy")


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (load(Path(a)) for a in argv)
    if not base or not head:
        print("compare: a side has no result files", file=sys.stderr)
        return 2
    prints = {json.dumps({k: r["fingerprint"][k] for k in MUST_MATCH},
                         sort_keys=True) for r in base + head}
    if len(prints) > 1:
        print("compare: refusing to compare results from different "
              "environments:\n  " + "\n  ".join(sorted(prints)),
              file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    worse = 0
    for side, results in (("base", base), ("head", head)):
        for r in results:
            if not r["correct"]:
                worse += 1
                print(f"{r['workload']:<22} seed {r['seed']} failed its "
                      f"output checks on the {side} side: {r['error']}  "
                      f"WORSE")
    results_of = [[r for r in results if r["correct"]]
                  for results in (base, head)]
    for wl in sorted({r["workload"] for r in base + head if not r["trace"]}):
        for m in spec["end_to_end"]:
            sides = []
            for results in results_of:
                vals = [r["metrics"][m["name"]]["value"] for r in results
                        if r["workload"] == wl and not r["trace"]
                        and m["name"] in r["metrics"]]
                sides.append(spread(vals) if vals else None)
            if None in sides:
                worse += 1
                missing = "base" if sides[0] is None else "head"
                print(f"{wl:<22} {m['name']:<16} no results on the "
                      f"{missing} side  WORSE")
                continue
            (_, b, _), (_, h, _) = sides
            change = (h - b) / b if b else 0.0
            bad = change > m["bound"] if m["better"] == "lower" \
                else -change > m["bound"]
            worse += bad
            print(f"{wl:<22} {m['name']:<16} base {b:>12.5g} "
                  f"[{sides[0][0]:.5g}, {sides[0][2]:.5g}]  head {h:>12.5g} "
                  f"[{sides[1][0]:.5g}, {sides[1][2]:.5g}]  "
                  f"{change:+.1%}{'  WORSE' if bad else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
