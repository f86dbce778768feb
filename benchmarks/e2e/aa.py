"""A/A check: does the benchmark agree with itself?

``python -m benchmarks.e2e.aa --sets 2`` runs the full untraced protocol
twice back to back on the same code and prints, per workload and
end-to-end metric, each set's value, the relative gap between the sets
(positive = the later set reads worse), the spread inside each set, and
PASS/FAIL against the metric's bound in BENCHMARK.json.

With ``--seeds 1`` (default) a set is one run at ``--seed``; the spread
shown is (max - min) / median of its three repetitions — what the median
had to discard — and only the gap is judged.  With ``--seeds K`` a set
is K runs at K consecutive seeds, its value is their median and its
spread the distance between their first and third quartile as a share
of that median; gap and spread are both judged, which is the procedure
the PR driver uses to accept the benchmark (K = 10; the spread of
``setup_s`` is exempt there).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from .run import OUT_DIR, load_spec, measure
from .workloads import REPETITIONS, WORKLOADS


def spread(values: List[float]) -> float:
    middle = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / middle if middle else 0.0
    return (max(values) - min(values)) / middle if middle else 0.0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", type=Path, help="also write the table here (markdown)")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    seconds = float(spec["run_seconds"])

    # values[set][workload][metric] -> one value per seed (or per
    # repetition when the set is a single run)
    values: List[Dict[str, Dict[str, List[float]]]] = []
    for _ in range(args.sets):
        collected: Dict[str, Dict[str, List[float]]] = {n: {} for n in names}
        for seed in range(args.seed, args.seed + args.seeds):
            began = time.monotonic()
            runs = measure(names, seed, seconds, REPETITIONS, traced=False)
            print(f"seed {seed}: {time.monotonic() - began:.0f} s", file=sys.stderr)
            for name, run in runs.items():
                if not all(rep["correct"] for rep in run["untraced"]):
                    print(f"{name}: a repetition failed its checks", file=sys.stderr)
                    return 1
                for metric in (m["name"] for m in spec["end_to_end"]):
                    reps = [rep["metrics"][metric] for rep in run["untraced"]]
                    cell = collected[name].setdefault(metric, [])
                    cell.extend(reps if args.seeds == 1 else [statistics.median(reps)])
        values.append(collected)

    header = (
        ["workload", "metric"]
        + [f"set {i + 1}" for i in range(args.sets)]
        + ["gap", "spread (max over sets)", "bound", ""]
    )
    rows = [header, ["---"] * len(header)]
    failed = 0
    for name in names:
        for metric in spec["end_to_end"]:
            per_set = [values[i][name][metric["name"]] for i in range(args.sets)]
            medians = [statistics.median(v) for v in per_set]
            worse = medians[-1] - medians[0] if metric["better"] == "lower" else medians[0] - medians[-1]
            gap = worse / medians[0] if medians[0] else 0.0
            widest = max(spread(v) for v in per_set)
            spread_judged = args.seeds > 1 and metric["name"] != "setup_s"
            ok = gap <= metric["bound"] and not (spread_judged and widest > metric["bound"])
            failed += not ok
            rows.append(
                [name, metric["name"]]
                + [f"{m:.6g}" for m in medians]
                + [f"{gap:+.2%}", f"{widest:.2%}", f"{metric['bound']:.0%}", "PASS" if ok else "FAIL"]
            )
    table = "\n".join("| " + " | ".join(row) + " |" for row in rows)
    print(table)
    if args.out:
        args.out.write_text(table + "\n")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "aa.json").write_text(json.dumps(values, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
