"""The benchmark command.

Full report, all four workloads (what a person runs)::

    python -m benchmarks.e2e --seed 1            # or: python3 benchmarks/e2e/run.py

One workload in the driver's contract form (what BENCHMARK.json names)::

    python3 benchmarks/e2e/run.py --workload tcp7_steady --seed 1 --seconds 15 --trace 0

Either way every repetition runs in a fresh subprocess, repetitions are
interleaved round-robin across the selected workloads, each metric's
reported value is the median of its repetitions, every repetition's
detections are checked against the reference oracle, and the result is
validated (:mod:`benchmarks.e2e.validate`) before the exit code is
chosen.  ``--seconds`` is the measured time per workload summed over
its three repetitions (``tcp7_crash`` measures twice that, see
workloads.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ""):
    # Run as a script: import as the package, from the repo root (the
    # script's own directory on sys.path would shadow stdlib ``trace``).
    sys.path[0] = str(ROOT)
    __package__ = "benchmarks.e2e"

from . import validate  # noqa: E402
from .workloads import REPETITIONS, WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"
#: a repetition that has not finished by then is stuck, not slow
REP_TIMEOUT_S = 150
#: ``--smoke``: one repetition with 2 s windows
SMOKE_SECONDS = 2.0 * REPETITIONS


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class RepetitionFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, trace_out: Optional[Path] = None) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    command = [
        sys.executable, "-m", "benchmarks.e2e.rep",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--spawned-at", repr(time.monotonic()),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RepetitionFailed(
            f"{workload}: repetition exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    names: Sequence[str], seed: int, seconds: float, repetitions: int, traced: bool
) -> Dict[str, dict]:
    """Untraced repetitions round-robin across *names* (A B C D A B C D
    ...), then one traced repetition each.  A noisy-neighbour episode of
    30-60 s then spoils at most one repetition per workload, which the
    median discards; back-to-back repetitions would all sit inside it."""
    per_repetition = seconds / REPETITIONS
    runs = {name: {"untraced": [], "traced": None} for name in names}
    for _ in range(repetitions):
        for name in names:
            runs[name]["untraced"].append(spawn(name, seed, per_repetition))
    if traced:
        for name in names:
            runs[name]["traced"] = spawn(
                name, seed, per_repetition, OUT_DIR / f"trace-{name}.json"
            )
    return runs


def summarise(runs: Dict[str, dict], spec: dict, seed: int, seconds: float, smoke: bool) -> dict:
    """Fold raw repetitions into the report document."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    doc = {
        "schema": "repro-e2e/1",
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "env": environment(),
        "workloads": {},
    }
    for name, run in runs.items():
        untraced, traced = run["untraced"], run["traced"]
        metrics: Dict[str, dict] = {}
        for metric in untraced[0]["metrics"]:
            values = [rep["metrics"][metric] for rep in untraced]
            metrics[metric] = {
                "value": statistics.median(values),
                "unit": units.get(metric, ""),
                "repetitions": values,
            }
        if traced is not None:
            # timings come from the traced repetition alone; everything
            # an untraced repetition can measure was taken above
            for metric, value in traced["metrics"].items():
                if metric not in metrics:
                    metrics[metric] = {"value": value, "unit": units.get(metric, ""), "traced": True}
            plain = metrics["cpu_ms_per_solved_epoch"]["value"]
            metrics["trace.overhead_frac"] = {
                "value": traced["metrics"]["cpu_ms_per_solved_epoch"] / plain - 1.0,
                "unit": units.get("trace.overhead_frac", ""),
                "traced": True,
            }
        repetitions = untraced + ([traced] if traced else [])
        doc["workloads"][name] = {
            "metrics": metrics,
            "samples": [rep["samples"] for rep in repetitions],
            "checks": [rep["checks"] for rep in repetitions],
            "correct": all(rep["correct"] for rep in repetitions),
            "attempted": sum(rep["attempted"] for rep in untraced),
            "failed": sum(rep["attempted"] for rep in untraced if not rep["correct"]),
            "window_s": [rep["window_s"] for rep in untraced],
            "spin_ms": [rep["spin_ms"] for rep in repetitions],
            "traced": None
            if traced is None
            else {
                "closure": traced["closure"],
                "layer_self_ms": traced["layer_self_ms"],
                "spans": traced["spans"],
                "file": f"benchmarks/e2e/out/trace-{name}.json",
            },
        }
    return doc


def environment() -> dict:
    from importlib import metadata

    sha = None
    if (ROOT / ".git").exists():  # the driver's checkout is not a repository
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            sha = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def render(doc: dict, spec: dict) -> str:
    """Every metric by name, with its unit, per workload."""
    lines: List[str] = []
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    for name, entry in doc["workloads"].items():
        lines.append(f"\n== {name}  (correct={entry['correct']}, attempted={entry['attempted']})")
        ordered = [m for m in end_to_end if m in entry["metrics"]] + sorted(
            m for m in entry["metrics"] if m not in end_to_end
        )
        for metric in ordered:
            cell = entry["metrics"][metric]
            raw = cell.get("repetitions")
            detail = (
                "[" + ", ".join(f"{v:.6g}" for v in raw) + "]" if raw else "(traced repetition)"
            )
            lines.append(f"  {metric:<44} {cell['value']:>14.6g} {cell['unit']:<6} {detail}")
    return "\n".join(lines)


def contract_line(entry: dict, spec: dict, traced: bool) -> str:
    """The driver's last-line JSON object for one workload."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    return json.dumps(
        {
            "correct": entry["correct"],
            "attempted": entry["attempted"],
            "failed": entry["failed"],
            "metrics": {
                m["name"]: {
                    "value": entry["metrics"][m["name"]]["value"],
                    "unit": m["unit"],
                }
                for m in wanted
            },
        }
    )


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="repeatable; default: all four",
    )
    parser.add_argument("--out", type=Path, default=OUT_DIR / "e2e.json")
    parser.add_argument("--smoke", action="store_true", help="1 repetition, 2 s windows")
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="driver contract: measured seconds per workload",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="driver contract: print one workload's end-to-end (0) or per-layer (1) metrics "
        "as the last line",
    )
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.trace is not None and len(names) != 1:
        parser.error("--trace takes exactly one --workload")

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    # the driver's per-layer run needs the counts of one untraced
    # repetition (and its CPU, for the overhead) next to the traced one
    repetitions = 1 if (args.smoke or args.trace == 1) else REPETITIONS
    traced = args.trace != 0
    try:
        runs = measure(names, args.seed, seconds, repetitions, traced)
    except (RepetitionFailed, subprocess.TimeoutExpired) as failure:
        print(failure, file=sys.stderr)
        return 1
    doc = summarise(runs, spec, args.seed, seconds, args.smoke)
    problems = validate.problems(doc, spec, repetitions=repetitions, traced=traced)
    doc["problems"] = problems
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")

    print(render(doc, spec))
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    if problems:
        return 1
    if args.trace is not None:
        print(contract_line(doc["workloads"][names[0]], spec, traced=bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
