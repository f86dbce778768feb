"""One repetition of one workload, in a process of its own.

The parent (:mod:`benchmarks.e2e.run`) starts this with
``PYTHONHASHSEED=0`` and the moment it did so (``--spawned-at``, on the
system-wide monotonic clock), so ``setup_s`` covers interpreter start
and imports.  Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import live, sim85
from .probes import spin_ms
from .trace import Tracer
from .workloads import WORKLOADS, Live


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", type=Path, help="trace this repetition, write spans here")
    args = parser.parse_args(argv)

    spin_before = spin_ms()
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace_out else None
    runner = live.run if isinstance(workload, Live) else sim85.run
    result = runner(workload, args.seed, args.seconds, tracer, args.spawned_at)
    spin = [spin_before, spin_ms()]
    result["metrics"]["env.spin_ms"] = sum(spin) / 2
    result.update(
        workload=args.workload,
        seed=args.seed,
        traced=tracer is not None,
        spin_ms=spin,
        correct=all(result["checks"].values()),
    )
    if tracer is not None:
        tracer.dump(
            args.trace_out,
            workload=args.workload,
            seed=args.seed,
            window_ns=result["window_ns"],
        )
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
