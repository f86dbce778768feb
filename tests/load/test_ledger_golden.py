"""Nothing observable moved: the epoch ledger's reports and the reference
oracle's solutions, pinned as JSON.

``ledger_golden.json`` was recorded before the ledger folded resolved
epochs into counters and the session stopped keeping admitted intervals.
Both changes are pure retention changes, so every virtual-time run must
still produce the same ``summary()``/``to_dict()`` bytes and the same
reference solutions, one rate below the saturation knee and one past it
(where epochs strand).

Regenerate only for a deliberate change of what the ledger reports::

    PYTHONPATH=src python -m tests.load.test_ledger_golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.load import simload, solution_keyset
from repro.load.session import LoadSession

GOLDEN = Path(__file__).with_name("ledger_golden.json")
SEEDS = (1, 2, 3)
#: below the knee (nothing sheds) and 10x that (epochs strand)
RATES = (400.0, 4000.0)


def _observe(seed: int, rate: float) -> dict:
    sessions = []

    class Recording(LoadSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    real, simload.LoadSession = simload.LoadSession, Recording
    try:
        simload.run_traffic(
            seed=seed,
            degree=2,
            height=3,
            rate=rate,
            total_offers=700,
            max_outstanding=16,
            resume_outstanding=8,
            pending_timeout=2.0,
            start_delay=0.0,
        )
    finally:
        simload.LoadSession = real
    (session,) = sessions
    keysets = [
        sorted(solution_keyset(s))
        for s in sorted(session.reference_solutions(), key=lambda s: s.index)
    ]
    digest = hashlib.sha256(repr(keysets).encode()).hexdigest()
    return json.loads(
        json.dumps(
            {
                "summary": session.epochs.summary(),
                "to_dict": session.epochs.to_dict(),
                "reference": [" ".join(f"{k[0]}:{k[1]}" for k in keys) for keys in keysets],
                "reference_digest": digest,
            }
        )
    )


def _record() -> dict:
    return {f"{seed}@{rate:g}": _observe(seed, rate) for rate in RATES for seed in SEEDS}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("rate", RATES)
@pytest.mark.parametrize("seed", SEEDS)
def test_ledger_and_reference_unchanged(golden, seed, rate):
    assert _observe(seed, rate) == golden[f"{seed}@{rate:g}"]


def test_past_knee_strands_epochs(golden):
    for seed in SEEDS:
        assert golden[f"{seed}@{RATES[1]:g}"]["summary"]["stranded"] > 0
        assert golden[f"{seed}@{RATES[0]:g}"]["summary"]["stranded"] == 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
