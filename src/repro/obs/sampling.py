"""Deterministic head-based trace sampling.

Always-on tracing at cluster scale cannot afford to *export* every
span: a leaf process opens one ``interval`` span per predicate run, and
at 10k offers/s the span table dwarfs the detection state it describes.
:class:`TraceSampler` implements the classic head/tail split:

* **Head decision** — whether a trace root (a concrete predicate
  interval) is kept is a pure function of its identity key, the
  sampling ``rate`` and the ``seed``.  No randomness, no process state:
  every node of a cluster, every shard of a sharded experiment and a
  replayed simulation all reach the *same* keep/drop decision for the
  same interval.  That is what makes sampled cross-node traces
  stitchable — the sender can ship its decision in the frame ``_meta``
  sidecar and the receiver independently agrees.
* **Tail promotion** — spans that turn out to matter are retained no
  matter what the head decision said.  The span tracker keeps every
  alarm/report/hop span and promotes any interval that was adopted
  into a retained explanation tree, so a ``Definitely(Φ)`` announcement
  is *always* explainable down to its concrete leaf intervals, even at
  ``rate=0.0``.

The decision function deliberately avoids Python's builtin ``hash``
(randomised per process via ``PYTHONHASHSEED``) and avoids wide 64-bit
mixing (CPython big-int multiplies cost ~0.4µs — more than the span
row append it would be gating).  A small multiplicative congruence over
``(owner, seq)`` modulo one million is deterministic, cheap (~0.12µs)
and equidistributed in the sequence number, which is the axis sampled
traces actually vary along.
"""

from __future__ import annotations

import zlib
from typing import Optional

__all__ = ["TraceSampler", "DEFAULT_SAMPLE_RATE"]

#: The default keep fraction when sampling is enabled without an
#: explicit rate (one in ten trace roots).
DEFAULT_SAMPLE_RATE: float = 0.1

#: Decision space: keep/drop is ``mix(key) mod _SPACE < rate * _SPACE``.
_SPACE = 1_000_000

#: Odd multipliers, coprime to ``_SPACE`` so consecutive sequence
#: numbers sweep the full residue space.
_SEQ_MULT = 40503
_OWNER_MULT = 2654435761


class TraceSampler:
    """Seeded, deterministic keep/drop decisions for trace roots.

    Parameters
    ----------
    rate:
        Fraction of trace roots to head-keep, in ``[0, 1]``.  ``1.0``
        keeps everything (tracing behaves as if unsampled), ``0.0``
        keeps only promoted spans (alarms and their explanations).
    seed:
        Decision-space offset.  Samplers with equal ``(rate, seed)``
        agree on every key; different seeds select different (but still
        deterministic) subsets.  Nodes of one cluster share the seed so
        their decisions line up across the wire.
    """

    __slots__ = ("rate", "seed", "_threshold", "_offset")

    def __init__(self, rate: float = DEFAULT_SAMPLE_RATE, *, seed: int = 0) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = int(seed)
        self._threshold = int(round(rate * _SPACE))
        # Seed enters additively after its own mix so seed 0 / key 0
        # does not degenerate.
        self._offset = (self.seed * _OWNER_MULT + 12345) % _SPACE

    # ------------------------------------------------------------------
    def keep(self, key: Optional[tuple]) -> bool:
        """Head decision for the trace root identified by *key*.

        *key* is a span-registry key: for concrete intervals the
        ``(owner, seq)`` identity, whose two integers drive the fast
        path (any longer tuple led by two integers decides the same).
        Any other hashable key falls back to CRC-32 of its ``repr`` —
        slower but equally deterministic across processes.  ``None``
        (an unkeyed span) cannot be decided reproducibly and is always
        kept.
        """
        threshold = self._threshold
        if threshold >= _SPACE:
            return True
        if key is None:
            return True
        if threshold <= 0:
            return False
        try:
            k0, k1 = key[0], key[1]
        except (TypeError, IndexError, KeyError):
            k0 = k1 = None
        if type(k0) is int and type(k1) is int:
            # The explicit type check matters: a string leading element
            # (an ``"agg"``-prefixed key) would *sequence-repeat* under
            # ``*``, not raise, so EAFP cannot guard this path.
            basis = k1 * _SEQ_MULT + k0 * _OWNER_MULT
        else:
            basis = zlib.crc32(repr(key).encode("utf-8"))
        return (basis + self._offset) % _SPACE < threshold

    def keep_interval(self, interval) -> bool:
        """Convenience: decision for a concrete/aggregated interval."""
        return self.keep((interval.owner, interval.seq))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"rate": self.rate, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSampler":
        return cls(float(data.get("rate", DEFAULT_SAMPLE_RATE)), seed=int(data.get("seed", 0)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceSampler(rate={self.rate}, seed={self.seed})"
