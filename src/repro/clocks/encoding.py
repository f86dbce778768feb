"""Timestamp compression for control-plane reports.

Every control message carries vector timestamps of length ``n`` — the
O(n)-per-message factor in all of Section IV's message-size accounting,
and the dominant wire cost in the "resource-constraint network[s]" the
paper targets.  Two classical encodings cut it down:

* **Sparse encoding** — transmit only the non-zero components as
  ``(index, value)`` pairs.  Early in a run (and for processes that
  communicate locally) most components are zero.
* **Differential encoding** (Singhal–Kshemkalyani style) — against a
  reference timestamp both ends already share (the previous report on
  the same channel), transmit only the components that changed.
  Consecutive aggregates from the same child differ in few components
  when activity is localized, so report streams compress well.

Encoders return ``(payload, entries)`` where *entries* is the wire cost
in integer entries, comparable with
:func:`repro.sim.messages.payload_entries`; decoders invert exactly.
The ablation bench measures realized savings on simulated report
streams.

Pricing never builds a payload: both pair encodings cost
``1 + 2·#pairs`` and the pair count is one ``count_nonzero``
(:func:`pair_cost`).  :func:`best_encoding` and the simulator's
``WireCodec`` price through it; only the scheme that won is then
materialized, once, by :func:`pair_arrays`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .vector_clock import Timestamp, freeze

__all__ = [
    "pair_cost",
    "pair_arrays",
    "channel_reference",
    "encode_sparse",
    "decode_sparse",
    "encode_differential",
    "decode_differential",
    "best_encoding",
]


def _changed(ts: Timestamp, reference: Optional[Timestamp]) -> np.ndarray:
    """What the pair encodings transmit: the non-zero components
    (``reference is None``, sparse) or those differing from *reference*
    (differential)."""
    if reference is None:
        return ts
    if reference.shape != ts.shape:
        raise ValueError("reference must have the same number of components")
    return ts != reference


def pair_cost(ts: Timestamp, reference: Optional[Timestamp] = None) -> int:
    """Wire cost of the ``(index, value)`` pair encoding of *ts* against
    *reference* (``None`` = all zeros, i.e. sparse): ``1 + 2·#pairs``
    entries — one for the length-``n`` header so the decoder can rebuild
    the vector, two per pair.  Counts; builds nothing."""
    return 1 + 2 * int(np.count_nonzero(_changed(ts, reference)))


def pair_arrays(
    ts: Timestamp, reference: Optional[Timestamp] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The pair payload :func:`pair_cost` prices, as parallel
    ``(indices, values)`` arrays."""
    indices = np.flatnonzero(_changed(ts, reference))
    return indices, ts[indices]


def channel_reference(
    previous: Optional[Timestamp], ts: Timestamp
) -> Optional[Timestamp]:
    """The differential reference a channel whose last timestamp was
    *previous* offers for *ts*: a vector of another width (membership
    changed) is no reference at all, so the chain restarts from
    ``None``.  Every per-channel caller resolves its reference here, so
    simulator pricing and socket encoding agree on width changes."""
    if previous is not None and previous.shape != ts.shape:
        return None
    return previous


def encode_sparse(ts: Timestamp) -> Tuple[list, int]:
    """``(index, value)`` pairs for non-zero components.

    Wire cost: ``1 + 2·nnz`` entries (see :func:`pair_cost`).
    """
    return encode_differential(ts, None)


def _scatter(out: np.ndarray, payload: list) -> Timestamp:
    """Write the ``(index, value)`` pairs into *out*.  An index outside
    ``[0, n)`` is a corrupt payload (a negative one would wrap around
    silently), so it raises :class:`ValueError` like any other."""
    n = out.shape[0]
    for index, value in payload:
        if not 0 <= index < n:
            raise ValueError(f"pair index {index} outside [0, {n})")
        out[index] = value
    return freeze(out)


def decode_sparse(payload: list, n: int) -> Timestamp:
    return _scatter(np.zeros(n, dtype=np.int64), payload)


def encode_differential(
    ts: Timestamp, reference: Optional[Timestamp]
) -> Tuple[list, int]:
    """Components that differ from *reference* (``None`` = all zeros).

    Wire cost: ``1 + 2·#changed`` entries.  Timestamps from the same
    monotone stream only ever grow, so the decoder can apply changes on
    top of its copy of the reference.
    """
    indices, values = pair_arrays(ts, reference)
    payload = list(zip(indices.tolist(), values.tolist()))
    return payload, 1 + 2 * len(payload)


def decode_differential(
    payload: list, reference: Optional[Timestamp], n: int
) -> Timestamp:
    if reference is None:
        return decode_sparse(payload, n)
    return _scatter(np.array(reference, dtype=np.int64, copy=True), payload)


def best_encoding(ts: Timestamp, reference: Optional[Timestamp]) -> Tuple[str, int]:
    """The cheapest of raw / sparse / differential for this timestamp,
    as ``(name, entries)`` — what an adaptive sender would pick.  Ties
    go to the earlier scheme in that order."""
    name, cost = "raw", int(ts.shape[0])
    sparse = pair_cost(ts)
    if sparse < cost:
        name, cost = "sparse", sparse
    if reference is not None:
        differential = pair_cost(ts, reference)
        if differential < cost:
            name, cost = "differential", differential
    return name, cost
