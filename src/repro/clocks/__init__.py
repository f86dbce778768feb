"""Vector clocks and timestamps (paper Section II-A)."""

from .compare import HeadMatrix
from .encoding import (
    best_encoding,
    decode_differential,
    decode_sparse,
    encode_differential,
    encode_sparse,
)
from .vector_clock import (
    Timestamp,
    VectorClock,
    freeze,
    join,
    meet,
    vc_concurrent,
    vc_equal,
    vc_le,
    vc_less,
    vc_not_less,
)

__all__ = [
    "HeadMatrix",
    "best_encoding",
    "decode_differential",
    "decode_sparse",
    "encode_differential",
    "encode_sparse",
    "Timestamp",
    "VectorClock",
    "freeze",
    "join",
    "meet",
    "vc_concurrent",
    "vc_equal",
    "vc_le",
    "vc_less",
    "vc_not_less",
]
