"""Discrete-event simulation substrate (asynchronous non-FIFO network)."""

from .eventlog import EventLog, LogRecord
from .kernel import ScheduledEvent, Simulator
from .messages import (
    AppMessage,
    AttachAccept,
    AttachRequest,
    DetachNotice,
    Heartbeat,
    IntervalReport,
)
from .network import (
    Network,
    WireCodec,
    distance_delay,
    exponential_delay,
    lognormal_delay,
    uniform_delay,
)
from .process import DetectorRole, MonitoredProcess
from .serialize import load_trace, save_trace, trace_from_dict, trace_to_dict
from .trace import EventKind, ExecutionTrace, ProcessEvent

__all__ = [
    "AppMessage",
    "AttachAccept",
    "AttachRequest",
    "DetachNotice",
    "DetectorRole",
    "EventLog",
    "EventKind",
    "ExecutionTrace",
    "Heartbeat",
    "IntervalReport",
    "LogRecord",
    "MonitoredProcess",
    "Network",
    "ProcessEvent",
    "ScheduledEvent",
    "Simulator",
    "WireCodec",
    "distance_delay",
    "exponential_delay",
    "lognormal_delay",
    "load_trace",
    "save_trace",
    "trace_from_dict",
    "trace_to_dict",
    "uniform_delay",
]
