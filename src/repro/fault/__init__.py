"""Failure injection, heartbeat detection and tree-repair coordination."""

from .coordinator import RepairableRole, RepairCoordinator
from .heartbeat import HeartbeatMonitor
from .injector import FailureInjector
from .rejoin import RejoinManager

__all__ = [
    "FailureInjector",
    "HeartbeatMonitor",
    "RejoinManager",
    "RepairCoordinator",
    "RepairableRole",
]
