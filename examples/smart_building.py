#!/usr/bin/env python
"""Smart-building monitoring with the high-level façade.

A building automation network: 9 controllers on a 3×3 mesh, each owning
different local state.  The alarm condition is the heterogeneous
conjunction of Section I of the paper:

    Definitely( occupancy_0 == 0  ∧  temp_i > 28 (HVAC zones)
                ∧  door_j == "locked" (perimeter nodes) )

— "the building was definitely empty, hot, and locked up at once" (time
to cut the HVAC).  The monitor raises the alarm on *every* satisfaction
and keeps working when a controller dies mid-run.

Run:  python examples/smart_building.py
"""

from repro.monitor import ConjunctivePredicate, DistributedMonitor
from repro.topology import grid_topology


def main() -> None:
    graph = grid_topology(3, 3)
    # Node roles: 0 = occupancy sensor, 1-4 HVAC zones, 5-8 perimeter.
    hvac = [1, 2, 3, 4]
    perimeter = [5, 6, 7, 8]

    clauses = {0: lambda v: v.get("occupancy") == 0}
    for pid in hvac:
        clauses[pid] = lambda v: v.get("temp", 0.0) > 28.0
    for pid in perimeter:
        clauses[pid] = lambda v: v.get("door") == "locked"

    monitor = DistributedMonitor(
        graph,
        ConjunctivePredicate.per_process(clauses, name="empty-hot-locked"),
        seed=8,
    )
    monitor.on_alarm(
        lambda record: print(
            f"  ALARM t={record.time:7.2f}: building definitely "
            f"empty+hot+locked (witnessed by {sorted(record.members)})"
        )
    )
    group_alarms = []
    monitor.on_group_alarm(lambda pid, emission: group_alarms.append(pid))
    monitor.enable_gossip(rate=0.8, until=400.0)

    # --- morning: occupied, cool, unlocked -----------------------------
    monitor.at(1.0, monitor.setter(0, "occupancy", 12))
    for pid in hvac:
        monitor.at(1.0 + pid * 0.1, monitor.setter(pid, "temp", 22.0))
    for pid in perimeter:
        monitor.at(1.0 + pid * 0.1, monitor.setter(pid, "door", "open"))

    # --- afternoon: heat creeps up -------------------------------------
    for pid in hvac:
        monitor.at(40.0 + pid, monitor.setter(pid, "temp", 29.5))

    # --- evening: everyone leaves, doors lock --------------------------
    monitor.at(80.0, monitor.setter(0, "occupancy", 0))
    for pid in perimeter:
        monitor.at(85.0 + pid * 0.3, monitor.setter(pid, "door", "locked"))

    # --- night: a janitor pops in (breaks the conjunction), leaves -----
    monitor.at(150.0, monitor.setter(0, "occupancy", 1))
    monitor.at(170.0, monitor.setter(0, "occupancy", 0))

    # --- next morning: the HVAC kicks in and staff unlock ---------------
    # Interval-based detection announces on *completed* intervals, so the
    # overnight satisfaction is detected once morning ends the episode.
    for pid in hvac:
        monitor.at(200.0 + pid, monitor.setter(pid, "temp", 21.0))
    for pid in perimeter:
        monitor.at(203.0 + pid * 0.3, monitor.setter(pid, "door", "open"))
    monitor.at(205.0, monitor.setter(0, "occupancy", 15))

    # --- a zone controller crashes; monitoring must continue -----------
    monitor.crash(230.0, 2)
    # A second empty-hot-locked episode among the 8 survivors.
    for pid in [p for p in hvac if p != 2]:
        monitor.at(260.0 + pid, monitor.setter(pid, "temp", 31.0))
    monitor.at(262.0, monitor.setter(0, "occupancy", 0))
    for pid in perimeter:
        monitor.at(264.0 + pid * 0.3, monitor.setter(pid, "door", "locked"))
    # ... and its end, which makes it announceable.
    for pid in [p for p in hvac if p != 2]:
        monitor.at(320.0 + pid, monitor.setter(pid, "temp", 20.0))
    for pid in perimeter:
        monitor.at(323.0 + pid * 0.3, monitor.setter(pid, "door", "open"))
    monitor.at(326.0, monitor.setter(0, "occupancy", 9))

    print("Running 400 time units of building telemetry...")
    monitor.run(until=400.0)
    print()
    print(f"total alarms: {len(monitor.alarms)}")
    full = [a for a in monitor.alarms if len(a.members) == 9]
    partial = [a for a in monitor.alarms if len(a.members) < 9]
    print(f"  full-building alarms   : {len(full)}")
    print(f"  post-crash (8-node)    : {len(partial)}"
          f"  members={sorted(partial[-1].members) if partial else '-'}")
    print(f"  group-level solutions  : {len(group_alarms)} "
          f"(at nodes {sorted(set(group_alarms))})")


if __name__ == "__main__":
    main()
