"""Node recovery — rejoining the hierarchy after a crash.

The paper's model is crash-stop, but any long-running deployment
eventually restarts nodes.  Recovery composes cleanly with the
hierarchical algorithm precisely *because* detection is per-subtree:

* the recovered process resumes its vector clock and interval numbering
  from stable storage, so its local event order stays monotone;
* its detector restarts **empty** (queues are soft state — their
  contents were aggregates of intervals that were already announced or
  are gone for good);
* it rejoins as a *leaf* under any live neighbour (re-adopting former
  children would require recovering their queues' positions; leaving
  them where repair put them is simpler and equally correct);
* from that moment the global predicate widens back to include the
  recovered process: the root's next detections cover the full
  membership again.

Nothing about past detections needs revisiting — they were correct for
the memberships that existed when they were announced.
"""

from __future__ import annotations

from .coordinator import RepairCoordinator

__all__ = ["RejoinManager"]


class RejoinManager:
    """Coordinates process revival with the repair machinery.

    Shares the coordinator's tree/graph/roles view; like repair,
    neighbour discovery is idealized (DESIGN.md substitutions) while
    all detector-layer consequences are executed faithfully.
    """

    def __init__(self, coordinator: RepairCoordinator, processes: dict) -> None:
        self.coordinator = coordinator
        self.processes = processes

    def schedule_rejoin(self, time: float, pid: int) -> None:
        self.coordinator.sim.schedule_at(time, lambda: self.rejoin(pid))

    def rejoin(self, pid: int) -> None:
        """Revive *pid* and attach it as a leaf under the best live
        graph neighbour (smallest tree depth, then smallest id)."""
        process = self.processes[pid]
        if process.alive:
            raise RuntimeError(f"P{pid} is not crashed")
        tree = self.coordinator.tree
        graph = self.coordinator.graph
        candidates = [
            nb
            for nb in graph.neighbors(pid)
            if nb in tree.parent and self.coordinator._is_alive(nb)
        ]
        if not candidates:
            raise RuntimeError(f"P{pid} has no live neighbour to rejoin through")
        adopter = min(candidates, key=lambda nb: (tree.depth(nb), nb))

        process.revive()
        tree.add_leaf(pid, adopter)
        # Allow a future crash of this node to be handled afresh.
        self.coordinator._handled.discard(pid)

        role = self.coordinator.roles[pid]
        role.rebirth(adopter)
        self.coordinator.roles[adopter].gain_child(pid)
        self.coordinator.sim.emit("rejoin", node=pid, adopter=adopter)
