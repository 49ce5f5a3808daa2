"""Compute topology: an elastic set of compute nodes.

Each node models one container with a fixed number of task slots
(Section 3.3, Figure 5).  Nodes can join and leave at any time; the
scheduler tolerates a node leaving mid-DAG by retrying its in-flight tasks
elsewhere, and the whole design guarantees that node loss never affects
transactional state (only caches live on nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import TopologyError
from repro.common.ids import MonotonicSequence


@dataclass
class ComputeNode:
    """One compute container: identity, slots, and a cache-residency tag."""

    node_id: int
    slots: int
    #: Earliest simulated time each slot is free (scheduler bookkeeping).
    slot_free_at: List[float] = field(default_factory=list)
    #: Set by the scheduler when the node is drained out of the topology.
    alive: bool = True

    def __post_init__(self) -> None:
        if not self.slot_free_at:
            self.slot_free_at = [0.0] * self.slots


class Topology:
    """A mutable collection of compute nodes."""

    def __init__(self, node_ids: Optional[MonotonicSequence] = None) -> None:
        self._nodes: Dict[int, ComputeNode] = {}
        self._node_ids = node_ids or MonotonicSequence(start=1)

    def add_node(self, slots: int = 2) -> ComputeNode:
        """Provision a new node and return it."""
        node = ComputeNode(node_id=self._node_ids.next(), slots=slots)
        self._nodes[node.node_id] = node
        return node

    def add_nodes(self, count: int, slots: int = 2) -> List[ComputeNode]:
        """Provision ``count`` nodes."""
        return [self.add_node(slots) for __ in range(count)]

    def remove_node(self, node_id: int) -> ComputeNode:
        """Remove a node (simulating failure or scale-in)."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            raise TopologyError(f"no node {node_id}")
        node.alive = False
        return node

    def resize(self, target: int, slots: int = 2) -> None:
        """Grow or shrink to exactly ``target`` nodes."""
        while len(self._nodes) < target:
            self.add_node(slots)
        while len(self._nodes) > target:
            victim = max(self._nodes)  # youngest node leaves first
            self.remove_node(victim)

    @property
    def nodes(self) -> List[ComputeNode]:
        """Live nodes, ordered by id."""
        return [self._nodes[nid] for nid in sorted(self._nodes)]

    @property
    def size(self) -> int:
        """Number of live nodes."""
        return len(self._nodes)

    @property
    def total_slots(self) -> int:
        """Total task slots across live nodes."""
        return sum(node.slots for node in self._nodes.values())
