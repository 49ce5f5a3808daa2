"""Workload management: separating read and write pools (Section 4.3).

Polaris isolates data-loading (ETL) from reporting by running write tasks
and read tasks on disjoint sets of compute nodes.  The
:class:`WorkloadManager` owns one :class:`~repro.dcp.topology.Topology` per
pool; with separation disabled (the ablation case) both pool names resolve
to the same shared topology, so concurrent reads and writes contend for
the same slots.
"""

from __future__ import annotations

from typing import Dict

from repro.common.config import DcpConfig
from repro.common.ids import MonotonicSequence
from repro.dcp.topology import Topology

#: Task slots per compute node.
SLOTS_PER_NODE = 2


class WorkloadManager:
    """Routes tasks to per-pool topologies."""

    def __init__(self, config: DcpConfig, separate_pools: bool = True) -> None:
        self._config = config
        self._node_ids = MonotonicSequence(start=1)
        self._separate = separate_pools
        self._pools: Dict[str, Topology] = {}
        if separate_pools:
            self._pools["read"] = self._new_topology()
            self._pools["write"] = self._new_topology()
        else:
            shared = self._new_topology()
            self._pools["read"] = shared
            self._pools["write"] = shared

    def _new_topology(self) -> Topology:
        topology = Topology(node_ids=self._node_ids)
        topology.add_nodes(self._config.fixed_nodes, slots=SLOTS_PER_NODE)
        return topology

    @property
    def separate_pools(self) -> bool:
        """Whether reads and writes run on disjoint node sets."""
        return self._separate

    def pool(self, name: str) -> Topology:
        """The topology backing pool ``name`` ("read" or "write")."""
        try:
            return self._pools[name]
        except KeyError:
            raise ValueError(f"unknown WLM pool {name!r}") from None

    def resize_pool(self, name: str, nodes: int) -> None:
        """Elastically resize a pool (no-op for the other pool)."""
        self.pool(name).resize(nodes, slots=SLOTS_PER_NODE)
