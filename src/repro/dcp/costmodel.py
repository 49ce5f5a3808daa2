"""Task-duration cost model.

Mirrors the cost-based resource allocation described in Section 7.1: task
cost is dominated by CPU (rows processed), with per-task scheduling
overhead, per-source-file IO overhead (reads within one file do not scale
out), and a transfer term for bytes moved to/from the object store.
"""

from __future__ import annotations

from repro.common.config import DcpConfig
from repro.common.units import mib
from repro.storage import latency

#: Fixed per-task scheduling/startup overhead (simulated seconds).
TASK_OVERHEAD_S = 0.05


class CostModel:
    """Computes simulated task durations from cost hints.

    The transfer and per-request terms are the object store's own latency
    constants (:mod:`repro.storage.latency`).
    """

    def __init__(self, dcp: DcpConfig) -> None:
        self._dcp = dcp

    def task_duration(self, rows: int, files: int, io_bytes: int) -> float:
        """Simulated seconds for one task attempt."""
        cpu = (rows / 1_000_000) * self._dcp.seconds_per_million_rows
        file_io = files * self._dcp.per_file_overhead_s
        transfer = mib(io_bytes) * latency.PER_MIB_LATENCY_S
        requests = files * latency.REQUEST_LATENCY_S
        return TASK_OVERHEAD_S + cpu + file_io + transfer + requests
