"""IO accounting for the simulated object store.

Every request is metered so benchmarks can report request counts and bytes
moved alongside simulated time — useful for the ablation benches, where the
interesting trade-off is often IO amplification rather than latency.  A
deployment's meter is its only copy of these counts:
``sys.dm_store_operations``, the health report and the query store read
it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class IoMeter:
    """Running totals of storage traffic, grouped by operation kind."""

    requests: Dict[str, int] = field(default_factory=dict)
    bytes_read: int = 0
    bytes_written: int = 0

    def record(self, operation: str, read_bytes: int = 0, written_bytes: int = 0) -> None:
        """Account one request of the given ``operation`` kind."""
        self.requests[operation] = self.requests.get(operation, 0) + 1
        self.bytes_read += read_bytes
        self.bytes_written += written_bytes

    @property
    def total_requests(self) -> int:
        """Total number of storage requests of any kind."""
        return sum(self.requests.values())

    def snapshot(self) -> "IoMeter":
        """Return a copy of the current totals (for before/after deltas)."""
        return IoMeter(
            requests=dict(self.requests),
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
        )

    def delta(self, baseline: "IoMeter") -> "IoMeter":
        """Return the traffic accrued since ``baseline`` was snapshotted."""
        requests = {
            op: count - baseline.requests.get(op, 0)
            for op, count in self.requests.items()
            if count - baseline.requests.get(op, 0)
        }
        return IoMeter(
            requests=requests,
            bytes_read=self.bytes_read - baseline.bytes_read,
            bytes_written=self.bytes_written - baseline.bytes_written,
        )
