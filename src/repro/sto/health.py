"""Storage-health tracking: the data behind Figure 10.

The monitor keeps the latest :class:`~repro.engine.statistics.TableStats`
per table and a timeline of health transitions (healthy ⇄ degraded) with
simulated timestamps.  Figure 10's horizontal green/red bars are exactly
this timeline rendered per table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engine.statistics import TableStats


@dataclass(frozen=True)
class HealthTransition:
    """One change of a table's health state."""

    table_id: int
    at: float
    healthy: bool
    low_quality_files: int
    file_count: int


class StorageHealthMonitor:
    """Accumulates per-table health state from scan statistics."""

    def __init__(self) -> None:
        self._latest: Dict[int, TableStats] = {}
        self._healthy: Dict[int, bool] = {}
        self.timeline: List[HealthTransition] = []
        #: table_id -> paths with unrepairable integrity loss (table RED).
        self._integrity: Dict[int, List[str]] = {}

    def observe(self, stats: TableStats, at: float) -> None:
        """Record a statistics observation; log a transition on change."""
        self._latest[stats.table_id] = stats
        previous = self._healthy.get(stats.table_id)
        if previous is None or previous != stats.healthy:
            self._healthy[stats.table_id] = stats.healthy
            self.timeline.append(
                HealthTransition(
                    table_id=stats.table_id,
                    at=at,
                    healthy=stats.healthy,
                    low_quality_files=stats.low_quality_files,
                    file_count=stats.file_count,
                )
            )

    @property
    def unhealthy_count(self) -> int:
        """Number of tables currently observed unhealthy."""
        return sum(1 for healthy in self._healthy.values() if not healthy)

    def latest(self, table_id: int) -> Optional[TableStats]:
        """Most recent stats observed for a table."""
        return self._latest.get(table_id)

    def is_healthy(self, table_id: int) -> Optional[bool]:
        """Current health state (None if never observed)."""
        return self._healthy.get(table_id)

    def transitions_for(self, table_id: int) -> List[HealthTransition]:
        """The health timeline of one table."""
        return [t for t in self.timeline if t.table_id == table_id]

    # -- integrity degradation (set by the scrubber) -------------------------

    def flag_integrity(self, table_id: int, path: str) -> None:
        """Record unrepairable data loss for a table (degrades it to RED).

        Only the affected table degrades; readers of other tables are
        untouched — the scrubber never raises out of its pass.
        """
        self._integrity.setdefault(table_id, []).append(path)

    def integrity_compromised(self, table_id: int) -> bool:
        """Whether the table carries unrepairable integrity loss."""
        return table_id in self._integrity
