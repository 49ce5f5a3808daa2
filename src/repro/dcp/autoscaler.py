"""Elastic topology sizing (Section 1 objective 1, Section 7.1).

Fabric DW is serverless: the system picks the number of compute resources
per job from the job's estimated cost, and customers pay for
resources × time rather than allocation.  The sizing rule reproduced here
follows the paper's description of the lineitem-load experiment:

* parallelism is normally chosen from the CPU cost (rows to process), but
* it is capped by the number of source files, because reading *within* a
  source file does not scale out — only across files.

The returned "resource factor" (nodes relative to the 1× job) is the label
printed above the bars in Figures 7 and 8.
"""

from __future__ import annotations

import math

from repro.common.config import DcpConfig
from repro.dcp import wlm

#: Hard cap on elastic topology size (None = unbounded, as in Fabric).
ELASTIC_MAX_NODES: "int | None" = None


class Autoscaler:
    """Chooses topology sizes for jobs on an elastic deployment."""

    def __init__(self, config: DcpConfig) -> None:
        self._config = config

    def nodes_for_load(self, total_rows: int, source_files: int) -> int:
        """Topology size for a bulk load of ``total_rows`` from ``source_files``."""
        by_cpu = math.ceil(
            (total_rows / 1_000_000) / self._config.rows_per_node_million
        )
        # One task per source file at minimum granularity: more nodes than
        # files cannot help.
        by_files = max(1, math.ceil(source_files / wlm.SLOTS_PER_NODE))
        target = max(1, min(by_cpu, by_files) if source_files else by_cpu)
        if ELASTIC_MAX_NODES is not None:
            target = min(target, ELASTIC_MAX_NODES)
        return max(1, target)

    def nodes_for_query(self, total_rows: int) -> int:
        """Topology size for a scan-heavy query over ``total_rows``."""
        target = max(
            1,
            math.ceil((total_rows / 1_000_000) / self._config.rows_per_node_million),
        )
        if ELASTIC_MAX_NODES is not None:
            target = min(target, ELASTIC_MAX_NODES)
        return target
