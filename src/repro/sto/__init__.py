"""System Task Orchestrator: autonomous storage optimizations (Section 5).

The STO monitors the system through events (transaction commits, scan
statistics) and runs background operations without user intervention:

* :mod:`compaction` — rewrite low-quality data files (small files,
  fragmentation from deletes) in their own snapshot-isolated transaction;
* :mod:`checkpointer` — collapse manifest prefixes into checkpoint files
  once a table accumulates enough manifests;
* :mod:`gc` — garbage-collect what no table's log inside retention
  reaches (removed files, aborted-transaction orphans), across clones;
* :mod:`publisher` — publish committed snapshots as Delta-format metadata
  for other engines (Section 5.4);
* :mod:`health` — the storage-health timeline behind Figure 10.
"""

from repro.sto.orchestrator import SystemTaskOrchestrator

__all__ = ["SystemTaskOrchestrator"]
