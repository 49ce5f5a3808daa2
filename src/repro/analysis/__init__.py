"""Static invariant enforcement for the reproduction.

The correctness of this codebase rests on a handful of discipline rules the
test suite can only probe indirectly: all time flows through
:class:`~repro.common.clock.SimulatedClock`, all randomness comes from
seeded ``random.Random`` instances, committed LST structures are immutable,
and ``Manifests`` stamping happens only inside the commit-lock critical
section (Section 4.1.2 of the paper).  This package turns those implicit
rules into enforced ones:

* :mod:`repro.analysis.framework` — an AST-based lint framework (stdlib
  ``ast`` only) with a rule registry, per-line
  ``# repro: ignore[rule]`` suppressions and the one text report
  (``path:line: rule: message``).
* :mod:`repro.analysis.rules` — the 8 repo-specific lint rules.
* :mod:`repro.analysis.deep_rules` — the 2 whole-program rules
  (``crash-unwind``, ``resource-leak``) over the call graph
  (:mod:`~repro.analysis.callgraph`, call edges only) and per-function
  CFGs (:mod:`~repro.analysis.cfg`).
* :mod:`repro.analysis.si` — a snapshot-isolation *history sanitizer* that
  consumes a recorded transaction history (live via the EventBus or from a
  JSONL trace) and verifies SI axioms: first-committer-wins on overlapping
  write-sets, reads-from-snapshot, and no lost updates.

Run ``python -m repro.analysis --deep --strict`` (or the
``repro-analysis`` console script) to check the tree; see
``docs/ANALYSIS.md`` for the full rule catalogue and rationale.
"""

from __future__ import annotations

from repro.analysis.framework import (
    Finding,
    ModuleSource,
    Rule,
    all_rules,
    format_findings,
    get_rule,
    lint_paths,
    lint_source,
    register,
)
from repro.analysis.si import (
    HistoryRecorder,
    SiViolation,
    TxnRecord,
    check_history,
    load_history_jsonl,
)

# Importing the rules module populates the registry as a side effect;
# deep_rules registers the deep rule names for suppression validation.
from repro.analysis import rules as _rules  # noqa: F401  (registration)
from repro.analysis.callgraph import Program
from repro.analysis.cfg import Cfg, build_cfg
from repro.analysis.deep_rules import DEEP_RULES, run_deep

__all__ = [
    "Program",
    "Cfg",
    "build_cfg",
    "DEEP_RULES",
    "run_deep",
    "Finding",
    "ModuleSource",
    "Rule",
    "all_rules",
    "format_findings",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register",
    "HistoryRecorder",
    "SiViolation",
    "TxnRecord",
    "check_history",
    "load_history_jsonl",
]
