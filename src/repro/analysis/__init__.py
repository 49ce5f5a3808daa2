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
* :mod:`repro.analysis.si` — a snapshot-isolation *history sanitizer* that
  consumes a recorded transaction history (live via the EventBus or from a
  JSONL trace) and verifies SI axioms: first-committer-wins on overlapping
  write-sets, reads-from-snapshot, and no lost updates.

Two properties that need whole-program reasoning are checked at run time
instead, on live executions: that a simulated crash unwinds to the
harness (the chaos sweep counts crashes raised against crashes caught),
and that nothing is left in flight — every span, query-store record,
wait scope and gateway session a deployment opens is closed, or is
scavenged by recovery (the tier-1 suite checks every deployment a test
built at teardown).

Run ``python -m repro.analysis --strict`` (or the ``repro-analysis``
console script) to check the tree; see ``docs/ANALYSIS.md`` for the full
rule catalogue and rationale.
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

# Importing the rules module populates the registry as a side effect.
from repro.analysis import rules as _rules  # noqa: F401  (registration)

__all__ = [
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
