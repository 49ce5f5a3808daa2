"""Crash injection and recovery (``repro.chaos``).

Three pieces:

* :mod:`repro.chaos.crashpoints` — registered crash sites instrumented
  through the FE commit/write paths, the SQL DB commit, and every STO
  job; a :class:`ChaosController` kills the "process" at the n-th hit of
  any site.
* :mod:`repro.chaos.recovery` — :class:`RecoveryManager` models process
  restart: aborts in-doubt transactions, reconciles catalog vs object
  store, discards stale staged blocks, and idempotently completes
  post-commit publish steps.
* :mod:`repro.chaos.harness` — the one seeded randomized driver: a
  two-session op stream checked against a dict model after every op,
  under storage and task faults (:func:`run_driver`) or crashed at a
  seeded sample of its crashpoint hits and recovered
  (``python -m repro.chaos --sweep``).

This module keeps its imports light: only the crashpoint primitives load
eagerly (the instrumented engine modules import them), while the recovery
manager and harness — which import the whole engine — load lazily on
first attribute access.
"""

from __future__ import annotations

from repro.common.errors import RecoveryError, SimulatedCrash
from repro.chaos.crashpoints import (
    CRASHPOINTS,
    ChaosController,
    active_controller,
    crashpoint,
)

__all__ = [
    "CRASHPOINTS",
    "ChaosController",
    "ChaosSweepResult",
    "CorruptionSweepResult",
    "Driver",
    "RecoveryError",
    "RecoveryManager",
    "RecoveryReport",
    "SimulatedCrash",
    "active_controller",
    "crashpoint",
    "run_corruption_sweep",
    "run_crash_sweep",
    "run_driver",
]

#: Lazily resolved attribute -> defining submodule (avoids importing the
#: full engine when only crashpoint primitives are needed).
_LAZY = {
    "RecoveryManager": "repro.chaos.recovery",
    "RecoveryReport": "repro.chaos.recovery",
    "ChaosSweepResult": "repro.chaos.harness",
    "run_crash_sweep": "repro.chaos.harness",
    "run_driver": "repro.chaos.harness",
    "Driver": "repro.chaos.harness",
    "CorruptionSweepResult": "repro.chaos.corruption",
    "run_corruption_sweep": "repro.chaos.corruption",
}


def __getattr__(name: str):
    """Resolve heavy exports (recovery, harness) on first access."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.chaos' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
