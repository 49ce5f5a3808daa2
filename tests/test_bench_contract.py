"""The frozen benchmark resolves ``src/`` callables by name; keep them.

``benchmarks/e2e/trace.py`` wraps a declared table of callables for its
traced pass and crashes if one is missing.  Resolving the whole table
here turns a rename that would break the benchmark into a tier-1
failure that takes seconds.
"""

import importlib

import pytest

from benchmarks.e2e.trace import TARGETS


@pytest.mark.parametrize("span,target", [(t[0], t[1]) for t in TARGETS])
def test_trace_target_resolves_to_a_callable(span, target):
    module_name, _, qualified = target.partition(":")
    resolved = importlib.import_module(module_name)
    for part in qualified.split("."):
        resolved = getattr(resolved, part)
    assert callable(resolved), f"{span}: {target} is not callable"
