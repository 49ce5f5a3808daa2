"""A fixed reference kernel, so wall-clock numbers survive a noisy host.

The sandbox this benchmark was sized on is a shared microVM whose speed
drifts by tens of per cent for seconds to minutes at a time (CPU time
drifts with it, so it is not steal).  The kernel below is a constant piece
of work — interpreter loop, dict/tuple/list churn, a numpy sort and scan,
a small JSON round trip: the engine's mix — that touches nothing in
``src/``.  It is sampled about twenty times a second while a round runs,
and each round's wall-clock numbers are scaled by
``REFERENCE_S / (kernel time during that round)``: they read as the time
the round would have taken at the reference speed.  A change to the
repository cannot move the kernel, so a real regression still shows in
full; a host that is 20% slower for a minute no longer does.
"""

from __future__ import annotations

import json
import time

import numpy as np

#: The kernel's time on the reference box when it is quiet; calibrated
#: numbers equal raw ones there.
REFERENCE_S = 0.0016
#: Minimum wall time between two samples during a round.
PERIOD_S = 0.05

_VALUES = np.random.default_rng(20240611).random(40_000)
_DOCUMENT = [
    {"name": f"c{i}", "min": i, "max": i * 3, "offset": i * 100, "length": 77}
    for i in range(20)
]


def kernel() -> float:
    """Run the reference work once; returns its wall seconds."""
    start = time.perf_counter()
    table = {}
    rows = []
    for i in range(3_000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        rows.append((key, i))
    rows.sort()
    np.cumsum(np.sort(_VALUES))
    json.loads(json.dumps(_DOCUMENT))
    return time.perf_counter() - start
