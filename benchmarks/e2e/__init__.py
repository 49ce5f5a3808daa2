"""polaris-bench: a wall-clock + simulated, end-to-end and per-layer benchmark.

``python -m benchmarks.e2e run --workload NAME --seed N --seconds S --trace 0|1``
sets up and drives one seeded workload against the public API, checks its
answers and prints every metric by name with its unit; see README.md.
"""

import os
import sys

# The benchmark drives ``repro`` from a plain checkout (nothing installed,
# no PYTHONPATH), like the figure benches' script mode.
_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
