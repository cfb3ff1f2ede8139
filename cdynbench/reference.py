"""Fixed reference kernel, timed after every op to express op times in its units.

On a shared host the machine's speed swings by tens of percent over tens of
seconds, so raw op times of one commit spread too widely to compare commits.
This kernel has the engine's instruction mix (tiny numpy linear algebra
between Python-level calls) and slows down and speeds up with it: in the
runs made to choose it, an op time divided by the kernel time spread about
ten times less across processes than the raw op time. The kernel must not
change; a commit that edits it changes the unit of every ``ref`` metric.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_G = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.2]])
_B = np.array([1.0, 2.0, 3.0])
ITERATIONS = 300


def reference_seconds() -> float:
    """Wall time of one fixed run of the kernel (a few ms)."""
    x = _B
    t0 = perf_counter()
    for _ in range(ITERATIONS):
        y = _G @ x
        z = np.linalg.solve(_G, y)
        x = _B + 1e-9 * float(z @ z) * z
    return perf_counter() - t0
