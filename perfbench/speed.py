"""Machine-speed probe, for timings that do not drift with the host's load.

On a shared 2-core machine the same job list ran in 10.9 s to 14.2 s from
one round to the next.  The probe is a fixed exact-rational elimination in
plain Python: the kind of work gradalg does, with none of its code, so a
change to gradalg cannot move it.  A probe runs before the first job and
after every job; each job's time is rescaled by the probes around it to
what it would have taken with the probe at ``REFERENCE_S``.  With four
probes to a window, over 8 rounds of classify this cut the spread of a
round's time (coefficient of variation) from 10% to 1.7%; on lie it cut
that of the median job time from 6% to 2%.  Set-up time is rescaled by a probe that each child
interpreter runs right after its import, which cut the spread of
``setup_s`` from 13.5% to 6.7%.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

#: probe time on the reference machine (2-core Xeon VM, Python 3.11) at rest
REFERENCE_S = 0.013
#: eliminations per probe
REPEATS = 6

_rng = random.Random(5)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(9)] for _ in range(8)]


def _eliminate() -> None:
    a = [row[:] for row in _MATRIX]
    r = 0
    for c in range(len(a[0])):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _eliminate()
    return time.perf_counter() - start


def scales(probes: list[float]) -> list[float]:
    """Scale factor for each interval between consecutive probes: the
    reference time over the median of the nearest eight probes (a single
    probe varies by 10-20% with the machine's speed unchanged)."""
    out = []
    for i in range(len(probes) - 1):
        near = probes[max(0, i - 3): i + 5]
        out.append(REFERENCE_S / statistics.median(near))
    return out
