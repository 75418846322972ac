"""Host-speed probe: corrects op times for how fast the shared host runs.

On a shared host other tenants slow this processor by up to 1.7x, in spells
that last from a fraction of a second to minutes, with no steal time
showing (process time equals wall time).  Neither the fastest nor the
median of a few reps escapes a spell that lasts the whole run.  A fixed
kernel of numpy and interpreter work, timed right before and right after
an op, measures the host's speed around it; scaling the op's time by
REFERENCE_S over the kernel's mean time gives the op's time at the speed
at which the kernel takes REFERENCE_S.  The kernel is benchmark code, not
pdov, so any change to pdov moves the scaled time as much as the raw one.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import logsumexp

# the kernel's time on one vCPU of a 2.0 GHz Xeon host in a quiet spell; only
# a scale, the same on every commit
REFERENCE_S = 0.010

_MATRIX = np.random.default_rng(0).standard_normal((120, 120))


def probe_s() -> float:
    """Time of one run of the fixed kernel: row-wise logsumexp, as in
    pdov's table recursion, and an interpreter loop."""
    start = time.perf_counter()
    for row in _MATRIX[:24]:
        logsumexp(_MATRIX + row[None, :], axis=1)
    total = 0
    for i in range(60_000):
        total += i * i
    return time.perf_counter() - start


def at_reference_speed(op_s: float, before_s: float, after_s: float) -> float:
    """op_s scaled to the host speed at which the kernel takes REFERENCE_S."""
    return op_s * REFERENCE_S / (0.5 * (before_s + after_s))
