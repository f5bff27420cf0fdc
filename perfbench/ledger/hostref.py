"""Host-speed reference: scale wall times to a nominal host.

The benchmark runs on shared machines whose speed drifts by a fifth
or more within minutes, far more than a run's own noise.  A fixed CPU
kernel that uses none of ``repro`` — numpy element-wise work and
reductions on a frame-sized array plus an interpreter loop, the mix a
rollout spends its time in — is timed between the operations of a
run.  Each operation's wall time is then multiplied by
``NOMINAL_S / local reference time``, the local reference being the
mean of the samples taken just before and just after it.  The raw
times stay in the run record beside the scaled ones.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

#: Median kernel time on the two-vCPU host the benchmark was calibrated
#: on; scaled times read as wall times on that host at its usual speed.
NOMINAL_S = 0.07
#: Kernel repetitions (numpy part) and interpreter-loop length.
_REPEATS = 60
_LOOP = 6000


class HostReference:
    """Timed samples of the reference kernel, in the order taken."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._frame = rng.random((96, 192, 3), dtype=np.float32)
        self.samples: List[float] = []

    def sample(self) -> float:
        """Time the kernel once and record it."""
        frame = self._frame
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(_REPEATS):
            scaled = np.clip(frame * 1.1 + 0.05, 0.0, 1.0)
            acc += float(np.sort(scaled.sum(axis=2), axis=1)[:, -1].sum())
            for i in range(_LOOP):
                acc += (i % 7) * 0.5
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


def between(samples: Sequence[float], index: int) -> float:
    """Reference time around operation *index* (samples bracket ops)."""
    return 0.5 * (samples[index] + samples[index + 1])


def scale(raw_s: float, reference_s: float) -> float:
    """A wall time as it would read at the nominal reference speed."""
    return raw_s * NOMINAL_S / reference_s
