"""A fixed reference task that puts measured times on a steady scale.

On a machine shared with other tenants the same code can run tens of
percent slower for seconds to minutes at a time, and a raw time then
says more about the neighbours than about divknn. The benchmark times
this task, which uses no divknn code, before and after every measured
interval, and scales the interval by ``REF_S`` over the mean of the two
reference times. A slowdown that hits both alike cancels; a change to
divknn moves only the interval.

The task mixes what a rep spends its time on: k-NN queries on small
1-D and 2-D kd-trees, a numpy sort and an interpreted loop. It runs
single-threaded, and for a workload whose queries use several threads
also with workers=-1, since a neighbour on the other core slows threaded
work more than single-threaded work.

One mixed task serves every workload. Tasks made of each workload's own
kernel (a 1-D kd-tree query for ggrid, a threaded 2-D one for anomaly,
brute-force distances in d = 20 for highdim) tracked reps better within
one process, but across processes their speed relative to the reps
varied by up to 60%, and ten-run spreads on anomaly and highdim rose
above 0.25.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

# The task's time at full speed on an Intel Xeon 2-vCPU virtual machine,
# so scaled times read close to that machine's unloaded seconds.
REF_S = 0.2
ROUNDS = 10


class Reference:
    """The task's inputs, made once from a fixed seed."""

    def __init__(self, workers: int = 1):
        self.workers = workers
        rng = np.random.Generator(np.random.Philox(12345))
        self._line = rng.random((2000, 1))
        self._plane = rng.random((3000, 2))
        self._trees = (cKDTree(self._line), cKDTree(self._plane))
        self._values = rng.random(100_000)

    def time(self) -> tuple[float, float]:
        """Wall seconds of the task run single-threaded and run with ``workers``.

        The first puts CPU time and single-threaded work on the scale; the
        second, which sees whether the other cores are free, puts the wall
        time of reps that query with ``workers`` on it.
        """
        serial = self._run(1)
        return serial, (serial if self.workers == 1 else self._run(self.workers))

    def _run(self, workers: int) -> float:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            self._trees[0].query(self._line, k=21, workers=workers)
            self._trees[1].query(self._plane, k=21, workers=workers)
            np.sort(self._values)
            acc = 0
            for j in range(20_000):
                acc += j * j % 7
        return time.perf_counter() - t0

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that puts an interval timed between two reference runs on the REF_S scale."""
        return REF_S / ((before + after) / 2.0)
