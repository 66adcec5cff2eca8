"""A fixed reference loop that measures how fast the host runs Python
right now.

The host this benchmark was written on changes speed by up to 1.5x
from one second to the next and by more over minutes (a fixed loop,
timed back to back, swings between two levels), so raw wall times of
identical work drift far more than any regression bound. The loop here
does the same kind of work as the engine (string-keyed dicts of sets,
set intersections and unions, sorting tuples) but never calls it, so
its time moves with the host and not with the program. Timing it next
to every measured operation lets the benchmark report times as they
would read on a host where the loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.0015  # the loop's time on the reference host (its fast state)


class Probe:
    def __init__(self):
        rng = random.Random(0)
        self._words = [f"w{rng.randrange(3000)}" for _ in range(1500)]

    def _loop(self) -> int:
        groups: dict = {}
        for i, w in enumerate(self._words):
            groups.setdefault(w, set()).add(i % 61)
        keys = sorted(groups)
        hits = 0
        for a, b in zip(keys, keys[1:]):
            sa, sb = groups[a], groups[b]
            hits += len(sa & sb) * len(sa | sb)
        ranked = sorted(((len(v), k) for k, v in groups.items()), reverse=True)
        return hits + len(ranked)

    def __call__(self) -> float:
        """Seconds of one loop: the best of three, so that a single
        preemption does not read as a slow host."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            self._loop()
            best = min(best, time.perf_counter() - start)
        return best
