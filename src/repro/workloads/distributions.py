"""Task-count and task-duration distributions fitted to the paper's trace.

The Yahoo! WebScope trace itself is proprietary; the paper publishes its
marginals (Figs 5-6) and we fit lognormal families to them:

* **map duration** — "most mappers finish between 10s and 100s";
* **reduce duration** — "more than half of the reducers take more than
  100s and about 10% even take more than 1000s";
* **map count** — "about 30% of jobs have more than 100 mappers";
* **reduce count** — "more than 60% of jobs have less than 10 reducers";
* ratios — "mappers usually outnumber reducers, while reducers take much
  longer to finish" (Figs 5b / 6b).

The fitted parameters below reproduce those check-points (asserted in
``tests/workloads/test_distributions.py``); the Fig 5/6 benches print the
full CDFs next to the paper's anchors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["JobShape", "TraceDistributions", "cdf_points"]


@dataclass(frozen=True)
class JobShape:
    """Sampled shape of one Map-Reduce job."""

    num_maps: int
    num_reduces: int
    map_duration: float
    reduce_duration: float


def _lognormal(rng: np.random.Generator, median: float, sigma: float) -> float:
    return float(median * np.exp(sigma * rng.standard_normal()))


class TraceDistributions:
    """Seeded sampler for job shapes matching the published marginals.

    Args:
        seed: RNG seed; the same seed reproduces the same trace.

    Fit notes (lognormal medians/sigmas):
        map duration    median 32 s,  sigma 0.85 → ~76% in [10s, 100s]
        reduce duration median 130 s, sigma 1.20 → P(>100s)≈0.59, P(>1000s)≈0.09
        map count       median 40,    sigma 1.75 → P(>100)≈0.30
        reduce count    median 6,     sigma 1.30 → P(<10)≈0.65
    """

    MAP_DURATION_MEDIAN = 32.0
    MAP_DURATION_SIGMA = 0.85
    REDUCE_DURATION_MEDIAN = 130.0
    REDUCE_DURATION_SIGMA = 1.20
    MAP_COUNT_MEDIAN = 40.0
    MAP_COUNT_SIGMA = 1.75
    REDUCE_COUNT_MEDIAN = 6.0
    REDUCE_COUNT_SIGMA = 1.30

    def __init__(self, seed: int = 0, max_maps: int = 3000, max_reduces: int = 500) -> None:
        self._rng = np.random.default_rng(seed)
        self.max_maps = max_maps
        self.max_reduces = max_reduces

    def sample_map_duration(self) -> float:
        """Seconds per map task, clipped to [3 s, 1 h]."""
        seconds = _lognormal(self._rng, self.MAP_DURATION_MEDIAN, self.MAP_DURATION_SIGMA)
        return min(max(seconds, 3.0), 3600.0)

    def sample_reduce_duration(self) -> float:
        """Seconds per reduce task, clipped to [5 s, 4 h]."""
        seconds = _lognormal(self._rng, self.REDUCE_DURATION_MEDIAN, self.REDUCE_DURATION_SIGMA)
        return min(max(seconds, 5.0), 4 * 3600.0)

    def sample_map_count(self) -> int:
        """Mappers per job, clipped to [1, max_maps] (default 3000)."""
        count = round(_lognormal(self._rng, self.MAP_COUNT_MEDIAN, self.MAP_COUNT_SIGMA))
        return int(min(max(count, 1), self.max_maps))

    def sample_reduce_count(self) -> int:
        """Reducers per job, clipped to [0, max_reduces] (default 500);
        ~7% of jobs are map-only."""
        if self._rng.random() < 0.07:
            return 0
        count = round(_lognormal(self._rng, self.REDUCE_COUNT_MEDIAN, self.REDUCE_COUNT_SIGMA))
        return int(min(max(count, 1), self.max_reduces))

    def sample_job(self, scale: float = 1.0) -> JobShape:
        """One job shape; ``scale`` shrinks task counts for small-cluster
        experiments without touching the duration marginals."""
        num_maps = max(1, int(round(self.sample_map_count() * scale)))
        reduces = self.sample_reduce_count()
        num_reduces = 0 if reduces == 0 else max(1, int(round(reduces * scale)))
        if num_maps == 0 and num_reduces == 0:
            num_maps = 1
        return JobShape(
            num_maps=num_maps,
            num_reduces=num_reduces,
            map_duration=self.sample_map_duration(),
            reduce_duration=self.sample_reduce_duration() if num_reduces else 0.0,
        )

    def sample_jobs(self, count: int, scale: float = 1.0) -> List[JobShape]:
        return [self.sample_job(scale) for _ in range(count)]


def cdf_points(values: Sequence[float], points: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF evaluated at ``points`` — the Fig 5/6 output format."""
    data = np.sort(np.asarray(values, dtype=float))
    result = []
    for p in points:
        frac = float(np.searchsorted(data, p, side="right")) / max(len(data), 1)
        result.append((p, frac))
    return result
