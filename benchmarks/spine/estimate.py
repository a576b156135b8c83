"""Figures that survive a noisy host.

The VM this benchmark was defined on slows down by tens of percent for
seconds at a time.  Every wall-clock figure is therefore taken as the
**median over equal-count chunks of a run** of the chunk's own figure:
interference spoils some chunks, and the median ignores them as long as
most of the run was quiet.
"""

from __future__ import annotations

import statistics
from typing import Callable, Sequence

import numpy as np

CHUNKS = 20


def chunk_edges(size: int, chunks: int = CHUNKS) -> list[int]:
    chunks = max(1, min(chunks, size))
    return [round(k * size / chunks) for k in range(chunks + 1)]


def chunk_median(
    values: Sequence[float], figure: Callable[[Sequence[float]], float],
    chunks: int = CHUNKS,
) -> float:
    """Median over chunks of ``figure(chunk)``; ``values`` in run order."""
    edges = chunk_edges(len(values), chunks)
    return statistics.median(
        figure(values[lo:hi]) for lo, hi in zip(edges, edges[1:])
    )


def typical(values: Sequence[float], chunks: int = CHUNKS) -> float:
    """The chunk-median of the mean: a typical per-job cost."""
    return chunk_median(values, statistics.fmean, chunks)


def typical_percentile(values: Sequence[float], q: float, chunks: int = CHUNKS) -> float:
    """The chunk-median of a percentile.  Nearest rank, not interpolated:
    a sweep round is 12 points of 12 different sizes, and a value
    interpolated between two sizes belongs to neither."""
    return chunk_median(
        values, lambda chunk: float(np.percentile(chunk, q, method="lower")), chunks
    )


def typical_rate(done_s: Sequence[float]) -> float:
    """Completions per second on a clock that started at 0: the
    chunk-median over the sorted completion times, each chunk timed from
    the completion before it."""
    times = sorted(done_s)
    edges = chunk_edges(len(times))
    rates = []
    for lo, hi in zip(edges, edges[1:]):
        begin = times[lo - 1] if lo else 0.0
        if times[hi - 1] > begin:
            rates.append((hi - lo) / (times[hi - 1] - begin))
    return statistics.median(rates)


def block_median(marks: Sequence[int], seconds: Sequence[float]) -> float:
    """Seconds per job, as the median over blocks of a run.

    ``marks[b]`` jobs were complete and ``seconds[b]`` had been spent by
    the end of block ``b``; a block in which nothing completed is
    counted into the next one.
    """
    costs = []
    jobs_before, seconds_before = 0, 0.0
    for jobs, spent in zip(marks, seconds):
        if jobs > jobs_before:
            costs.append((spent - seconds_before) / (jobs - jobs_before))
            jobs_before, seconds_before = jobs, spent
    return statistics.median(costs)
