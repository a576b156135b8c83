"""Cartesian parameter sweeps with optional process parallelism.

A sweep evaluates ``fn(**point)`` over the cartesian product of the
parameter axes.  Points are dictionaries, results arbitrary values; the
evaluation function must be a module-level callable when
``processes > 1`` (pickling), which all the shipped explorations satisfy.
Results preserve the cartesian order regardless of the execution backend,
so sweeps are reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable

from repro.errors import DSEError

__all__ = ["SweepResult", "sweep", "axis_points"]


def _call(task: tuple[Callable[..., Any], dict[str, Any]]) -> Any:
    """Module-level trampoline so ``executor.map`` can pickle the work."""
    fn, point = task
    return fn(**point)


def axis_points(axes: dict[str, list[Any]]) -> list[dict[str, Any]]:
    """All parameter combinations of the axes, in cartesian order."""
    if not axes:
        raise DSEError("sweep needs at least one axis")
    for name, values in axes.items():
        if not values:
            raise DSEError(f"axis {name!r} has no values")
    names = list(axes)
    return [dict(zip(names, combo)) for combo in product(*axes.values())]


@dataclass
class SweepResult:
    """All evaluated points of one sweep."""

    axes: dict[str, list[Any]]
    points: list[dict[str, Any]] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)
    #: Configuration-compiler cache activity during this sweep (the
    #: :class:`repro.compile.CacheStats` delta of the parent process;
    #: worker processes keep their own caches).  Fabric-measured sweeps
    #: over repeated points show up here as hits instead of lowers.
    compile_cache: Any = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(zip(self.points, self.values))

    def series(self, x_axis: str, where: dict[str, Any] | None = None) -> list[tuple[Any, Any]]:
        """(x, value) pairs for points matching the ``where`` filter."""
        out = []
        for point, value in self:
            if where and any(point.get(k) != v for k, v in where.items()):
                continue
            out.append((point[x_axis], value))
        return out

    def best(self, key: Callable[[Any], float], maximize: bool = True):
        """The (point, value) with the extremal ``key(value)``."""
        if not self.points:
            raise DSEError("sweep produced no points")
        chooser = max if maximize else min
        return chooser(zip(self.points, self.values), key=lambda pv: key(pv[1]))


def sweep(
    fn: Callable[..., Any],
    axes: dict[str, list[Any]],
    processes: int | str = 1,
) -> SweepResult:
    """Evaluate ``fn`` over the cartesian product of ``axes``.

    ``processes > 1`` fans the evaluations out over a process pool —
    the sweep axes of Figs. 10-12 are embarrassingly parallel.
    ``processes="auto"`` sizes the pool to :func:`os.cpu_count`.  Points
    are dispatched with a chunked ``executor.map`` (one pickle round-trip
    per chunk instead of per point), and the order of results always
    matches :func:`axis_points`.
    """
    from repro.compile import cache_stats

    points = axis_points(axes)
    if processes == "auto":
        processes = os.cpu_count() or 1
    if not isinstance(processes, int):
        raise DSEError(f"processes must be an int or 'auto', got {processes!r}")
    if processes < 1:
        raise DSEError(f"processes must be >= 1, got {processes}")
    before = cache_stats().snapshot()
    if processes == 1 or len(points) == 1:
        values = [fn(**point) for point in points]
    else:
        # ~4 chunks per worker balances scheduling slack against pickling
        # overhead for the small, even workloads a sweep produces.
        chunksize = max(1, len(points) // (processes * 4))
        # Imported here: it pulls in multiprocessing, which every process
        # that merely imports repro (each shard worker) would pay for.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=processes) as pool:
            values = list(
                pool.map(_call, [(fn, p) for p in points], chunksize=chunksize)
            )
    return SweepResult(
        axes=axes,
        points=points,
        values=values,
        compile_cache=cache_stats().delta(before),
    )
