"""Named crash points and the deterministic fault controller.

The durability layer instruments its dangerous edges — journal appends,
fsyncs, segment rotations, cache publishes, checkpoint writes — with two
hooks:

* :func:`crashpoint(name)` marks a control-flow position.  Unarmed it is
  a dictionary miss (nanoseconds); armed it can raise
  :class:`SimulatedCrash` (the process dies *here*) or an injected
  ``OSError`` (the disk failed, the process survives and must handle it).
* :func:`guarded_write(fh, data, name)` wraps a file write so a fault
  plan can tear it: write a deterministic prefix of the payload, flush,
  then die — exactly the on-disk state a power cut mid-``write(2)``
  leaves behind.

Every instrumented site registers its name at import time via
:func:`register_crashpoint`, so the chaos test matrix can enumerate
*every* crash point without maintaining a parallel list by hand.

:class:`SimulatedCrash` derives from ``BaseException`` on purpose: the
serving code is full of defensive ``except Exception`` blocks (a worker
loop must survive a bad job), and a simulated process death must pierce
all of them the way a real ``SIGKILL`` would.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterator

from repro.errors import ChaosError

__all__ = [
    "SimulatedCrash",
    "FaultSpec",
    "FaultController",
    "armed",
    "crashpoint",
    "guarded_write",
    "register_crashpoint",
    "registered_crashpoints",
]


class SimulatedCrash(BaseException):
    """The process "died" at a crash point.

    A ``BaseException`` so it escapes ``except Exception`` recovery
    blocks — only the chaos harness (or a test) may catch it.
    """

    def __init__(self, point: str, hit: int) -> None:
        self.point = point
        self.hit = hit
        super().__init__(f"simulated crash at {point!r} (hit {hit})")


#: Fault actions a plan may attach to a crash point.
ACTIONS = ("crash", "oserror", "torn")


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: fire ``action`` at the ``hit``-th visit of
    ``point``.

    ``torn_fraction`` only matters for ``action="torn"`` at a
    :func:`guarded_write` site: that fraction of the payload reaches the
    file before the crash (0.0 = nothing, rounded down to whole bytes).
    """

    point: str
    action: str = "crash"
    hit: int = 1
    torn_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ChaosError(
                f"unknown fault action {self.action!r} (want one of {ACTIONS})"
            )
        if self.hit < 1:
            raise ChaosError(f"hit must be >= 1, got {self.hit}")
        if not 0.0 <= self.torn_fraction <= 1.0:
            raise ChaosError(
                f"torn_fraction must be in [0, 1], got {self.torn_fraction}"
            )


class FaultController:
    """Counts crash-point visits and fires the armed faults.

    Thread-safe (the asyncio service journals from worker threads);
    deterministic (visit counters only — no randomness, no clocks).
    """

    def __init__(self, faults: list[FaultSpec]) -> None:
        self._plans: dict[str, list[FaultSpec]] = {}
        for spec in faults:
            self._plans.setdefault(spec.point, []).append(spec)
        self.visits: dict[str, int] = {}
        self.fired: list[FaultSpec] = []
        self._lock = threading.Lock()

    def visit(self, point: str) -> FaultSpec | None:
        """Record one visit; return the fault to fire here, if any."""
        with self._lock:
            count = self.visits.get(point, 0) + 1
            self.visits[point] = count
            for spec in self._plans.get(point, ()):
                if spec.hit == count and spec not in self.fired:
                    self.fired.append(spec)
                    return spec
        return None


# --------------------------------------------------------------------------
# registry + active controller
# --------------------------------------------------------------------------

_REGISTRY: set[str] = set()
_active: FaultController | None = None
_arm_lock = threading.Lock()


def register_crashpoint(name: str) -> str:
    """Register (and return) a crash-point name.  Idempotent.

    Call at module import next to the code that visits the point, so
    ``registered_crashpoints()`` is complete once the durable modules
    are imported.
    """
    _REGISTRY.add(name)
    return name


def registered_crashpoints() -> list[str]:
    """Every crash point any imported module registered, sorted."""
    return sorted(_REGISTRY)


@contextmanager
def armed(*faults: FaultSpec) -> Iterator[FaultController]:
    """Arm a fault plan for the duration of the block.

    Only one plan may be armed at a time (chaos scenarios are
    single-incarnation by construction); nesting raises.
    """
    global _active
    controller = FaultController(list(faults))
    with _arm_lock:
        if _active is not None:
            raise ChaosError("a fault plan is already armed")
        _active = controller
    try:
        yield controller
    finally:
        with _arm_lock:
            _active = None


def crashpoint(name: str) -> None:
    """Visit a crash point; unarmed this is (nearly) free.

    Raises :class:`SimulatedCrash` for ``crash``/``torn`` plans (a torn
    fault at a non-write site degenerates to a crash) and ``OSError``
    for ``oserror`` plans.
    """
    controller = _active
    if controller is None:
        return
    spec = controller.visit(name)
    if spec is None:
        return
    if spec.action == "oserror":
        raise OSError(f"injected I/O error at {name!r}")
    raise SimulatedCrash(name, spec.hit)


def guarded_write(fh: IO[bytes], data: bytes, name: str) -> None:
    """Write ``data`` to ``fh``, honouring torn-write fault plans.

    * no plan / no fault due: plain ``fh.write(data)``;
    * ``oserror``: nothing is written, ``OSError`` raised (callers treat
      it as a failed disk);
    * ``crash``: nothing is written, the process "dies";
    * ``torn``: ``torn_fraction`` of the bytes are written and flushed,
      then the process "dies" — the file now holds a torn record.
    """
    controller = _active
    if controller is None:
        fh.write(data)
        return
    spec = controller.visit(name)
    if spec is None:
        fh.write(data)
        return
    if spec.action == "oserror":
        raise OSError(f"injected I/O error at {name!r}")
    if spec.action == "torn":
        keep = int(len(data) * spec.torn_fraction)
        if keep:
            fh.write(data[:keep])
        fh.flush()
    raise SimulatedCrash(name, spec.hit)
