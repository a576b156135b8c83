"""Real process-level faults for the multi-process cluster tier.

The crash points of :mod:`repro.chaos.crashpoints` simulate death *in*
process: an exception unwinds the stack at a chosen byte.  A real shard
subprocess can die in ways no in-process simulation reaches — the
kernel reaps it mid-``write`` (torn frame on the pipe), SIGSTOP freezes
it with the journal lock held, the router's next ``submit`` hits EPIPE
— and those are exactly the faults this module injects, against live
pids.

Each :class:`ProcFault` names a *kind* and a *trigger* (fire after the
victim has completed ``after_completions`` jobs).  ``torn`` and ``exit``
arm the worker's own chaos hooks via environment instead of signals,
because the death has to happen inside the victim's write path; their
trigger is a *protocol event* — ``response="op:n"``, the victim's
``n``-th response to ``op`` — so a case names the kind of reply it
destroys (a client ``submit`` ack, a ``step`` reply carrying a result,
a thief-side ``submit`` ack inside a steal, a ``release`` ack) instead
of an index that happens to land on one:

===========  ==========================================================
``sigkill``  ``SIGKILL`` the victim process mid-trace.  The router sees
             EOF/EPIPE; heartbeats go silent; phi accrues to DEAD.
``sigstop``  ``SIGSTOP`` — the process is *alive but wedged*, keeps its
             journal-dir flock, and times out every RPC.  The DEAD
             verdict's kill action sends the SIGKILL that actually ends
             it (SIGKILL works on stopped processes).
``torn``     The victim writes half of the chosen response frame and
             exits (armed at spawn via ``REPRO_PROC_TORN_AFTER``): a
             half-written length-prefixed frame, the wire-codec twin of
             a torn journal line.
``exit``     The victim exits just before writing the chosen response
             (``REPRO_PROC_EXIT_AFTER``): it did the work, journaled
             it, and the router sees EOF where the ack should be.
``epipe``    Like ``sigkill``, but the harness then *submits to the
             dead shard* before supervision notices, proving the ack
             path surfaces a typed transport error instead of
             fabricating an ack.
===========  ==========================================================
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

from repro.errors import ChaosError

__all__ = ["PROC_FAULT_KINDS", "ProcFault", "sigkill_pid", "sigstop_pid"]

PROC_FAULT_KINDS = ("sigkill", "sigstop", "torn", "exit", "epipe")

_SPAWN_HOOKS = {
    "torn": "REPRO_PROC_TORN_AFTER",
    "exit": "REPRO_PROC_EXIT_AFTER",
}


@dataclass(frozen=True)
class ProcFault:
    """One planned process-level fault against a shard subprocess."""

    kind: str
    #: Fire once the cluster has completed this many jobs (the fault
    #: lands mid-trace, not at the edges where it would prove nothing).
    after_completions: int = 4
    #: For ``torn`` / ``exit``: the response the victim dies on, as
    #: ``"op:n"`` — its ``n``-th response to ``op``; for ``step`` only
    #: replies carrying a result count (counted in the worker, armed at
    #: spawn).
    response: str = "step:1"

    def __post_init__(self) -> None:
        if self.kind not in PROC_FAULT_KINDS:
            raise ChaosError(
                f"unknown process fault {self.kind!r} "
                f"(have {', '.join(PROC_FAULT_KINDS)})"
            )
        if self.after_completions < 0:
            raise ChaosError(
                f"after_completions must be >= 0, got {self.after_completions}"
            )

    @property
    def at_spawn(self) -> bool:
        """Is this fault armed in the victim's environment at spawn (so
        the victim must be chosen up front) rather than fired later?"""
        return self.kind in _SPAWN_HOOKS

    @property
    def spawn_env(self) -> dict[str, str]:
        """Environment that arms the worker-side hook, if the kind has one."""
        if self.at_spawn:
            return {_SPAWN_HOOKS[self.kind]: self.response}
        return {}


def _signal_pid(pid: int, sig: int) -> bool:
    """Deliver a signal; False when the process is already gone."""
    try:
        os.kill(pid, sig)
        return True
    except ProcessLookupError:
        return False


def sigkill_pid(pid: int) -> bool:
    """The unblockable end (works on SIGSTOP'd processes too)."""
    return _signal_pid(pid, signal.SIGKILL)


def sigstop_pid(pid: int) -> bool:
    """Freeze a process: alive to the kernel, silent on every pipe."""
    return _signal_pid(pid, signal.SIGSTOP)
