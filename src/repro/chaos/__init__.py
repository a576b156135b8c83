"""repro.chaos — deterministic chaos engineering for the serving stack.

Chaos testing here is *seeded and replayable*: a fault plan names a
crash point (a string like ``"journal.append.partial"``) registered by
the durability code, an action (process crash, injected ``OSError``,
torn/short write), and the hit index at which it fires.  Running the
same plan against the same trace produces the same failure at the same
byte — so every recovery bug the runner finds is reproducible with two
integers (seed, hit).  The one kill-and-restart runner is
:func:`repro.cluster.harness.run_cluster_scenario`; a single durable
engine is its one-shard scenario.

Modules
-------
:mod:`repro.chaos.crashpoints`
    The crash-point registry, the fault controller, and the
    ``crashpoint()`` / ``guarded_write()`` hooks the durable code calls.
:mod:`repro.chaos.procfaults`
    Process-level faults (SIGKILL, SIGSTOP, torn or missing replies) for
    shard subprocesses.
:mod:`repro.chaos.invariants`
    The serving oracle: no acknowledged job lost, no conflicting client
    result, idempotent replay, bit-identical outputs.
:mod:`repro.chaos.demo`
    The ``python -m repro chaos`` walkthrough.
"""

from repro.chaos.crashpoints import (
    FaultSpec,
    SimulatedCrash,
    armed,
    crashpoint,
    guarded_write,
    register_crashpoint,
    registered_crashpoints,
)
from repro.chaos.procfaults import (
    PROC_FAULT_KINDS,
    ProcFault,
    sigkill_pid,
    sigstop_pid,
)

__all__ = [
    "PROC_FAULT_KINDS",
    "FaultSpec",
    "ProcFault",
    "SimulatedCrash",
    "armed",
    "crashpoint",
    "guarded_write",
    "register_crashpoint",
    "registered_crashpoints",
    "sigkill_pid",
    "sigstop_pid",
]
