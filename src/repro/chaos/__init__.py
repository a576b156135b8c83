"""repro.chaos — deterministic chaos engineering for the serving stack.

Chaos testing here is *seeded and replayable*: a fault plan names a
crash point (a string like ``"journal.append.partial"``) registered by
the durability code, an action (process crash, injected ``OSError``,
torn/short write), and the hit index at which it fires.  Running the
same plan against the same trace produces the same failure at the same
byte — so every recovery bug found by the harness is reproducible with
two integers (seed, hit).

Modules
-------
:mod:`repro.chaos.crashpoints`
    The crash-point registry, the fault controller, and the
    ``crashpoint()`` / ``guarded_write()`` hooks the durable code calls.
:mod:`repro.chaos.harness`
    Kill-and-restart scenarios over the durable serving engine, with the
    recovery invariants (no acknowledged job lost, no duplicated client
    result, idempotent replay) asserted after every restart.
:mod:`repro.chaos.demo`
    The ``python -m repro chaos`` walkthrough.
"""

from repro._lazy import lazy_exports
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
    sigcont_pid,
    sigkill_pid,
    sigstop_pid,
)

# The harness drives the durable engine, which itself imports the crash
# points above: importing it on first use keeps ``repro.serve.durability``
# importable on its own.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {"repro.chaos.harness": ("ChaosScenario", "ScenarioReport", "run_scenario")},
)

__all__ = [
    "PROC_FAULT_KINDS",
    "ChaosScenario",
    "FaultSpec",
    "ProcFault",
    "ScenarioReport",
    "SimulatedCrash",
    "armed",
    "crashpoint",
    "guarded_write",
    "register_crashpoint",
    "registered_crashpoints",
    "run_scenario",
    "sigcont_pid",
    "sigkill_pid",
    "sigstop_pid",
]
