"""``python -m repro chaos`` — the kill-and-restart walkthrough.

Runs a small ladder of deterministic chaos scenarios against the durable
serving engine and prints, for each, where the process "died", how many
restarts recovery needed, how much work the epoch checkpoints saved, and
whether every invariant of :mod:`repro.chaos.invariants` held (the same
oracle the cluster runner applies to both shard transports).
Everything is seeded: run it twice, get the same bytes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.chaos.crashpoints import FaultSpec
from repro.chaos.harness import ChaosScenario, run_scenario

__all__ = ["main"]


#: The demo ladder: name -> fault plan (all other knobs shared).
SCENARIOS: dict[str, tuple[FaultSpec, ...]] = {
    "clean (no faults)": (),
    "crash mid-append (torn SUBMITTED record)": (
        FaultSpec("journal.append", action="torn", hit=2, torn_fraction=0.5),
    ),
    "crash after append, before ack bookkeeping": (
        FaultSpec("journal.append.after", action="crash", hit=3),
    ),
    "disk error during an append (process survives)": (
        FaultSpec("journal.append", action="oserror", hit=1),
    ),
    "crash mid-checkpoint write (resume falls back)": (
        FaultSpec("checkpoint.write", action="crash", hit=1),
    ),
    "two deaths: torn append, then a crash on the retry run": (
        FaultSpec("journal.append", action="torn", hit=4, torn_fraction=0.25),
        FaultSpec("journal.append.after", action="crash", hit=9),
    ),
}


def main(argv: list[str] | None = None) -> int:
    del argv  # no knobs: the ladder is the demo
    print("deterministic chaos: kill-and-restart over the durable engine")
    print("=" * 68)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        for index, (name, faults) in enumerate(SCENARIOS.items()):
            scenario = ChaosScenario(
                faults=faults,
                seed=7,
                n_jobs=4,
                checkpoint_every_slices=2,
            )
            report = run_scenario(scenario, Path(tmp) / f"s{index}")
            verdict = "OK " if report.ok else "FAIL"
            print(f"\n[{verdict}] {name}")
            print(
                f"      restarts={report.restarts}"
                f"  acked={report.jobs_acked}"
                f"  completed={report.jobs_completed}"
                f"  recovered_finished={report.jobs_recovered_finished}"
            )
            print(
                f"      resumed_jobs={report.jobs_resumed}"
                f"  resumed_slices={report.resumed_slices}"
                f"  torn_lines_dropped={report.corrupt_lines_dropped}"
                f"  submit_errors={report.submit_errors}"
            )
            if report.faults_fired:
                print(f"      fired: {', '.join(report.faults_fired)}")
            for violation in report.violations:
                failures += 1
                print(f"      VIOLATION: {violation}")
    print("\n" + "=" * 68)
    if failures:
        print(f"{failures} invariant violation(s) — recovery is broken")
        return 1
    print(
        "all scenarios green: no acked job lost, no duplicated result,\n"
        "every executed output bit-identical to the fault-free baseline"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
