"""Does the benchmark measure what it says, and the same thing twice?

    python3 benchmarks/spine/selfcheck.py

Runs every workload's traced run twice at a small size with one seed
and asserts that

* every count marked ``=`` in README.md, and the simulated times, are
  bit-equal between the two runs;
* the run itself was correct — no job failed its oracle, R0 and R1
  agreed on steals, rounds, completion order, warm flags and outputs,
  and R2 - R5 reproduced R1's outputs and simulated times;
* a second seed yields a different job list.
"""

from __future__ import annotations

import itertools
import json
import sys

import run
from drive import pin_driver
from workloads import WORKLOADS, job_stream, sweep_rounds

SECONDS = 3.0
SEED = 7

#: Figures that must repeat exactly for one (workload, seed, seconds).
EXACT = (
    "router.rounds_per_job",
    "router.steals_per_job",
    "rpc.calls_per_job",
    "rpc.retries",
    "wire.bytes_per_job",
    "journal.records_per_job",
    "journal.bytes_per_job",
    "pool.warm_share",
    "fabric.instr_per_job",
    "fabric.cycles_per_job",
    "sim_us_per_job",
    "reconfig_us_per_job",
    "failed_share",
)


def traced(workload, seed: int, names: list[str]):
    trace = run.trace_sweep if workload.mix == "sweep" else run.trace_cluster
    metrics, _, failed, _, problems, _ = trace(workload, seed, SECONDS, names)
    return metrics, failed, problems


def job_list_differs(workload) -> bool:
    if workload.mix == "sweep":
        first, second = (
            [(p.link_cost_ns, p.x.tobytes()) for p in sweep_rounds(seed)[0]]
            for seed in (SEED, SEED + 1)
        )
    else:
        if workload.mix == "zipf":
            plans = workload.plans[0]
        else:  # any one plan of each candidate list will do here
            plans = tuple(options[0] for options in workload.plans)
        first, second = (
            [
                (job.spec.config_key, job.payload.tobytes())
                for job in itertools.islice(job_stream(workload, plans, seed), 32)
            ]
            for seed in (SEED, SEED + 1)
        )
    return first != second


def main() -> int:
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    complaints: list[str] = []
    pin_driver()
    for workload in WORKLOADS.values():
        first, failed, problems = traced(workload, SEED, names)
        second, failed_again, problems_again = traced(workload, SEED, names)
        complaints += [f"{workload.name}: {p}" for p in problems + problems_again]
        if failed or failed_again:
            complaints.append(f"{workload.name}: {failed + failed_again} jobs failed")
        for name in EXACT:
            if first[name] != second[name]:
                complaints.append(
                    f"{workload.name}: {name} {first[name]!r} != {second[name]!r}"
                )
        if not job_list_differs(workload):
            complaints.append(f"{workload.name}: seed does not change the job list")
        print(f"{workload.name}: checked {len(EXACT)} exact figures twice")
    for complaint in complaints:
        print("FAIL", complaint)
    print("selfcheck", "FAILED" if complaints else "passed")
    return 1 if complaints else 0


if __name__ == "__main__":
    sys.exit(main())
