"""``python -m repro cluster`` — the scale-out walkthrough.

Runs one deterministic cluster scenario on the real execution tier —
N shards of durable engines behind the consistent-hash router, a
Zipf-skewed job trace, work stealing on, one shard killed mid-run and
handed off, another *live-drained* out of the ring — then a supervised
lifecycle pass (phi-accrual health verdicts, anti-entropy scrub, the
``cluster_*``/``scrub_*`` gauges) and a quick synthetic load sweep.
Prints the routing / stealing / handoff / drain accounting and every
invariant verdict; exits non-zero on any violation (the CI smoke gate).

``--procs N`` runs the same scenario runner over N real worker
subprocesses behind the framed RPC transport: a SIGKILL of the hottest
shard mid-trace (unless ``--no-kill``), and the supervisor's full
detect → handoff → respawn → scrub-gate → rejoin pipeline — the same
invariants, now across actual process death.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.chaos.procfaults import ProcFault
from repro.cluster.harness import ClusterScenario, run_cluster_scenario
from repro.cluster.lifecycle import ClusterSupervisor, drain_shard
from repro.cluster.loadgen import LoadSpec, run_load
from repro.cluster.router import ShardRouter
from repro.serve.durability.journal import FsyncPolicy
from repro.serve.jobs import JobRequest, fft_spec

__all__ = ["main"]

#: Lifecycle metric families the demo surfaces (satellite: the drain /
#: health / scrub gauges must be visible from ``python -m repro cluster``).
_LIFECYCLE_METRIC_PREFIXES = (
    "cluster_shard_state",
    "cluster_drain_backlog",
    "cluster_drains_total",
    "cluster_jobs_drained_total",
    "scrub_segments_verified_total",
    "scrub_corruption_found_total",
)


def _run_lifecycle_demo(seed: int) -> dict:
    """A small *supervised* cluster: serve, drain one shard live, scrub.

    Returns the lifecycle accounting (drain report, supervisor report,
    scrub report, rendered metric lines) for printing / JSON.
    """
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory(prefix="repro-lifecycle-") as tmp:
        router = ShardRouter(
            Path(tmp),
            [f"shard-{i}" for i in range(3)],
            pool_size=1,
            fsync=FsyncPolicy.NEVER,
        )
        supervisor = ClusterSupervisor(router, scrub_every=1)
        for index in range(12):
            payload = (
                rng.standard_normal(16) + 1j * rng.standard_normal(16)
            )
            router.submit(
                JobRequest(
                    spec=fft_spec(16, 4, 2),
                    payload=payload,
                    job_id=f"lc-{index:03d}",
                )
            )
        # Two supervised rounds with everyone serving...
        for _ in range(2):
            supervisor.tick()
            router.rebalance()
            router.step_round()
        # ...then pull shard-1 out from under the load, live.
        drain = drain_shard(router, "shard-1")
        supervisor.run()
        metric_lines = [
            line
            for line in router.metrics.render().splitlines()
            if not line.startswith("#")
            and line.startswith(_LIFECYCLE_METRIC_PREFIXES)
        ]
        states = {
            name: state.value
            for name, state in supervisor.monitor.states().items()
        }
        completed = len(router.results)
        router.close()
    return {
        "drain": drain.as_dict(),
        "supervisor": supervisor.report.as_dict(),
        "scrub": supervisor.scrubber.report.as_dict(),
        "shard_states": states,
        "jobs_completed": completed,
        "metrics": metric_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="sharded scale-out serving demo (routing, stealing, "
        "shard-kill handoff, live drain, supervised lifecycle)",
    )
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--jobs", type=int, default=500)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--procs",
        type=int,
        default=0,
        metavar="N",
        help="run N shards as real OS subprocesses behind framed RPC "
        "instead of the in-process tier (with --kill: SIGKILL the "
        "hottest shard mid-trace and supervise its rejoin)",
    )
    parser.add_argument(
        "--kill",
        dest="kill",
        action="store_true",
        default=True,
        help="kill one shard mid-run and hand its journal off (default)",
    )
    parser.add_argument("--no-kill", dest="kill", action="store_false")
    parser.add_argument(
        "--drain",
        dest="drain",
        action="store_true",
        default=True,
        help="live-drain one shard mid-run (default; needs >= 3 shards "
        "when combined with --kill)",
    )
    parser.add_argument("--no-drain", dest="drain", action="store_false")
    parser.add_argument(
        "--load-jobs",
        type=int,
        default=20_000,
        help="synthetic open-loop jobs for the load sweep (0 skips it)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    args = parser.parse_args(argv)

    procs = args.procs > 0
    shards = args.procs if procs else args.shards
    # In-process, one shard is killed (handoff) and another live-drained
    # — never the same one, nor the last one serving.  Over processes
    # the hottest shard is SIGKILL'd instead and must rejoin.
    kill_index = 1 if args.kill and shards > 1 and not procs else None
    drain_index: int | None = None
    if args.drain and not procs:
        min_shards = 3 if kill_index is not None else 2
        if shards >= min_shards:
            drain_index = 2 if kill_index is not None else 1
    kill_after = max(2, args.jobs // 5)
    sigkill = ProcFault(kind="sigkill", after_completions=kill_after)
    scenario = ClusterScenario(
        faults=(sigkill,) if procs and args.kill else (),
        processes=procs,
        seed=args.seed,
        n_jobs=args.jobs,
        n_shards=shards,
        kill_shard=kill_index,
        kill_after=kill_after,
        drain_shard=drain_index,
        drain_after=max(2, args.jobs // 3),
        deadline_s=max(180.0, args.jobs * 0.5),
    )
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
        report = run_cluster_scenario(scenario, Path(tmp))
    lifecycle = None
    if report.ok and not procs:
        lifecycle = _run_lifecycle_demo(args.seed)

    if args.json:
        body = report.as_dict()
        body["lifecycle"] = lifecycle
        print(json.dumps(body, indent=2, sort_keys=True))
        return 0 if report.ok else 1

    print(
        "multi-process shards: framed RPC, SIGKILL, supervised rejoin"
        if procs
        else "sharded scale-out serving: routing, stealing, handoff, drain"
    )
    print("=" * 68)
    print(
        f"shards={shards}  jobs={args.jobs}  "
        f"killed={report.shard_killed or report.victim or 'nobody'}"
        + (f" (pid {report.victim_pid})" if report.victim_pid else "")
        + f"  drained={report.shard_drained or 'nobody'}"
    )
    print(
        f"acked={report.jobs_acked}  completed={report.jobs_completed}  "
        f"steals={report.steals}  handoffs={report.handoffs}  "
        f"rpc_retries={report.rpc_retries}"
    )
    if report.shard_drained:
        print(
            f"drain_moved={report.drain_moved}  "
            f"drain_deduped={report.drain_deduped}  "
            f"drain_expired={report.drain_expired}"
        )
    if report.rejoin:
        rejoin = report.rejoin
        print(
            f"rejoin: ok={rejoin['ok']}  "
            f"mttr={rejoin['mttr_s'] * 1e3:.0f} ms  "
            f"requeued={rejoin['recovered_requeued']}  "
            f"deduped={rejoin['deduped_on_rejoin']}  "
            f"compacted={rejoin['compacted_records']}"
        )
    print(
        f"duplicate_executions={report.duplicate_executions}  "
        f"journal_records={report.journal_records}  "
        f"restarts={report.restarts}  rounds={report.rounds}"
    )
    verdict = "OK " if report.ok else "FAIL"
    print(
        f"[{verdict}] no acked job lost, outputs bit-identical, "
        f"per-journal results unique"
        + (", dead shard rejoined" if scenario.proc_fault else "")
    )
    for violation in report.violations:
        print(f"      VIOLATION: {violation}")

    if lifecycle is not None:
        print("\nsupervised lifecycle (health, live drain, anti-entropy)")
        print("-" * 68)
        drain = lifecycle["drain"]
        scrub = lifecycle["scrub"]
        print(
            f"drained={drain['shard']}  backlog={drain['backlog']}  "
            f"moved={drain['moved']}  completed="
            f"{lifecycle['jobs_completed']}/12"
        )
        print(
            f"scrub: segments={scrub['segments_verified']}  "
            f"records={scrub['records_verified']}  "
            f"corruption={scrub['corruption_found']}"
        )
        print(
            "states: "
            + "  ".join(
                f"{name}={state}"
                for name, state in sorted(
                    lifecycle["shard_states"].items()
                )
            )
        )
        for line in lifecycle["metrics"]:
            print(f"  {line}")

    if args.load_jobs > 0 and report.ok and not procs:
        print("\nopen-loop synthetic load (Zipf-skewed plans)")
        print("-" * 68)
        for shards in (1, 2, 4):
            load = run_load(
                LoadSpec(
                    n_jobs=args.load_jobs, n_shards=shards, seed=args.seed
                )
            )
            print(
                f"shards={shards}  p50={load.p50_ms:8.3f} ms  "
                f"p99={load.p99_ms:8.3f} ms  p999={load.p999_ms:8.3f} ms  "
                f"steals={load.steals}"
            )
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
