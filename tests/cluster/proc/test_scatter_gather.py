"""Scatter/gather rounds over real shard processes.

A round begins a step on every shard before it collects one, so shard
processes execute at the same time.  Two things must survive that:

* **what a round is** — the same seeded trace through loopback shards
  (which execute one by one, at collection) and through subprocesses
  (which overlap) gives the same results in the same order;
* **what a failure is** — a shard that dies *between* the scatter and
  the gather costs the round nothing but that shard's job: the round
  returns normally, the other shard's job is delivered, and the
  supervisor's handoff + rejoin recovers the rest.  The same holds for
  a shard that dies under the round's ``rebalance()``, on either side
  of a steal.

No test here looks at a clock: overlap is a throughput property and is
measured by ``benchmarks/spine``, not asserted.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.cluster.lifecycle import ClusterSupervisor
from repro.cluster.proc.rpc import RetryPolicy
from repro.cluster.proc.shard import ProcShardWorker
from repro.cluster.ring import HashRing
from repro.cluster.router import ShardRouter, spec_routing_key
from repro.serve.jobs import JobRequest, JobStatus, fft_spec, jpeg_spec

FFT = fft_spec(16, 4, 2)
_SPECS = (FFT, jpeg_spec(75, False), jpeg_spec(50, False))


def _request(index: int, spec=None) -> JobRequest:
    spec = spec if spec is not None else _SPECS[index % len(_SPECS)]
    rng = np.random.default_rng(1000 + index)
    if spec.kind.value == "fft":
        payload = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
    else:
        payload = rng.integers(0, 256, size=(8, 8), dtype=np.int64)
    return JobRequest(spec=spec, payload=payload, job_id=f"sg-{index:03d}")


# ----------------------------------------------------------------------
# equivalence
# ----------------------------------------------------------------------


def _drive(router: ShardRouter) -> dict:
    """A skewed 3-shard trace, drained with stealing on."""
    try:
        # A burst on one configuration (the steal source), then a mix.
        jobs = [_request(i, FFT) for i in range(8)]
        jobs += [_request(i) for i in range(8, 20)]
        for job in jobs:
            router.submit(job)
        completed, steals = [], []
        while router.pending:
            steals.append(router.rebalance())
            completed.append(router.step_round())
        return {
            "order": list(router.results),
            "completed": completed,
            "steals": steals,
            "owner": dict(router.owner),
            "results": [
                (r.job_id, r.status, r.warm, r.sim_ns, r.reconfig_ns,
                 np.asarray(r.output).tobytes())
                for r in router.results.values()
            ],
        }
    finally:
        router.close()


def test_in_process_and_subprocess_rounds_agree(tmp_path):
    names = ["shard-0", "shard-1", "shard-2"]
    local = _drive(ShardRouter(tmp_path / "local", names))
    remote = _drive(
        ShardRouter(
            tmp_path / "remote", names, worker_factory=ProcShardWorker
        )
    )
    assert sum(local["steals"]) > 0  # the trace does exercise stealing
    assert len(local["order"]) == 20
    assert all(status is JobStatus.DONE for _, status, *_ in local["results"])
    assert remote == local


# ----------------------------------------------------------------------
# death between scatter and gather
# ----------------------------------------------------------------------

#: The victim's first step reply that carries a result (the worker
#: counts responses per op; see ``repro.cluster.proc.worker``).
_FIRST_STEP_REPLY = "step:1"


def _after_begin(action):
    """Fault: run ``action(shard)`` right after the shard's step is sent."""

    def install(shard):
        begin = shard.step_begin

        def begin_then_fault():
            begin()
            action(shard)

        shard.step_begin = begin_then_fault

    return install


def _sigkill(shard):
    os.kill(shard.pid, signal.SIGKILL)
    shard.proc.wait(timeout=30)


FAULTS = {
    # the process is gone before the gather reads: EOF
    "sigkill": ({}, _after_begin(_sigkill)),
    # the process hangs with the request in hand: timeout, still "alive"
    "sigstop": ({}, _after_begin(ProcShardWorker.sigstop)),
    # the process executes the job, then dies instead of acking it
    "exit-before-ack": (
        {"REPRO_PROC_EXIT_AFTER": _FIRST_STEP_REPLY}, None
    ),
    # ... or dies half-way through writing the ack
    "torn-frame": (
        {"REPRO_PROC_TORN_AFTER": _FIRST_STEP_REPLY}, None
    ),
}


@pytest.mark.slow
@pytest.mark.parametrize("victim", ["shard-0", "shard-1"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_death_between_scatter_and_gather(tmp_path, fault, victim):
    chaos_env, install = FAULTS[fault]
    armed = {victim: chaos_env}  # the respawn must come up clean

    def factory(name, directory):
        return ProcShardWorker(
            name,
            directory,
            chaos_env=armed.pop(name, None),
            call_timeout_s=1.0,
            heartbeat_timeout_s=0.3,
            retry=RetryPolicy(attempts=2, base_delay_s=0.01, max_delay_s=0.02),
        )

    names = ["shard-0", "shard-1"]
    survivor = names[1 - names.index(victim)]
    router = ShardRouter(tmp_path, names, worker_factory=factory)
    try:
        supervisor = ClusterSupervisor(
            router, scrub_every=0, max_respawns_per_shard=2
        )
        jobs = {name: [] for name in names}
        for index in range(4):
            name = names[index % 2]
            job = _request(index, FFT)
            jobs[name].append(job)
            assert router.shards[name].submit(job) is None
        if install is not None:
            install(router.shards[victim])

        # The round returns normally with the survivor's job folded.
        assert router.step_round() == 1
        assert list(router.results) == [jobs[survivor][0].job_id]
        assert router.shards[survivor].alive
        assert router.shards[victim].queue_depth == 0  # gone or given up on

        # The supervisor owns the rest: verdict, handoff, respawn, rejoin.
        supervisor.run()
        assert [r.shard for r in supervisor.rejoins] == [victim]
        assert supervisor.rejoins[0].ok
        assert router.shards[victim].alive and victim in router.ring
        for job in jobs[victim] + jobs[survivor]:
            result = router.results[job.job_id]
            assert result.status is JobStatus.DONE
            if not result.recovered:
                np.testing.assert_allclose(
                    result.output, np.fft.fft(job.payload), atol=1e-6
                )
    finally:
        router.close()
        for shard in router.shards.values():
            if shard.proc.poll() is None:
                shard.kill()


# ----------------------------------------------------------------------
# death under rebalance
# ----------------------------------------------------------------------

#: Which side of a steal dies, on which of its responses.
STEAL_REPLIES = {
    # the thief journals SUBMITTED and dies: no steal happened
    "thief-submit-ack": ("thief", "submit:1"),
    # the victim journals MOVED and dies: the thief owns the job
    "release-ack": ("victim", "release:1"),
}


@pytest.mark.slow
@pytest.mark.parametrize("reply", sorted(STEAL_REPLIES))
@pytest.mark.parametrize(
    "hook", ["REPRO_PROC_EXIT_AFTER", "REPRO_PROC_TORN_AFTER"]
)
def test_death_under_rebalance_stays_inside_the_round(tmp_path, hook, reply):
    names = ["shard-0", "shard-1"]
    # Every job homes on one shard, so the other's first submit ack is a
    # thief's and the home shard is every steal's victim.
    home = HashRing(names).route(spec_routing_key(FFT))
    sides = {"victim": home, "thief": names[1 - names.index(home)]}
    side, response = STEAL_REPLIES[reply]
    dying = sides[side]
    armed = {dying: {hook: response}}  # the respawn must come up clean

    def factory(name, directory):
        return ProcShardWorker(
            name,
            directory,
            chaos_env=armed.pop(name, None),
            call_timeout_s=1.0,
            heartbeat_timeout_s=0.3,
            retry=RetryPolicy(attempts=2, base_delay_s=0.01, max_delay_s=0.02),
        )

    router = ShardRouter(tmp_path, names, worker_factory=factory)
    try:
        supervisor = ClusterSupervisor(
            router, scrub_every=0, max_respawns_per_shard=2
        )
        jobs = [_request(index, FFT) for index in range(8)]
        for job in jobs:
            assert router.submit(job) is None
        assert router.shards[home].queue_depth == 8

        # The steal hits the armed reply; neither call raises.
        router.rebalance()
        assert not router.shards[dying].alive
        assert router.steals == 0  # no move completed
        router.step_round()

        supervisor.run()
        assert [r.shard for r in supervisor.rejoins] == [dying]
        assert supervisor.rejoins[0].ok
        assert router.shards[dying].alive and dying in router.ring
        assert router.pending == 0
        for job in jobs:
            result = router.results[job.job_id]
            assert result.status is JobStatus.DONE
            if not result.recovered:
                np.testing.assert_allclose(
                    result.output, np.fft.fft(job.payload), atol=1e-6
                )
    finally:
        router.close()
        for shard in router.shards.values():
            if shard.proc.poll() is None:
                shard.kill()
