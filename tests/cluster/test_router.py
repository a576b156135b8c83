"""ShardRouter mechanics: placement, dedup, stealing rules, handoff.

Crash-interleaved behaviour lives in ``test_cluster_chaos.py``; these
tests pin the fault-free protocol rules one at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.ring import KEY_BITS
from repro.cluster.router import ShardRouter, spec_routing_key
from repro.errors import ClusterError
from repro.serve.jobs import (
    JobRequest,
    JobResult,
    JobStatus,
    fft_spec,
    jpeg_spec,
)

HOT = fft_spec(16, 4, 2)
COLD = jpeg_spec(75, False)
THIRD = jpeg_spec(50, False)


def _request(spec, job_id):
    rng = np.random.default_rng(abs(hash(job_id)) % (2**32))
    if spec.kind.value == "fft":
        payload = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    else:
        payload = rng.integers(0, 256, size=(8, 8), dtype=np.int64)
    return JobRequest(spec=spec, payload=payload, job_id=job_id)


@pytest.fixture
def pair(tmp_path):
    router = ShardRouter(tmp_path, ["a", "b"], steal_margin=2)
    yield router
    router.close()


class TestRoutingKeys:
    def test_key_is_deterministic_and_in_the_ring_space(self):
        assert spec_routing_key(HOT) == spec_routing_key(HOT)
        assert 0 <= spec_routing_key(HOT) < (1 << KEY_BITS)

    def test_distinct_configurations_get_distinct_keys(self):
        keys = {spec_routing_key(s) for s in (HOT, COLD, THIRD)}
        assert len(keys) == 3

    def test_same_spec_lands_on_one_shard(self, pair):
        assert len({pair.shard_for(HOT) for _ in range(5)}) == 1
        for i in range(4):
            pair.submit(_request(HOT, f"loc-{i}"))
        assert len(set(pair.owner.values())) == 1


class TestSubmitDedup:
    def test_resubmit_of_a_queued_job_is_absorbed(self, pair):
        request = _request(HOT, "dup-0")
        assert pair.submit(request) is None
        before = pair.pending
        assert pair.submit(_request(HOT, "dup-0")) is None
        assert pair.pending == before

    def test_resubmit_of_a_finished_job_returns_its_result(self, pair):
        pair.submit(_request(HOT, "dup-1"))
        pair.run()
        result = pair.submit(_request(HOT, "dup-1"))
        assert result is not None and result.status is JobStatus.DONE


class TestStealing:
    def test_imbalance_moves_cold_hash_jobs_until_the_margin(self, pair):
        home = pair.shard_for(HOT)
        thief = "b" if home == "a" else "a"
        for i in range(6):
            pair.submit(_request(HOT, f"st-{i}"))
        assert pair.shards[home].queue_depth == 6
        moved = pair.rebalance()
        # 6/0 -> 5/1 -> 4/2: the next gap equals the margin, so stop.
        assert moved == 2 and pair.steals == 2
        assert pair.shards[thief].queue_depth == 2
        assert pair.shards[home].jobs_stolen_away == 2
        assert pair.shards[thief].jobs_stolen_in == 2
        stolen = [j for j, o in pair.owner.items() if o == thief]
        assert len(stolen) == 2
        pair.run()
        assert all(
            r.status is JobStatus.DONE for r in pair.results.values()
        )
        assert len(pair.results) == 6

    def test_warm_affinity_is_never_broken(self, pair):
        home = pair.shard_for(HOT)
        pair.submit(_request(HOT, "warmup"))
        pair.run()  # HOT's configuration is now resident on its home
        assert HOT.config_key in pair.shards[home].resident_keys()
        for i in range(6):
            pair.submit(_request(HOT, f"aff-{i}"))
        assert pair.shards[home].steal_candidates() == []
        assert pair.rebalance() == 0 and pair.steals == 0

    def test_checkpoint_resumes_are_not_candidates(self, pair):
        home = pair.shard_for(HOT)
        for i in range(3):
            pair.submit(_request(HOT, f"rs-{i}"))
        shard = pair.shards[home]
        shard.rpc.engine.queue[0].resume_slice = 2
        candidates = {r.job_id for r in shard.steal_candidates()}
        assert candidates == {"rs-1", "rs-2"}


class _RecordingShard:
    """The slice of the shard surface a round touches, logging calls."""

    def __init__(self, name, log, answers):
        self.name, self.log, self.answers = name, log, answers
        self.alive = True

    def step_begin(self):
        self.log.append(("begin", self.name))

    def step_all(self):
        self.log.append(("all", self.name))
        # Nothing: idle — or unreachable, which reads the same.
        return [
            JobResult(job_id=job_id, status=JobStatus.DONE, worker_id=self.name)
            for job_id in self.answers.get(self.name, "").split()
        ]

    def close(self):
        pass


class TestRoundOrder:
    """A round scatters to every live shard, then gathers in name order."""

    def _router(self, tmp_path, names, answers):
        log = []
        router = ShardRouter(
            tmp_path,
            names,
            worker_factory=lambda name, _dir: _RecordingShard(
                name, log, answers
            ),
        )
        return router, log

    def test_every_begin_precedes_the_first_collect(self, tmp_path):
        answers = {"a": "job-a", "b": "job-b", "c": "job-c", "d": "job-d"}
        router, log = self._router(tmp_path, ["c", "a", "d", "b"], answers)
        router.shards["d"].alive = False
        assert router.step_round() == 3
        assert log == [
            ("begin", "a"), ("begin", "b"), ("begin", "c"),
            ("all", "a"), ("all", "b"), ("all", "c"),
        ]
        assert list(router.results) == ["job-a", "job-b", "job-c"]

    def test_a_shard_that_yields_nothing_costs_the_others_nothing(
        self, tmp_path
    ):
        router, log = self._router(
            tmp_path, ["a", "b", "c"], {"a": "job-a", "c": "job-c"}
        )
        assert router.step_round() == 2
        assert list(router.results) == ["job-a", "job-c"]

    def test_every_result_a_shard_hands_back_is_folded(self, tmp_path):
        """Batch lanes, or results a lost reply left behind."""
        router, _ = self._router(
            tmp_path, ["a", "b"], {"a": "head lane-1 lane-2", "b": "job-b"}
        )
        assert router.step_round() == 4
        assert list(router.results) == ["head", "lane-1", "lane-2", "job-b"]

    def test_first_wins_dedup_follows_name_order(self, tmp_path):
        router, _ = self._router(
            tmp_path, ["b", "a"], {"a": "twice", "b": "twice"}
        )
        # Both executions count as completed; delivery keeps the first.
        assert router.step_round() == 2
        assert router.results["twice"].worker_id == "a"
        assert router.duplicate_results == 1


class TestKillAndHandoff:
    def _loaded(self, tmp_path, n=9):
        router = ShardRouter(tmp_path, ["a", "b", "c"], steal_margin=2)
        palette = (HOT, COLD, THIRD)
        for i in range(n):
            router.submit(_request(palette[i % 3], f"ha-{i:02d}"))
        return router

    def test_handoff_rehomes_and_recovers(self, tmp_path):
        router = self._loaded(tmp_path)
        router.step_round()  # some jobs finish on their home shards
        victim = max(
            (s for s in router.live_shards()), key=lambda s: s.queue_depth
        ).name
        unfinished = router.shards[victim].queue_depth
        finished_there = len(router.shards[victim].finished_ids())
        router.kill_shard(victim)
        rehomed = router.handoff(victim)
        assert rehomed == unfinished
        # Results the round already delivered re-arrive from the dead
        # journal as recovered duplicates; first-wins suppresses them.
        assert router.duplicate_results >= finished_there
        # Idempotent: a second pass finds everything already owned.
        assert router.handoff(victim) == 0
        router.run()
        assert len(router.results) == 9
        assert all(
            r.status is JobStatus.DONE for r in router.results.values()
        )
        assert victim not in router.ring
        router.close()

    def test_kill_refuses_the_last_shard(self, tmp_path):
        router = self._loaded(tmp_path, n=3)
        router.kill_shard("a")
        router.kill_shard("b")
        with pytest.raises(ClusterError, match="last shard"):
            router.kill_shard("c")
        with pytest.raises(ClusterError, match="no shard"):
            router.kill_shard("zz")
        router.close()

    def test_handoff_refuses_a_live_shard(self, pair):
        with pytest.raises(ClusterError, match="alive"):
            pair.handoff("a")


class TestConstruction:
    def test_bad_arguments(self, tmp_path):
        with pytest.raises(ClusterError, match="at least one"):
            ShardRouter(tmp_path, [])
        with pytest.raises(ClusterError, match="duplicate"):
            ShardRouter(tmp_path, ["a", "a"])
        with pytest.raises(ClusterError, match="steal_margin"):
            ShardRouter(tmp_path, ["a", "b"], steal_margin=0)

    def test_metrics_are_published(self, tmp_path):
        router = ShardRouter(tmp_path, ["a", "b"])
        router.submit(_request(HOT, "m-0"))
        router.run()
        router.publish_metrics()
        snapshot = router.metrics.snapshot()
        assert "cluster_jobs_routed_total" in snapshot
        assert "cluster_shard_queue_depth" in snapshot
        router.close()
