"""The subprocess-backed shard: real processes, real pipes, real locks.

These tests spawn actual worker subprocesses (small job counts — the
point is the process boundary, not throughput) and check the lifecycle
the supervisor builds on: bit-exact round trips, typed death, recovery
over the same journal directory, and the journal flock telling a
usurper exactly who holds it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.lifecycle import ClusterSupervisor
from repro.cluster.proc.shard import ProcShardWorker
from repro.cluster.router import ShardRouter
from repro.errors import ClusterError
from repro.locks import HAS_FLOCK
from repro.serve.jobs import JobRequest, JobStatus, fft_spec


def _request(job_id: str) -> JobRequest:
    rng = np.random.default_rng(sum(job_id.encode()))
    return JobRequest(
        spec=fft_spec(16, 4, 2),
        payload=rng.standard_normal(16) + 1j * rng.standard_normal(16),
        job_id=job_id,
    )


@pytest.fixture
def worker(tmp_path):
    shard = ProcShardWorker(
        "shard-0", tmp_path / "shard-0", spawn_timeout_s=60.0
    )
    yield shard
    shard.close()


class TestRoundTrip:
    def test_submit_step_finish_bit_exact(self, worker):
        request = _request("ps-001")
        expected = np.fft.fft(request.payload)
        assert worker.submit(request) is None
        assert worker.queue_depth == 1
        result = worker.step_one()
        assert result is not None and result.status is JobStatus.DONE
        # The output crossed the pipe twice (submit ack + finished read)
        # and must still be the worker's exact bytes.
        fetched = worker.finished("ps-001")
        assert fetched is not None
        assert fetched.output.tobytes() == result.output.tobytes()
        np.testing.assert_allclose(result.output, expected)

    def test_hello_reports_pid_and_recovery(self, worker):
        assert worker.hello["pid"] == worker.pid
        assert worker.hello["recovered_requeued"] == 0

    def test_heartbeat_comes_from_the_process(self, worker):
        beat = worker.heartbeat(3)
        assert beat.alive and beat.shard == "shard-0"
        assert beat.round_index == 3
        assert beat.journal_records == 0
        worker.submit(_request("ps-002"))
        assert worker.heartbeat(4).journal_records > 0

    def test_resubmit_dedups_on_the_journaled_id(self, worker):
        request = _request("ps-003")
        worker.submit(request)
        worker.step_one()
        pre = worker.submit(_request("ps-003"))
        assert pre is not None and pre.status is JobStatus.DONE


class TestDeath:
    def test_kill_then_call_is_typed(self, worker):
        worker.kill()
        assert not worker.alive
        with pytest.raises(ClusterError, match="dead"):
            worker.submit(_request("ps-010"))

    def test_reads_degrade_to_empty_on_a_corpse(self, worker):
        worker.kill()
        assert worker.queue_depth == 0
        assert worker.finished_ids() == []
        assert worker.steal_candidates() == []

    def test_heartbeat_never_raises(self, worker):
        worker.kill()
        beat = worker.heartbeat(1)
        assert not beat.alive  # the miss feeds phi accrual, typed


class TestRecovery:
    def test_respawn_over_the_same_journal_replays(self, tmp_path):
        home = tmp_path / "shard-r"
        first = ProcShardWorker("shard-r", home)
        done = _request("ps-020")
        pending = _request("ps-021")
        first.submit(done)
        first.step_one()
        first.submit(pending)  # journaled, never stepped
        first.kill()

        second = ProcShardWorker("shard-r", home)
        try:
            assert second.hello["recovered_finished"] >= 1
            assert [r.job_id for r in second.backlog()] == ["ps-021"]
            # The finished job is recorded, marked recovered, and served
            # on resubmit instead of re-executed (no duplicate delivery).
            recorded = second.finished("ps-020")
            assert recorded is not None and recorded.recovered
            assert recorded.status is JobStatus.DONE
            pre = second.submit(_request("ps-020"))
            assert pre is not None and pre.recovered
            result = second.step_one()
            assert result is not None and result.job_id == "ps-021"
        finally:
            second.close()


@pytest.mark.skipif(not HAS_FLOCK, reason="advisory flock unavailable")
class TestJournalLock:
    def test_usurper_fails_typed_naming_the_holder(self, tmp_path):
        home = tmp_path / "shard-l"
        holder = ProcShardWorker("shard-l", home)
        try:
            with pytest.raises(ClusterError) as exc_info:
                ProcShardWorker(
                    "shard-l", home, lock_timeout_s=0.3, spawn_timeout_s=60.0
                )
            message = str(exc_info.value)
            assert "LockTimeout" in message
            assert f"held by pid {holder.pid}" in message
        finally:
            holder.close()

    def test_lock_evaporates_with_the_holder(self, tmp_path):
        home = tmp_path / "shard-e"
        holder = ProcShardWorker("shard-e", home)
        holder.kill()
        successor = ProcShardWorker("shard-e", home, lock_timeout_s=2.0)
        try:
            assert successor.alive
        finally:
            successor.close()


class TestGauges:
    def test_fabric_gauges_come_from_the_last_heartbeat(self, tmp_path):
        router = ShardRouter(
            tmp_path, ["shard-0", "shard-1"], worker_factory=ProcShardWorker
        )
        fabric_gauges = (
            "cluster_shard_breaker_open_fabrics",
            "cluster_shard_quarantined_fabrics",
        )
        try:
            router.publish_metrics()  # no heartbeat yet: nothing to say
            assert not any(name in router.metrics for name in fabric_gauges)
            ClusterSupervisor(router, scrub_every=0).tick()
            calls = [shard.rpc.calls for shard in router.shards.values()]
            router.publish_metrics()
            assert [s.rpc.calls for s in router.shards.values()] == calls
            for name in fabric_gauges:
                gauge = router.metrics.gauge(name)
                assert [gauge.value(shard=s) for s in router.shards] == [0, 0]
            retries = router.metrics.gauge("cluster_shard_rpc_retries")
            assert [retries.value(shard=s) for s in router.shards] == [0, 0]
        finally:
            router.close()
