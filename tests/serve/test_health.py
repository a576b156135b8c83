"""Fabric health: eject/readmit, quarantine escalation, requeue.

The serving-level half of the fault story: a fabric that keeps failing
(or surfaces an unrepairable fault) leaves the rotation, its in-flight
job moves to a healthy fabric, and operators can eject/readmit by hand.
All against fake sessions — the real fault plumbing is covered by
``tests/faults/``.
"""

import asyncio

import pytest

from repro.errors import FaultError, ServeError
from repro.serve.jobs import JobRequest, JobStatus, fft_spec
from repro.serve.pool import FabricPool, FabricWorker, HealthState
from repro.serve.scheduler import FIFOPolicy, simulate_trace
from repro.serve.service import FabricJobService
from repro.serve.sessions import CancelToken, SessionStats

from tests.serve.fakes import FakeSession, fake_factory

KINDS = ("healthy", "degraded", "quarantined")


def _request(**kwargs):
    kwargs.setdefault("payload", "payload")
    return JobRequest(spec=fft_spec(), **kwargs)


def faulty_factory(failures: int, *, error=FaultError, **kwargs):
    """Factory whose sessions raise ``error`` for the first N runs."""
    state = {"left": failures}

    class _Faulty(FakeSession):
        def run(self, payload, cancel: CancelToken) -> SessionStats:
            cancel.check()
            if state["left"] > 0:
                state["left"] -= 1
                raise error("injected fabric fault")
            return super().run(payload, cancel)

    def factory(spec):
        return _Faulty(spec, **kwargs)

    return factory


class TestHealthState:
    def test_gauge_codes(self):
        assert [HealthState(v).code for v in KINDS] == [0, 1, 2]


class TestWorkerLifecycle:
    def test_eject_drops_session_and_readmit_pays_cold(self):
        worker = FabricWorker("w0", fake_factory())
        worker.execute(_request(), CancelToken())
        assert worker.is_warm_for(fft_spec())
        worker.eject("operator")
        assert worker.health is HealthState.QUARANTINED
        assert not worker.available
        assert worker.session is None and worker.resident_key is None
        with pytest.raises(ServeError, match="quarantined"):
            worker.execute(_request(), CancelToken())
        worker.readmit()
        assert worker.health is HealthState.HEALTHY
        run = worker.execute(_request(), CancelToken())
        assert not run.warm  # post-repair cold start

    def test_eject_is_idempotent(self):
        worker = FabricWorker("w0", fake_factory())
        worker.eject("first")
        worker.eject("second")
        assert worker.quarantines == 1
        assert worker.quarantine_reason == "second"

    def test_failures_degrade_then_quarantine_at_threshold(self):
        worker = FabricWorker(
            "w0", faulty_factory(3, error=RuntimeError), failure_threshold=3
        )
        for expected in (HealthState.DEGRADED, HealthState.DEGRADED,
                         HealthState.QUARANTINED):
            with pytest.raises(RuntimeError):
                worker.execute(_request(), CancelToken())
            assert worker.health is expected
            # degraded fabrics stay in rotation
            assert worker.available is (expected is HealthState.DEGRADED)
        assert "3 consecutive failures" in worker.quarantine_reason

    def test_success_resets_the_failure_streak(self):
        worker = FabricWorker(
            "w0", faulty_factory(2, error=RuntimeError), failure_threshold=3
        )
        with pytest.raises(RuntimeError):
            worker.execute(_request(), CancelToken())
        # Hand-heal one failure's worth, then succeed.
        with pytest.raises(RuntimeError):
            worker.execute(_request(), CancelToken())
        worker.execute(_request(), CancelToken())
        assert worker.consecutive_failures == 0
        assert worker.health is HealthState.DEGRADED  # history, not rotation

    def test_fault_error_quarantines_immediately(self):
        worker = FabricWorker("w0", faulty_factory(1), failure_threshold=3)
        with pytest.raises(FaultError):
            worker.execute(_request(), CancelToken())
        assert worker.health is HealthState.QUARANTINED
        assert "fabric fault" in worker.quarantine_reason

    def test_validation(self):
        with pytest.raises(ServeError):
            FabricWorker("w0", fake_factory(), failure_threshold=0)


class TestPoolHealth:
    def test_lookup_and_partition(self):
        pool = FabricPool(3, fake_factory())
        pool.worker("fabric-1").eject("test")
        assert [w.id for w in pool.available_workers()] == [
            "fabric-0", "fabric-2"
        ]
        assert [w.id for w in pool.quarantined_workers()] == ["fabric-1"]
        assert pool.quarantine_count == 1
        with pytest.raises(ServeError):
            pool.worker("fabric-9")

    def test_replay_skips_quarantined_workers(self):
        pool = FabricPool(2, fake_factory())
        pool.worker("fabric-0").eject("test")
        trace = [_request() for _ in range(4)]
        result = simulate_trace(trace, pool, FIFOPolicy())
        assert {j.worker_id for j in result.jobs} == {"fabric-1"}

    def test_replay_with_no_workers_raises(self):
        pool = FabricPool(1, fake_factory())
        pool.worker("fabric-0").eject("test")
        with pytest.raises(ServeError, match="quarantined"):
            simulate_trace([_request()], pool, FIFOPolicy())


class TestServiceHealth:
    def test_quarantine_requeues_job_onto_healthy_fabric(self):
        async def scenario():
            service = FabricJobService(
                pool_size=2, session_factory=faulty_factory(1)
            )
            async with service:
                result = await service.submit_and_wait(_request())
            return service, result

        service, result = asyncio.run(scenario())
        assert result.status is JobStatus.DONE
        bad = service.pool.quarantined_workers()
        assert len(bad) == 1
        assert result.worker_id != bad[0].id  # finished on the healthy one
        metrics = service.metrics
        assert metrics["serve_jobs_requeued_total"].total == 1
        assert metrics["serve_worker_quarantined_total"].total == 1
        assert metrics["serve_worker_health"].value(fabric=bad[0].id) == 2.0

    def test_last_fabric_quarantined_fails_fast(self):
        async def scenario():
            service = FabricJobService(
                pool_size=1, session_factory=faulty_factory(10)
            )
            async with service:
                return await service.submit_and_wait(_request())

        result = asyncio.run(scenario())
        assert result.status is JobStatus.FAILED
        assert "no healthy fabric remains" in result.error

    def test_operator_eject_and_readmit(self):
        async def scenario():
            service = FabricJobService(
                pool_size=1, session_factory=fake_factory()
            )
            async with service:
                await service.eject("fabric-0", reason="maintenance")
                # The lone worker idles; the job must wait for readmission.
                future = await service.submit(_request())
                await asyncio.sleep(0.05)
                assert not future.done()
                await service.readmit("fabric-0")
                result = await future
            return service, result

        service, result = asyncio.run(scenario())
        assert result.status is JobStatus.DONE
        metrics = service.metrics
        assert metrics["serve_worker_readmitted_total"].total == 1
        assert metrics["serve_worker_health"].value(fabric="fabric-0") == 0.0
