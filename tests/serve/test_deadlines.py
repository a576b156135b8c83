"""End-to-end deadline propagation: request → engine → async service.

``JobRequest.deadline_s`` is an *absolute* monotonic-clock deadline
bounding the whole job life (queue wait + every attempt), distinct from
``timeout_s`` (a per-attempt budget).  ``0`` disables it — and a
deadline-free job must never consult the clock at all, which is what
keeps the deterministic chaos scenarios clock-free.

Covered here:

* request semantics and journal codec round-trip;
* the synchronous :class:`DurableEngine` (injectable clock): expiry
  before dispatch, explicit :meth:`expire`, journaled terminally;
* the asyncio :class:`FabricJobService`: dead-on-arrival rejection at
  admission, expiry while queued, expiry between retries, and the
  per-attempt timeout being capped by the remaining deadline.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import JobRejected, ServeError
from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.records import (
    RecordType,
    decode_request,
    encode_request,
)
from repro.serve.jobs import JobRequest, JobStatus, fft_spec
from repro.serve.service import FabricJobService

from tests.serve.fakes import fake_factory, flaky_factory


def _request(job_id: str, **kwargs) -> JobRequest:
    return JobRequest(
        spec=fft_spec(16, 4, 2),
        payload=[0.5] * 16,
        job_id=job_id,
        **kwargs,
    )


class TestRequestSemantics:
    def test_zero_means_no_deadline_and_never_expires(self):
        request = _request("dl-0")
        assert request.deadline_s == 0.0
        assert not request.expired(float("inf"))

    def test_absolute_deadline_compares_against_now(self):
        request = _request("dl-0", deadline_s=10.0)
        assert not request.expired(9.999)
        assert request.expired(10.0)

    def test_negative_deadline_rejected(self):
        with pytest.raises(ServeError):
            _request("dl-0", deadline_s=-1.0)

    def test_journal_codec_round_trips_the_deadline(self):
        request = _request("dl-0", deadline_s=123.5)
        decoded = decode_request("dl-0", encode_request(request))
        assert decoded.deadline_s == 123.5

    def test_decode_defaults_missing_deadline_to_disabled(self):
        # Journals written before deadlines existed must still replay.
        body = encode_request(_request("dl-0"))
        body.pop("deadline_s")
        assert decode_request("dl-0", body).deadline_s == 0.0


class TestEngineDeadlines:
    def _engine(self, tmp_path, now):
        clock = lambda: now["t"]  # noqa: E731
        return DurableEngine(
            tmp_path, fsync=FsyncPolicy.NEVER, clock=clock
        )

    def test_expired_job_fails_before_dispatch(self, tmp_path):
        now = {"t": 100.0}
        engine = self._engine(tmp_path, now)
        engine.submit(_request("dl-0", deadline_s=50.0))
        result = engine.step()
        engine.close()
        assert result.status is JobStatus.TIMEOUT
        assert "deadline expired before dispatch" in result.error
        assert engine.report.expired == 1
        assert engine.report.failed == 1

    def test_live_deadline_job_completes_normally(self, tmp_path):
        now = {"t": 100.0}
        engine = self._engine(tmp_path, now)
        engine.submit(_request("dl-0", deadline_s=1e9))
        result = engine.step()
        engine.close()
        assert result.status is JobStatus.DONE
        assert engine.report.expired == 0

    def test_explicit_expire_pops_and_journals(self, tmp_path):
        now = {"t": 100.0}
        engine = self._engine(tmp_path, now)
        engine.submit(_request("dl-0", deadline_s=50.0))
        result = engine.expire("dl-0", where="during drain")
        assert result.status is JobStatus.TIMEOUT
        assert "during drain" in result.error
        assert not engine.queue
        engine.close()
        journal = JobJournal(tmp_path, fsync=FsyncPolicy.NEVER, lock=False)
        records, _ = journal.scan()
        journal.close()
        assert [r.type for r in records if r.job_id == "dl-0"] == [
            RecordType.SUBMITTED,
            RecordType.DONE,
        ]

    def test_expire_unknown_job_raises(self, tmp_path):
        engine = self._engine(tmp_path, {"t": 0.0})
        with pytest.raises(ServeError, match="not queued"):
            engine.expire("dl-missing")
        engine.close()

    @pytest.mark.parametrize("driver", ["engine", "service"])
    def test_expired_terminal_record_is_not_requeued_on_replay(
        self, tmp_path, driver
    ):
        if driver == "engine":
            now = {"t": 100.0}
            engine = self._engine(tmp_path, now)
            engine.submit(_request("dl-0", deadline_s=50.0))
            engine.step()
            engine.close()
        else:
            asyncio.run(_expire_while_queued(tmp_path, "dl-0"))
        revived = DurableEngine(tmp_path, fsync=FsyncPolicy.NEVER)
        assert not revived.queue
        assert revived.results["dl-0"].status is JobStatus.TIMEOUT
        records, _ = revived.journal.scan()
        revived.close()
        # Both drivers write the one expiry DONE body.
        (done,) = [
            r.data
            for r in records
            if r.job_id == "dl-0" and r.type is RecordType.DONE
        ]
        assert sorted(done) == ["attempts", "error", "status", "worker"]
        assert done["status"] == JobStatus.TIMEOUT.value
        assert done["error"].startswith("deadline expired")


async def _expire_while_queued(journal_dir, job_id: str) -> None:
    """A journaled one-fabric service whose ``job_id`` expires queued
    behind a slow job; its outbox is empty once drained."""
    service = FabricJobService(
        pool_size=1,
        session_factory=fake_factory(sleep_s=0.15),
        journal=journal_dir,
    )
    async with service:
        await service.submit(_request("dl-block"))
        doomed = await service.submit(
            _request(job_id, deadline_s=time.monotonic() + 0.02)
        )
        await service.drain()
        assert (await doomed).status is JobStatus.TIMEOUT
        assert service.engine.unacked() == []


class TestServiceDeadlines:
    def test_dead_on_arrival_is_rejected_at_admission(self):
        async def run():
            service = FabricJobService(
                pool_size=1, session_factory=fake_factory()
            )
            async with service:
                request = _request(
                    "dl-0", deadline_s=time.monotonic() - 1.0
                )
                with pytest.raises(JobRejected) as exc_info:
                    await service.submit(request)
            return exc_info.value

        exc = asyncio.run(run())
        assert exc.reason == "expired"

    def test_deadline_free_jobs_are_unaffected(self):
        async def run():
            service = FabricJobService(
                pool_size=1, session_factory=fake_factory()
            )
            async with service:
                future = await service.submit(_request("dl-0"))
                return await future

        assert asyncio.run(run()).status is JobStatus.DONE

    def test_expiry_while_queued_fails_without_dispatch(self):
        async def run():
            service = FabricJobService(
                pool_size=1,
                session_factory=fake_factory(sleep_s=0.15),
            )
            async with service:
                blocker = await service.submit(_request("dl-block"))
                doomed = await service.submit(
                    _request(
                        "dl-queued",
                        deadline_s=time.monotonic() + 0.02,
                    )
                )
                return await asyncio.gather(blocker, doomed)

        blocked, doomed = asyncio.run(run())
        assert blocked.status is JobStatus.DONE
        assert doomed.status is JobStatus.TIMEOUT
        assert "deadline expired in queue" in doomed.error
        assert doomed.attempts == 0  # never reached a fabric

    def test_expiry_between_retries_stops_the_attempt_loop(self):
        async def run():
            factory, _ = flaky_factory(10)  # fails far past the deadline
            service = FabricJobService(
                pool_size=1,
                session_factory=factory,
                # One backoff outlives the deadline, so the expiry check
                # fires on the retry path before failures exhaust the
                # pool (attempts are near-instant; sleeps dominate).
                retry_backoff_s=0.06,
            )
            async with service:
                future = await service.submit(
                    _request(
                        "dl-retry",
                        deadline_s=time.monotonic() + 0.05,
                        max_retries=50,
                    )
                )
                return await future

        result = asyncio.run(run())
        assert result.status is JobStatus.TIMEOUT
        assert "deadline expired" in result.error
        assert result.attempts >= 1  # it did try before giving up

    def test_attempt_timeout_is_capped_by_remaining_deadline(self):
        async def run():
            service = FabricJobService(
                pool_size=1,
                session_factory=fake_factory(sleep_s=5.0),
            )
            async with service:
                start = time.monotonic()
                future = await service.submit(
                    _request(
                        "dl-cap",
                        deadline_s=start + 0.1,
                        timeout_s=30.0,
                        max_retries=0,
                    )
                )
                result = await future
                return result, time.monotonic() - start

        result, elapsed = asyncio.run(run())
        assert result.status is JobStatus.TIMEOUT
        # Without the cap this would block ~5 s (session run) or 30 s
        # (timeout_s); with it, the attempt dies at the deadline.
        assert elapsed < 2.0

    def test_expired_jobs_surface_in_the_metrics(self):
        async def run():
            service = FabricJobService(
                pool_size=1,
                session_factory=fake_factory(sleep_s=0.15),
            )
            async with service:
                blocker = await service.submit(_request("dl-block"))
                doomed = await service.submit(
                    _request(
                        "dl-queued",
                        deadline_s=time.monotonic() + 0.02,
                    )
                )
                await asyncio.gather(blocker, doomed)
            return service

        service = asyncio.run(run())
        assert service._m_expired.total == 1.0
