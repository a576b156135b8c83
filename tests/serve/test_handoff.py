"""``FabricJobService.handoff``: drain-for-migration at the async tier.

The coroutine counterpart of the cluster's shard handoff: surrender the
queued backlog (MOVED journaled, local waiters told to follow the job),
never interrupt in-flight work, and leave a journal whose replay no
longer claims the surrendered jobs — the successor's SUBMITTED records
own them.  No pytest-asyncio in the toolchain, so each test drives its
own event loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ServeError
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.records import RecordType
from repro.serve.durability.recovery import replay
from repro.serve.jobs import JobRequest, JobStatus, RejectReason, fft_spec
from repro.serve.service import FabricJobService

from tests.serve.fakes import fake_factory


def _request(job_id: str) -> JobRequest:
    # Journaled submissions must carry codec-able payloads.
    return JobRequest(spec=fft_spec(), payload=[0.5] * 16, job_id=job_id)


def _scenario(tmp_path, n_jobs=5, sleep_s=0.05):
    """Queue ``n_jobs`` on a one-fabric service and hand off mid-burst.

    Returns (inflight result, surrendered requests, journal records).
    """

    async def run():
        service = FabricJobService(
            pool_size=1,
            session_factory=fake_factory(sleep_s=sleep_s),
            journal=tmp_path,
        )
        async with service:
            futures = [
                await service.submit(_request(f"ho-{i}"))
                for i in range(n_jobs)
            ]
            # Let the single fabric pick up ho-0 before surrendering.
            await asyncio.sleep(sleep_s / 2)
            surrendered = await service.handoff()
            outcomes = await asyncio.gather(*futures)
        scan_journal = JobJournal(tmp_path, fsync=FsyncPolicy.NEVER)
        records, _ = scan_journal.scan()
        scan_journal.close()
        return outcomes, surrendered, records

    return asyncio.run(run())


class TestHandoff:
    def test_queued_jobs_are_surrendered_not_executed(self, tmp_path):
        outcomes, surrendered, _ = _scenario(tmp_path)
        assert [r.job_id for r in surrendered] == [
            f"ho-{i}" for i in range(1, 5)
        ]
        by_id = {result.job_id: result for result in outcomes}
        # The in-flight job is never interrupted; handoff waited for it.
        assert by_id["ho-0"].status is JobStatus.DONE
        for job_id in ("ho-1", "ho-2", "ho-3", "ho-4"):
            result = by_id[job_id]
            assert result.status is JobStatus.REJECTED
            assert RejectReason.HANDOFF.value in result.error

    def test_surrendered_futures_carry_the_retry_after_hint(self, tmp_path):
        """A co-located waiter shouldn't hammer the successor the instant
        its future resolves — the rejection tells it when to follow."""

        async def run():
            service = FabricJobService(
                pool_size=1,
                session_factory=fake_factory(sleep_s=0.05),
                handoff_retry_after_s=1.5,
            )
            async with service:
                futures = [
                    await service.submit(_request(f"ho-{i}"))
                    for i in range(3)
                ]
                await asyncio.sleep(0.01)
                await service.handoff()
                return await asyncio.gather(*futures)

        outcomes = asyncio.run(run())
        rejected = [
            r for r in outcomes if r.status is JobStatus.REJECTED
        ]
        assert rejected  # the backlog was surrendered
        for result in rejected:
            # Jittered within [hint, hint * 1.5): never earlier than the
            # configured hint, bounded above so the wait stays honest.
            assert 1.5 <= result.retry_after_s < 2.25

    def test_surrender_is_journaled_as_moved(self, tmp_path):
        _, surrendered, records = _scenario(tmp_path)
        moved = {
            r.job_id for r in records if r.type is RecordType.MOVED
        }
        assert moved == {request.job_id for request in surrendered}

    def test_replay_no_longer_claims_surrendered_jobs(self, tmp_path):
        _, surrendered, records = _scenario(tmp_path)
        state = replay(records)
        requeued = {r.job_id for r in state.recovered_requests()}
        assert requeued.isdisjoint(
            {request.job_id for request in surrendered}
        )

    def test_successor_adopts_the_surrendered_backlog(self, tmp_path):
        _, surrendered, _ = _scenario(tmp_path / "old")

        async def second_home():
            async with FabricJobService(
                pool_size=1, session_factory=fake_factory()
            ) as successor:
                futures = [
                    await successor.submit(request)
                    for request in surrendered
                ]
                return await asyncio.gather(*futures)

        adopted = asyncio.run(second_home())
        assert all(result.status is JobStatus.DONE for result in adopted)

    def test_handoff_leaves_the_service_drained_but_running(self, tmp_path):
        async def run():
            async with FabricJobService(
                pool_size=1, session_factory=fake_factory()
            ) as service:
                surrendered = await service.handoff()
                with pytest.raises(Exception):
                    await service.submit(_request("late"))
                return surrendered

        assert asyncio.run(run()) == []

    def test_handoff_on_a_stopped_service_raises(self):
        service = FabricJobService(
            pool_size=1, session_factory=fake_factory()
        )

        async def run():
            await service.handoff()

        with pytest.raises(ServeError, match="stopped"):
            asyncio.run(run())
