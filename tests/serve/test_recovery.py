"""Journal replay, engine recovery and service restart.

The replay fold is tested directly (idempotency, DONE-wins monotony,
seq dedup), then through the sequential :class:`DurableEngine`
(construction = recovery: result dedup, requeue, epoch resume), and
finally through the asyncio :class:`FabricJobService` (restart replays
the journal the same way).
"""

from __future__ import annotations

import asyncio
import zlib

import numpy as np
import pytest

from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.records import JournalRecord, RecordType, encode_request
from repro.serve.durability.recovery import replay
from repro.serve.jobs import JobRequest, JobStatus, fft_spec, jpeg_spec
from repro.serve.service import FabricJobService

from tests.serve.fakes import fake_factory, flaky_factory


def _fft_request(job_id="job-0", n=16, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return JobRequest(
        spec=fft_spec(n, 4, 2),
        payload=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        job_id=job_id,
        **kwargs,
    )


def _record(type_, job_id, data=None, seq=0):
    return JournalRecord(type=type_, job_id=job_id, data=data or {}, seq=seq)


class TestReplayFold:
    def test_lifecycle_counting(self):
        request = _fft_request("a")
        records = [
            _record(RecordType.SUBMITTED, "a", encode_request(request), 1),
            _record(RecordType.DISPATCHED, "a", {"worker": "f0"}, 2),
            _record(RecordType.RETRY, "a", {"attempt": 1}, 3),
            _record(RecordType.DISPATCHED, "a", {"worker": "f1"}, 4),
            _record(RecordType.DONE, "a", {"status": "done"}, 5),
        ]
        state = replay(records)
        job = state.jobs["a"]
        assert job.finished
        assert job.dispatches == 2
        assert job.retries == 1
        assert job.last_worker == "f1"
        assert state.finished_jobs() == [job]
        assert state.unfinished_jobs() == []

    def test_seq_dedup_makes_compaction_duplicates_harmless(self):
        records = [
            _record(RecordType.SUBMITTED, "a", {}, 1),
            _record(RecordType.DISPATCHED, "a", {"worker": "f0"}, 2),
        ]
        doubled = records + [
            _record(r.type, r.job_id, dict(r.data), r.seq) for r in records
        ]
        assert replay(doubled).jobs["a"].dispatches == 1

    def test_done_wins_and_first_done_sticks(self):
        records = [
            _record(RecordType.SUBMITTED, "a", {}, 1),
            _record(RecordType.DONE, "a", {"status": "done"}, 2),
            _record(RecordType.DONE, "a", {"status": "failed"}, 3),
        ]
        assert replay(records).jobs["a"].done == {"status": "done"}

    def test_progress_only_advances(self):
        records = [
            _record(RecordType.EPOCH_PROGRESS, "a",
                    {"slice": 4, "checkpoint": "x", "crc": 1}, 1),
            _record(RecordType.EPOCH_PROGRESS, "a",
                    {"slice": 2, "checkpoint": "y", "crc": 2}, 2),
        ]
        job = replay(records).jobs["a"]
        assert job.progress_slice == 4
        assert job.checkpoint_path == "x"

    def test_moved_jobs_are_not_requeued(self):
        request = _fft_request("a")
        records = [
            _record(RecordType.SUBMITTED, "a", encode_request(request), 1),
            _record(RecordType.MOVED, "a", {"to": "shard-2"}, 2),
        ]
        state = replay(records)
        assert state.unfinished_jobs() == []  # the successor owns it

    def test_submitted_after_moved_readopts_the_job(self):
        # Steal it away, drain it back: the journal reads SUBMITTED,
        # MOVED, SUBMITTED.  The fresher SUBMITTED supersedes the stale
        # MOVED — without this, *both* journals disown the job and an
        # acknowledged job is lost.
        request = _fft_request("a")
        records = [
            _record(RecordType.SUBMITTED, "a", encode_request(request), 1),
            _record(RecordType.MOVED, "a", {"to": "shard-2"}, 2),
            _record(RecordType.SUBMITTED, "a", encode_request(request), 3),
        ]
        state = replay(records)
        assert [j.job_id for j in state.unfinished_jobs()] == ["a"]
        assert [r.job_id for r in state.recovered_requests()] == ["a"]
        # And a move after the re-adoption closes it again.
        records.append(_record(RecordType.MOVED, "a", {"to": "shard-1"}, 4))
        assert replay(records).unfinished_jobs() == []

    def test_unsubmitted_jobs_are_not_requeued(self):
        # A DISPATCHED with no SUBMITTED (its segment was corrupt):
        # nothing to requeue from, and nothing to lose — the job was
        # never acknowledged.
        records = [_record(RecordType.DISPATCHED, "ghost", {}, 1)]
        state = replay(records)
        assert state.unfinished_jobs() == []
        assert state.recovered_requests() == []

    def test_resume_requires_verified_checkpoint(self, tmp_path):
        request = _fft_request("a")
        blob = b"checkpoint-bytes"
        good = tmp_path / "a.ckpt"
        good.write_bytes(blob)
        crc = zlib.crc32(blob) & 0xFFFFFFFF
        base = [
            _record(RecordType.SUBMITTED, "a", encode_request(request), 1),
        ]
        verified = replay(
            base
            + [_record(RecordType.EPOCH_PROGRESS, "a",
                       {"slice": 2, "checkpoint": str(good), "crc": crc}, 2)]
        ).recovered_requests()
        assert verified[0].resume_slice == 2
        assert verified[0].checkpoint_path == str(good)

        bad_crc = replay(
            base
            + [_record(RecordType.EPOCH_PROGRESS, "a",
                       {"slice": 2, "checkpoint": str(good), "crc": crc ^ 1},
                       2)]
        ).recovered_requests()
        assert bad_crc[0].resume_slice == 0  # downgrade to from-scratch

        missing = replay(
            base
            + [_record(RecordType.EPOCH_PROGRESS, "a",
                       {"slice": 2, "checkpoint": str(tmp_path / "nope"),
                        "crc": crc}, 2)]
        ).recovered_requests()
        assert missing[0].resume_slice == 0


class TestEngineRecovery:
    def test_finished_jobs_recover_as_results_not_reruns(self, tmp_path):
        engine = DurableEngine(tmp_path)
        engine.submit(_fft_request("a"))
        engine.submit(
            JobRequest(spec=jpeg_spec(75, False),
                       payload=np.zeros((8, 8), dtype=np.int64),
                       job_id="b")
        )
        engine.run()
        engine.close()

        restarted = DurableEngine(tmp_path)
        assert restarted.report.recovered_finished == 2
        assert restarted.queue == []
        recorded = restarted.submit(_fft_request("a"))  # client resubmit
        assert recorded is not None
        assert recorded.recovered
        assert recorded.status is JobStatus.DONE
        # The resubmit appended nothing: dedup is journal-free.
        assert restarted.journal.appended == 0
        restarted.close()

    def test_unfinished_job_is_requeued_and_completes(self, tmp_path):
        # Simulate a crash by writing SUBMITTED without running.
        journal = JobJournal(tmp_path, fsync=FsyncPolicy.NEVER, lock=False)
        request = _fft_request("lost")
        journal.submitted("lost", encode_request(request))
        journal.close()

        engine = DurableEngine(tmp_path)
        assert engine.report.recovered_requeued == 1
        report = engine.run()
        assert report.completed == 1
        assert engine.results["lost"].status is JobStatus.DONE
        engine.close()

    def test_recovered_run_is_bit_identical(self, tmp_path):
        request = _fft_request("x", seed=11)
        clean = DurableEngine(tmp_path / "clean")
        clean.submit(_fft_request("x", seed=11))
        clean.run()
        want = clean.results["x"].output
        clean.close()

        journal = JobJournal(
            tmp_path / "crashed", fsync=FsyncPolicy.NEVER, lock=False
        )
        journal.submitted("x", encode_request(request))
        journal.close()
        recovered = DurableEngine(tmp_path / "crashed")
        recovered.run()
        assert np.array_equal(recovered.results["x"].output, want)
        recovered.close()


class TestServiceRestart:
    def test_restarted_service_requeues_and_dedups(self, tmp_path):
        async def first_life():
            service = FabricJobService(
                pool_size=1, session_factory=fake_factory(), journal=tmp_path
            )
            async with service:
                done = await (await service.submit(_request("finished-0")))
            return done

        def _request(job_id):
            # Journaled submissions must carry codec-able payloads.
            return JobRequest(
                spec=fft_spec(), payload=[0.5] * 16, job_id=job_id
            )

        done = asyncio.run(first_life())
        assert done.status is JobStatus.DONE

        # The process "dies" with one more job acknowledged but not run.
        journal = JobJournal(tmp_path, fsync=FsyncPolicy.NEVER)
        journal.submitted(
            "lost-1",
            encode_request(
                JobRequest(spec=fft_spec(), payload=[0.0] * 16,
                           job_id="lost-1")
            ),
        )
        journal.close()

        async def second_life():
            service = FabricJobService(
                pool_size=1, session_factory=fake_factory(), journal=tmp_path
            )
            async with service:
                # The requeued job finishes without any client resubmit.
                recovered = await service.recovered_futures["lost-1"]
                # Resubmitting the finished job returns the recorded
                # result instead of re-executing it.
                replayed = await (await service.submit(_request("finished-0")))
            return service, recovered, replayed

        service, recovered, replayed = asyncio.run(second_life())
        assert recovered.status is JobStatus.DONE
        assert replayed.recovered
        assert replayed.status is JobStatus.DONE
        outcomes = service.metrics["serve_recovered_jobs_total"]
        assert outcomes.value(outcome="finished") == 1
        assert outcomes.value(outcome="requeued") == 1


def _journaled(request_id: str) -> JobRequest:
    return JobRequest(spec=fft_spec(), payload=[0.5] * 16, job_id=request_id)


def _journal_types(journal_dir, job_id: str) -> list[RecordType]:
    journal = JobJournal(journal_dir, fsync=FsyncPolicy.NEVER, lock=False)
    records, _ = journal.scan()
    journal.close()
    return [r.type for r in records if r.job_id == job_id]


class TestServiceDedup:
    """A journaled service never runs a job id it already knows."""

    def test_a_repeated_finished_job_id_is_not_run_again(self, tmp_path):
        async def run():
            service = FabricJobService(
                pool_size=1, session_factory=fake_factory(), journal=tmp_path
            )
            async with service:
                first = await (await service.submit(_journaled("a")))
                again = await (await service.submit(_journaled("a")))
            return first, again

        first, again = asyncio.run(run())
        assert first.status is JobStatus.DONE and not first.recovered
        # The recorded result comes back instead of a second run.
        assert again.status is JobStatus.DONE
        assert again.recovered
        assert again.worker_id == first.worker_id
        assert _journal_types(tmp_path, "a") == [
            RecordType.SUBMITTED,
            RecordType.DISPATCHED,
            RecordType.DONE,
        ]

    def test_a_repeated_queued_job_id_returns_its_future(self, tmp_path):
        async def run():
            service = FabricJobService(
                pool_size=1,
                session_factory=fake_factory(sleep_s=0.05),
                journal=tmp_path,
            )
            async with service:
                blocker = await service.submit(_journaled("block"))
                queued = await service.submit(_journaled("q"))
                again = await service.submit(_journaled("q"))
                same = again is queued
                results = await asyncio.gather(blocker, queued)
            return same, results

        same, results = asyncio.run(run())
        assert same
        assert all(r.status is JobStatus.DONE for r in results)
        assert _journal_types(tmp_path, "q") == [
            RecordType.SUBMITTED,
            RecordType.DISPATCHED,
            RecordType.DONE,
        ]


class TestServiceJournalMetrics:
    def test_metrics_mirror_the_journal(self, tmp_path):
        async def run():
            factory, _ = flaky_factory(1)  # one failed attempt, one retry
            service = FabricJobService(
                pool_size=1,
                session_factory=factory,
                journal=tmp_path,
                retry_backoff_s=0.001,
            )
            async with service:
                result = await (await service.submit(_journaled("m-0")))
            return service, result

        service, result = asyncio.run(run())
        assert result.status is JobStatus.DONE
        assert result.attempts == 2
        types = [t.value for t in _journal_types(tmp_path, "m-0")]
        counts = {kind: types.count(kind) for kind in set(types)}
        assert counts == {
            "SUBMITTED": 1, "DISPATCHED": 2, "RETRY": 1, "DONE": 1,
        }
        by_type = service.metrics["serve_journal_records_total"]
        for kind in RecordType:
            assert by_type.value(type=kind.value) == counts.get(kind.value, 0)
        assert (
            service.metrics["serve_journal_bytes_total"].total
            == service.engine.journal.bytes_written
        )
