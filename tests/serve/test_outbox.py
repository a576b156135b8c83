"""The engine outbox: unacknowledged results, ack-decay, cold-tie placement.

One rule is under test: *a shard remembers after ack what it would
remember after a crash*.  Every result finished in an incarnation stays
whole and is re-sent until it is acknowledged; an acknowledged one
decays to exactly the entry a restart would rebuild from its DONE
record.  An engine nobody acknowledges behaves as it always did.

Counts only — nothing here reads a clock or an RSS figure.
"""

from __future__ import annotations

import numpy as np

from repro.serve.durability.engine import DurableEngine
from repro.serve.jobs import JobKind, JobRequest, JobStatus, fft_spec, jpeg_spec

from repro.serve.sessions import default_session_factory

from tests.serve.fakes import FakeSession, fake_factory

FFT = fft_spec(16, 4, 2)


def _jpeg_always_fails(spec):
    return FakeSession(spec, fail=spec.kind is JobKind.JPEG)


def _fake_job(index: int, spec, prefix: str = "ob", **kwargs) -> JobRequest:
    """A job for a fake session: any payload the journal can encode."""
    if spec.kind is JobKind.JPEG:
        payload = np.zeros((8, 8), dtype=np.int64)
    else:
        payload = np.zeros(16, dtype=np.complex128)
    return JobRequest(
        spec=spec, payload=payload, job_id=f"{prefix}-{index:03d}", **kwargs
    )


def _request(index: int, spec=FFT, **kwargs) -> JobRequest:
    rng = np.random.default_rng(300 + index)
    return JobRequest(
        spec=spec,
        payload=rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16),
        job_id=f"ob-{index:03d}",
        **kwargs,
    )


class TestOutbox:
    def test_results_are_unacked_oldest_first_until_acked(self, tmp_path):
        engine = DurableEngine(tmp_path)
        for index in range(3):
            engine.submit(_request(index))
        engine.step()
        engine.step()
        assert [r.job_id for r in engine.unacked()] == ["ob-000", "ob-001"]
        # Reading the outbox does not drain it: a reader that lost the
        # reply is sent the same results again.
        assert [r.job_id for r in engine.unacked()] == ["ob-000", "ob-001"]
        engine.ack(["ob-000"])
        engine.step()
        assert [r.job_id for r in engine.unacked()] == ["ob-001", "ob-002"]
        engine.close()

    def test_failed_and_timeout_results_enter_the_outbox(self, tmp_path):
        engine = DurableEngine(
            tmp_path,
            session_factory=_jpeg_always_fails,
            clock=lambda: 100.0,
        )
        engine.submit(_fake_job(0, jpeg_spec(75, False), max_retries=0))
        engine.submit(_fake_job(1, FFT, deadline_s=1.0))  # long past at 100
        engine.submit(_fake_job(2, FFT))
        engine.run()
        assert [(r.job_id, r.status) for r in engine.unacked()] == [
            ("ob-000", JobStatus.FAILED),
            ("ob-001", JobStatus.TIMEOUT),
            ("ob-002", JobStatus.DONE),
        ]
        engine.close()

    def test_every_batch_lane_enters_the_outbox_head_first(self, tmp_path):
        engine = DurableEngine(tmp_path, max_batch=4)
        for index in range(4):
            engine.submit(_request(index))
        head = engine.step()  # one dispatch, four lanes
        assert engine.queue == []
        assert engine.unacked()[0] is head
        assert [r.job_id for r in engine.unacked()] == [
            f"ob-{index:03d}" for index in range(4)
        ]
        engine.close()

    def test_unknown_and_repeated_acks_are_harmless(self, tmp_path):
        engine = DurableEngine(tmp_path)
        engine.submit(_request(0))
        engine.step()
        engine.ack(["never-seen", "ob-000"])
        decayed = engine.results["ob-000"]
        engine.ack(["ob-000"])
        assert engine.results["ob-000"] is decayed
        assert engine.unacked() == []
        engine.close()

    def test_an_engine_nobody_acks_keeps_every_result_whole(self, tmp_path):
        """What the chaos harnesses rely on when they read ``results``."""
        engine = DurableEngine(tmp_path)
        for index in range(4):
            engine.submit(_request(index))
        engine.run()
        for index in range(4):
            result = engine.results[f"ob-{index:03d}"]
            assert not result.recovered
            np.testing.assert_allclose(
                result.output, np.fft.fft(_request(index).payload), atol=1e-6
            )
        engine.close()


class TestAckDecaysToReplay:
    def _finish_some(self, directory):
        """One DONE (a real FFT, so there is an output to shed), one
        FAILED after a retry, one TIMEOUT."""

        def real_fft_failing_jpeg(spec):
            if spec.kind is JobKind.JPEG:
                return FakeSession(spec, fail=True)
            return default_session_factory(spec)

        engine = DurableEngine(
            directory,
            session_factory=real_fft_failing_jpeg,
            clock=lambda: 100.0,
        )
        engine.submit(_request(0))
        engine.submit(_fake_job(1, jpeg_spec(75, False), max_retries=1))
        engine.submit(_request(2, deadline_s=1.0))
        engine.run()
        return engine

    def test_acked_entry_equals_what_a_restart_rebuilds(self, tmp_path):
        engine = self._finish_some(tmp_path)
        whole = dict(engine.results)
        assert whole["ob-000"].output is not None
        engine.ack(list(whole))
        decayed = dict(engine.results)
        engine.close()

        reborn = DurableEngine(tmp_path)
        assert set(reborn.results) == set(decayed)
        for job_id, rebuilt in reborn.results.items():
            assert decayed[job_id] == rebuilt  # dataclass equality: every field
            assert rebuilt.recovered and rebuilt.output is None
            assert rebuilt.status is whole[job_id].status
        assert {r.status for r in decayed.values()} == {
            JobStatus.DONE, JobStatus.FAILED, JobStatus.TIMEOUT,
        }
        reborn.close()

    def test_journal_gets_no_record_for_an_ack(self, tmp_path):
        engine = self._finish_some(tmp_path)
        before = engine.journal.appended
        engine.ack(list(engine.results))
        assert engine.journal.appended == before
        engine.close()

    def test_resubmit_of_an_acked_id_is_served_not_re_executed(self, tmp_path):
        engine = DurableEngine(tmp_path)
        engine.submit(_request(0))
        engine.step()
        engine.ack(["ob-000"])
        completed, appended = engine.report.completed, engine.journal.appended
        pre = engine.submit(_request(0))
        assert pre is engine.results["ob-000"]
        assert pre.status is JobStatus.DONE and pre.recovered
        assert engine.queue == []
        assert engine.report.completed == completed
        assert engine.journal.appended == appended
        engine.close()


class TestColdTiesGoToAnEmptyFabric:
    def test_four_plans_round_robin_on_four_fabrics(self, tmp_path):
        """Equal cold costs used to break on the fabric id, so every job
        landed cold on ``fabric-0`` while three fabrics stayed empty
        (warm share 0.0).  With the tie going to an empty fabric each
        plan gets its own after one lap."""
        engine = DurableEngine(
            tmp_path, pool_size=4, session_factory=fake_factory()
        )
        plans = [jpeg_spec(quality, False) for quality in (50, 60, 75, 90)]
        for index in range(40):
            engine.submit(_fake_job(index, plans[index % 4], "rr"))
        engine.run()
        results = [engine.results[f"rr-{index:03d}"] for index in range(40)]
        assert [r.warm for r in results[:4]] == [False] * 4
        assert all(r.warm for r in results[4:])  # 1.0 after the first lap
        assert sum(r.warm for r in results) == 36  # 0.9 over all 40
        assert len({r.worker_id for r in results[:4]}) == 4
        engine.close()

    def test_one_fabric_places_as_before(self, tmp_path):
        engine = DurableEngine(tmp_path, session_factory=fake_factory())
        for index, quality in enumerate((50, 75, 50, 50)):
            engine.submit(_fake_job(index, jpeg_spec(quality, False), "one"))
        engine.run()
        warm = [engine.results[f"one-{index:03d}"].warm for index in range(4)]
        assert warm == [False, False, False, True]
        engine.close()
