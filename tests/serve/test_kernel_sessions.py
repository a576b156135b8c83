"""Serving the registry kernels: sessions, codecs, durable round-trip.

The hypothesis property here is the ISSUE's contract: *any registered
kernel round-trips graph → artifact → journal codec → recovery replay
with bit-identical payloads*.  ``TestDurableRoundTrip`` implements it
end to end — for a drawn (kind, seed) the payload is journal-encoded,
decoded bit-identically, replayed through a crash-recovered
:class:`DurableEngine`, and the recovered output checked against the
kernel's registered oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.frontends import compile_kernel, frontend_names, get_frontend
from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import FsyncPolicy, JobJournal
from repro.serve.durability.records import (
    decode_payload,
    encode_payload,
    encode_request,
)
from repro.serve.jobs import JobKind, JobRequest, JobStatus, spec_for
from repro.serve.sessions import (
    ArtifactSession,
    CancelToken,
    Conv2DSession,
    DSPSession,
    GEMMSession,
    default_session_factory,
)

ALL_KINDS = ("conv2d", "dsp", "fft", "gemm", "jpeg")


def _payload(kind: str, seed: int):
    frontend = get_frontend(kind)
    params = frontend.canonicalize(None)
    return params, frontend.example_payload(
        params, np.random.default_rng(seed)
    )


class TestSessionFactory:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_factory_builds_every_registered_kind(self, kind):
        session = default_session_factory(spec_for(kind))
        assert session.spec.kind is JobKind(kind)

    def test_new_kernels_use_the_generic_artifact_session(self):
        assert isinstance(default_session_factory(spec_for("conv2d")),
                          Conv2DSession)
        assert isinstance(default_session_factory(spec_for("gemm")),
                          GEMMSession)
        assert isinstance(default_session_factory(spec_for("dsp")),
                          DSPSession)
        for kind in ("conv2d", "gemm", "dsp"):
            assert isinstance(
                default_session_factory(spec_for(kind)), ArtifactSession
            )


class TestSessionExecution:
    @pytest.mark.parametrize("kind", ("conv2d", "gemm", "dsp"))
    def test_run_output_passes_the_oracle(self, kind):
        params, payload = _payload(kind, seed=1)
        session = default_session_factory(spec_for(kind))
        stats = session.run(payload, CancelToken())
        get_frontend(kind).check_output(params, payload, stats.output)
        assert stats.sim_ns > 0
        assert stats.slices > 0

    @pytest.mark.parametrize("kind", ("conv2d", "gemm", "dsp"))
    def test_batch_outputs_are_bit_identical_to_scalar(self, kind):
        payloads = [_payload(kind, seed=s)[1] for s in range(4)]
        batch = default_session_factory(spec_for(kind))
        batch_stats = batch.run_batch(list(payloads), CancelToken())
        scalar = default_session_factory(spec_for(kind))
        for payload, stats in zip(payloads, batch_stats):
            want = scalar.run(payload, CancelToken()).output
            assert np.array_equal(stats.output, want)

    @pytest.mark.parametrize("kind", ("conv2d", "gemm", "dsp"))
    def test_second_job_is_warm(self, kind):
        _, payload = _payload(kind, seed=2)
        session = default_session_factory(spec_for(kind))
        cold = session.run(payload, CancelToken())
        warm = session.run(payload, CancelToken())
        assert cold.reconfig_ns > 0
        assert warm.reconfig_ns == 0


class _KeepsEverything(list):
    """An ICAP transfer log that refuses to be dropped."""

    def clear(self):
        pass


class TestIcapLogIsBounded:
    """A session keeps its ICAP port for life; its transfer log must not
    grow with jobs served, and dropping it must not move any figure."""

    JOBS = 6

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_log_holds_at_most_one_call_and_timing_is_unchanged(
        self, kind, batched
    ):
        payloads = [_payload(kind, seed=s)[1] for s in range(self.JOBS)]
        session = default_session_factory(spec_for(kind))
        unbounded = default_session_factory(spec_for(kind))
        unbounded.rtms.icap.transfers = _KeepsEverything()

        def serve(target, group):
            if batched:
                return target.run_batch(list(group), CancelToken())
            return [target.run(p, CancelToken()) for p in group]

        if batched:
            groups = [payloads[:3], payloads[3:]]
        else:
            groups = [[p] for p in payloads]
        for group in groups:
            got, want = serve(session, group), serve(unbounded, group)
            assert [(s.sim_ns, s.reconfig_ns) for s in got] == [
                (s.sim_ns, s.reconfig_ns) for s in want
            ]
            assert session.rtms.icap.transfers == []
        port, reference = session.rtms.icap, unbounded.rtms.icap
        assert len(reference.transfers) > 0  # there was a log to drop
        assert port.total_busy_ns == reference.total_busy_ns
        assert port.busy_until_ns == reference.busy_until_ns
        assert session.rtms.now_ns == unbounded.rtms.now_ns
        assert session.jobs_run == unbounded.jobs_run == self.JOBS

    def test_resumed_runs_drop_the_log_too(self):
        _, payload = _payload("fft", seed=3)
        session = default_session_factory(spec_for("fft"))
        session.run(payload, CancelToken())
        checkpoint = session.rtms.checkpoint()
        stats = session.run_resumed(payload, CancelToken(), 0, checkpoint)
        assert stats.sim_ns > 0
        assert session.rtms.icap.transfers == []


class TestPayloadCodec:
    @given(
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_example_payload_round_trips_bit_exact(self, kind, seed):
        _, payload = _payload(kind, seed)
        job_kind = JobKind(kind)
        back = decode_payload(job_kind, encode_payload(job_kind, payload))
        assert np.array_equal(np.asarray(back), np.asarray(payload))
        assert np.asarray(back).dtype == np.asarray(payload).dtype


class TestDurableRoundTrip:
    @given(
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_recovered_replay_matches_the_oracle(
        self, kind, seed, tmp_path_factory
    ):
        params, payload = _payload(kind, seed)
        # graph -> artifact (cached; hash-stable by the pinned tests)
        artifact = compile_kernel(kind, params)
        assert len(artifact.artifact_hash) == 64

        # journal codec: the payload the engine will replay is the
        # decoded one — assert it is bit-identical to what was submitted
        job_kind = JobKind(kind)
        decoded = decode_payload(job_kind, encode_payload(job_kind, payload))
        assert np.array_equal(np.asarray(decoded), np.asarray(payload))

        # crash before running: only SUBMITTED reaches the journal
        home = tmp_path_factory.mktemp(f"wal-{kind}")
        request = JobRequest(
            spec=spec_for(kind), payload=payload, job_id=f"{kind}-{seed}"
        )
        journal = JobJournal(home, fsync=FsyncPolicy.NEVER, lock=False)
        journal.submitted(request.job_id, encode_request(request))
        journal.close()

        # recovery requeues and completes the job from journal state
        engine = DurableEngine(home)
        assert engine.report.recovered_requeued == 1
        engine.run()
        result = engine.results[request.job_id]
        engine.close()
        assert result.status is JobStatus.DONE
        get_frontend(kind).check_output(params, payload, result.output)
