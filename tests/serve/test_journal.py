"""Write-ahead journal: framing, corruption tolerance, rotation,
compaction, fsync policy, locking.

The hypothesis corpora implement the ISSUE's round-trip contract: any
record survives frame/unframe exactly, any *truncated tail* yields a
clean prefix of the appended records, and any *flipped byte* never
yields a record that was not appended (corruption can only drop
records, never invent or alter them).
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.frontends import get_frontend
from repro.errors import JournalError
from repro.locks import HAS_FLOCK
from repro.serve.durability.journal import (
    FsyncPolicy,
    JobJournal,
    _frame,
    _unframe,
)
from repro.serve.durability.records import (
    JournalRecord,
    RecordType,
    decode_payload,
    decode_request,
    encode_payload,
    encode_request,
)
from repro.serve.durability.engine import DurableEngine
from repro.serve.jobs import JobKind, JobRequest, fft_spec, jpeg_spec, spec_for
from repro.serve.sessions import CancelToken, default_session_factory

# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

_json_scalars = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
)

_record_strategy = st.builds(
    JournalRecord,
    type=st.sampled_from(list(RecordType)),
    job_id=st.text(
        alphabet=st.characters(codec="ascii", exclude_characters="\n\r"),
        min_size=1,
        max_size=24,
    ),
    data=st.dictionaries(st.text(max_size=10), _json_scalars, max_size=4),
    seq=st.integers(min_value=0, max_value=2**40),
)


class TestFraming:
    @given(_record_strategy)
    @settings(max_examples=100, deadline=None)
    def test_frame_unframe_round_trip(self, record):
        got = _unframe(_frame(record))
        assert got is not None
        assert got.type is record.type
        assert got.job_id == record.job_id
        assert got.seq == record.seq
        assert json.dumps(got.data, sort_keys=True) == json.dumps(
            record.data, sort_keys=True
        )

    @given(_record_strategy, st.integers(min_value=0))
    @settings(max_examples=100, deadline=None)
    def test_truncated_line_never_decodes(self, record, cut):
        frame = _frame(record)
        cut = cut % len(frame)  # strictly shorter than the frame
        assert _unframe(frame[:cut]) is None

    @given(_record_strategy, st.data())
    @settings(max_examples=100, deadline=None)
    def test_flipped_byte_never_decodes_differently(self, record, data):
        frame = bytearray(_frame(record))
        index = data.draw(st.integers(0, len(frame) - 1))
        bit = data.draw(st.integers(0, 7))
        frame[index] ^= 1 << bit
        got = _unframe(bytes(frame))
        # Either the corruption is detected (None) or — only when the
        # flip landed inside the CRC hex and produced the same value,
        # which cannot happen, or an equivalent JSON byte, which the
        # canonical encoding rules out — the record is unchanged.
        if got is not None:
            assert got.to_json() == record.to_json()

    def test_malformed_json_rejected(self):
        with pytest.raises(JournalError, match="malformed"):
            JournalRecord.from_json('{"nope": 1}')


class TestScanCorruptionTolerance:
    def _fill(self, tmp_path, n=8):
        journal = JobJournal(tmp_path, fsync=FsyncPolicy.NEVER, lock=False)
        for index in range(n):
            journal.submitted(f"job-{index:02d}", {"i": index})
        journal.close()
        return journal.segments()[0]

    @given(cut=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_truncated_tail_yields_clean_prefix(self, tmp_path_factory, cut):
        tmp = tmp_path_factory.mktemp("trunc")
        segment = self._fill(tmp)
        blob = segment.read_bytes()
        segment.write_bytes(blob[: cut % (len(blob) + 1)])
        journal = JobJournal(tmp, fsync=FsyncPolicy.NEVER, lock=False)
        records, report = journal.scan()
        journal.close()
        ids = [r.job_id for r in records]
        assert ids == [f"job-{i:02d}" for i in range(len(ids))]  # prefix
        assert report.dropped <= 1  # at most the torn line itself

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_flipped_byte_drops_only_suffix_of_segment(
        self, tmp_path_factory, data
    ):
        tmp = tmp_path_factory.mktemp("flip")
        segment = self._fill(tmp)
        blob = bytearray(segment.read_bytes())
        index = data.draw(st.integers(0, len(blob) - 1))
        blob[index] ^= 1 << data.draw(st.integers(0, 7))
        segment.write_bytes(bytes(blob))
        journal = JobJournal(tmp, fsync=FsyncPolicy.NEVER, lock=False)
        records, report = journal.scan()
        journal.close()
        # Whatever survives is a prefix of what was appended: nothing
        # after the first distrusted line in the segment is loaded, and
        # no record is ever altered or invented.
        ids = [r.job_id for r in records]
        assert ids == [f"job-{i:02d}" for i in range(len(ids))]
        if len(ids) < 8:
            assert report.dropped >= 1

    def test_corruption_in_one_segment_spares_later_segments(self, tmp_path):
        journal = JobJournal(
            tmp_path, segment_records=2, fsync=FsyncPolicy.NEVER, lock=False
        )
        for index in range(6):
            journal.submitted(f"job-{index}", {})
        journal.close()
        first = journal.segments()[0]
        first.write_bytes(b"garbage\n" + first.read_bytes())
        reopened = JobJournal(tmp_path, fsync=FsyncPolicy.NEVER, lock=False)
        records, report = reopened.scan()
        reopened.close()
        # Segment 0 is fully distrusted after its bad first line, the
        # other two segments load intact.
        assert [r.job_id for r in records] == [
            "job-2", "job-3", "job-4", "job-5"
        ]
        assert report.dropped >= 1


class TestRotationAndFsync:
    def test_rotation_every_n_records(self, tmp_path):
        journal = JobJournal(
            tmp_path, segment_records=3, fsync=FsyncPolicy.NEVER, lock=False
        )
        for index in range(7):
            journal.submitted(f"job-{index}", {})
        assert len(journal.segments()) == 3
        assert journal.rotations == 3  # counts every segment open
        journal.close()

    def test_fsync_policies_count(self, tmp_path):
        always = JobJournal(
            tmp_path / "a", fsync=FsyncPolicy.ALWAYS, lock=False
        )
        for index in range(3):
            always.submitted(f"job-{index}", {})
        assert always.fsyncs == 3
        always.close()

        never = JobJournal(tmp_path / "n", fsync="never", lock=False)
        for index in range(3):
            never.submitted(f"job-{index}", {})
        assert never.fsyncs == 0
        never.close()

    def test_seq_resumes_after_reopen(self, tmp_path):
        journal = JobJournal(tmp_path, fsync="never", lock=False)
        journal.submitted("a", {})
        journal.submitted("b", {})
        journal.close()
        reopened = JobJournal(tmp_path, fsync="never", lock=False)
        record = reopened.submitted("c", {})
        reopened.close()
        assert record.seq == 3


class TestCompaction:
    def test_keeps_done_of_finished_and_everything_unfinished(self, tmp_path):
        journal = JobJournal(tmp_path, fsync="never", lock=False)
        journal.submitted("done-job", {"payload": 1})
        journal.dispatched("done-job", {"worker": "f0"})
        journal.done("done-job", {"status": "done"})
        journal.submitted("live-job", {"payload": 2})
        journal.dispatched("live-job", {"worker": "f1"})
        dropped = journal.compact()
        assert dropped == 2  # done-job's SUBMITTED + DISPATCHED
        records, _ = journal.scan()
        kinds = {(r.job_id, r.type) for r in records}
        assert (("done-job", RecordType.DONE)) in kinds
        assert (("live-job", RecordType.SUBMITTED)) in kinds
        assert (("live-job", RecordType.DISPATCHED)) in kinds
        assert ("done-job", RecordType.SUBMITTED) not in kinds
        journal.close()

    def test_readopted_job_survives_compaction(self, tmp_path):
        """SUBMITTED after MOVED means the job bounced back (stolen
        away, then drained home).  Compaction must not treat the stale
        MOVED as terminal and disown the job."""
        journal = JobJournal(tmp_path, fsync="never", lock=False)
        journal.submitted("bounce", {"payload": 1})
        journal.moved("bounce", {"to": "shard-2"})
        journal.submitted("bounce", {"payload": 1})
        journal.compact()
        records, _ = journal.scan()
        journal.close()
        types = [r.type for r in sorted(records, key=lambda r: r.seq)]
        # Everything kept: the job is open, replay must requeue it.
        assert types == [
            RecordType.SUBMITTED,
            RecordType.MOVED,
            RecordType.SUBMITTED,
        ]


@pytest.mark.skipif(not HAS_FLOCK, reason="platform lacks flock()")
class TestLocking:
    def test_second_journal_on_same_dir_fails_fast(self, tmp_path):
        journal = JobJournal(tmp_path, fsync="never")
        with pytest.raises(JournalError, match="locked"):
            JobJournal(tmp_path, fsync="never")
        journal.close()
        # Released on close: a restart can take over.
        retaken = JobJournal(tmp_path, fsync="never")
        retaken.close()


# ---------------------------------------------------------------------------
# payload / request codec
# ---------------------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _values_form(kind: JobKind, payload) -> dict:
    """``payload`` as journals wrote it before the raw-bytes form: FFT
    ``[re, im]`` float pairs, every other kind a flat number list."""
    if kind is JobKind.FFT:
        x = np.asarray(payload, dtype=np.complex128)
        values = [[float(v.real), float(v.imag)] for v in x.ravel()]
    elif kind is JobKind.JPEG:
        x = np.asarray(payload)
        if x.dtype.kind == "f":
            x = np.clip(np.rint(x), 0, 255)
        x = x.astype(np.int64)
        values = x.ravel().tolist()
    elif kind is JobKind.DSP:
        x = np.asarray(payload, dtype=np.float64)
        values = [float(v) for v in x.ravel()]
    else:
        x = np.asarray(payload).astype(np.int64)
        values = x.ravel().tolist()
    return {"shape": list(x.shape), "values": values}


def _bits(array: np.ndarray) -> tuple:
    return array.dtype.str, array.shape, array.tobytes()


def _examples() -> list[JobRequest]:
    """One request of every registered kind, default configuration."""
    rng = np.random.default_rng(11)
    requests = []
    for kind in JobKind:
        frontend = get_frontend(kind.value)
        payload = frontend.example_payload(frontend.canonicalize(None), rng)
        requests.append(
            JobRequest(spec=spec_for(kind), payload=payload, job_id=f"old-{kind.value}")
        )
    return requests


class TestOldJournalsReplay:
    """Journals written in the ``values`` form decode bit-equal to the
    raw-bytes form and recover in an engine."""

    def test_every_kind_decodes_bit_equal(self):
        rng = np.random.default_rng(5)
        special = np.array(
            [-0.0 + 1j, 5e-324 - 0.0j, complex(np.inf, -np.inf), 1.5 - 2.25j]
        )
        payloads = [(r.spec.kind, r.payload) for r in _examples()] + [
            (JobKind.FFT, special),
            (JobKind.JPEG, rng.uniform(-20.0, 280.0, (8, 8))),  # a float frame
        ]
        for kind, payload in payloads:
            old = json.loads(json.dumps(_values_form(kind, payload)))
            new = json.loads(json.dumps(encode_payload(kind, payload)))
            assert _bits(decode_payload(kind, old)) == _bits(decode_payload(kind, new))

    def test_a_segment_of_both_forms_recovers(self, tmp_path):
        requests = _examples()
        with JobJournal(tmp_path, fsync=FsyncPolicy.NEVER) as journal:
            for index, request in enumerate(requests):
                data = encode_request(request)
                if index % 2 == 0:
                    data["payload"] = _values_form(request.spec.kind, request.payload)
                journal.submitted(request.job_id, data)
        engine = DurableEngine(tmp_path)
        try:
            assert [r.job_id for r in engine.queue] == [r.job_id for r in requests]
            for recovered, request in zip(engine.queue, requests):
                expected = decode_payload(
                    request.spec.kind, encode_payload(request.spec.kind, request.payload)
                )
                assert _bits(recovered.payload) == _bits(expected)
            engine.run()
        finally:
            engine.close()
        for request in requests:
            result = engine.results[request.job_id]
            direct = default_session_factory(request.spec).run(
                request.payload, CancelToken()
            )
            assert result.ok
            output = result.output
            assert (output if isinstance(output, bytes) else output.tobytes()) == (
                direct.output
                if isinstance(direct.output, bytes)
                else direct.output.tobytes()
            )



class TestPayloadCodec:
    @given(st.lists(st.tuples(_finite, _finite), min_size=1, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_fft_payload_bit_exact(self, pairs):
        x = np.array([complex(re, im) for re, im in pairs])
        back = decode_payload(JobKind.FFT, encode_payload(JobKind.FFT, x))
        assert back.dtype == np.complex128
        assert np.array_equal(back, x.astype(np.complex128))

    @given(
        st.lists(
            st.lists(st.integers(0, 255), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_jpeg_payload_bit_exact(self, rows):
        frame = np.array(rows, dtype=np.int64)
        back = decode_payload(JobKind.JPEG, encode_payload(JobKind.JPEG, frame))
        assert back.dtype == np.int64
        assert np.array_equal(back, frame)

    def test_request_round_trip(self):
        rng = np.random.default_rng(3)
        request = JobRequest(
            spec=fft_spec(16, 4, 2),
            payload=rng.standard_normal(16) + 1j * rng.standard_normal(16),
            job_id="rt-0",
            timeout_s=12.5,
            max_retries=3,
            tag="client-7",
        )
        back = decode_request("rt-0", encode_request(request))
        assert back.spec == request.spec
        assert back.timeout_s == 12.5
        assert back.max_retries == 3
        assert back.tag == "client-7"
        assert np.array_equal(back.payload, request.payload)

    def test_jpeg_request_round_trip(self):
        rng = np.random.default_rng(4)
        request = JobRequest(
            spec=jpeg_spec(75, False),
            payload=rng.integers(0, 256, size=(8, 8), dtype=np.int64),
            job_id="rt-1",
        )
        back = decode_request("rt-1", encode_request(request))
        assert back.spec == request.spec
        assert np.array_equal(back.payload, request.payload)
