"""The write-ahead job journal: CRC32'd JSONL segments.

Framing
-------
One record per line::

    crc32hex<space>canonical-json\\n

The CRC covers exactly the JSON bytes, so a scan can tell three failure
shapes apart and survive all of them:

* a **torn tail** (crash mid-append): the last line has no newline or a
  truncated body — CRC fails, the record is dropped, scanning stops for
  that segment (nothing after a tear is trusted);
* a **flipped byte** anywhere: CRC fails, the record is dropped and the
  rest of *that segment* is distrusted (a tear and a bit-rot look alike
  from below), but later segments still load;
* a **missing segment** (deleted by compaction): seq numbers jump, which
  replay tolerates by design.

Durability policy
-----------------
The write-ahead contract is: *a job is only acknowledged after its
SUBMITTED record is in the journal.*  How hard "in the journal" is, is
the fsync policy:

* ``ALWAYS``  — fsync after every append (safe against power loss);
* ``ROTATE``  — fsync at segment rotation and close (safe against
  process crash, may lose the OS page cache on power loss);
* ``NEVER``   — leave it to the OS (benchmarks, tests).

Segments rotate at ``segment_records`` appends.  :meth:`compact`
rewrites the journal keeping only what replay still needs — every
record of unfinished jobs, and the DONE record of finished ones (so
restarted clients still get deduplicated results) — into a fresh
segment, then atomically swaps the old segments out.

A ``flock``-held lock file (``journal.lock``) makes two services
sharing the directory fail fast instead of interleaving appends.
"""

from __future__ import annotations

import os
import threading
import zlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from repro.chaos.crashpoints import (
    crashpoint,
    guarded_write,
    register_crashpoint,
)
from repro.errors import JournalError
from repro.locks import FileLock
from repro.serve.durability.records import JournalRecord, RecordType

__all__ = ["FsyncPolicy", "ScanReport", "JobJournal", "verify_segment"]

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"

#: Crash points instrumented by the journal (chaos matrix enumerable).
CP_APPEND = register_crashpoint("journal.append")
CP_APPEND_AFTER = register_crashpoint("journal.append.after")
CP_FSYNC = register_crashpoint("journal.fsync")
CP_ROTATE = register_crashpoint("journal.rotate")
CP_COMPACT_WRITE = register_crashpoint("journal.compact.write")
CP_COMPACT_SWAP = register_crashpoint("journal.compact.swap")


class FsyncPolicy(str, Enum):
    """How hard an append is pushed to stable storage."""

    ALWAYS = "always"
    ROTATE = "rotate"
    NEVER = "never"


@dataclass
class ScanReport:
    """What a journal scan found (and what it had to drop)."""

    records: int = 0
    segments: int = 0
    bytes_scanned: int = 0
    #: Lines dropped for CRC mismatch / truncation, per segment name.
    corrupt_lines: dict[str, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        return sum(self.corrupt_lines.values())


def _frame(record: JournalRecord) -> bytes:
    body = record.to_json().encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%08x " % crc + body + b"\n"


def _unframe(line: bytes) -> JournalRecord | None:
    """Decode one framed line; None when torn/corrupt."""
    if len(line) < 10 or line[8:9] != b" " or not line.endswith(b"\n"):
        return None
    try:
        want = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:-1]
    if zlib.crc32(body) & 0xFFFFFFFF != want:
        return None
    try:
        return JournalRecord.from_json(body.decode("utf-8"))
    except (JournalError, UnicodeDecodeError):
        return None


def verify_segment(path: Path) -> tuple[int, int]:
    """CRC-verify one segment file: ``(valid_records, corrupt_lines)``.

    Read-only (safe on a *live* shard's journal — the anti-entropy
    scrubber's whole point) and consistent with :meth:`JobJournal.scan`
    semantics: the first torn/corrupt line poisons the rest of the
    segment, so everything after it counts as corrupt too.
    """
    valid = 0
    corrupt = 0
    lines = path.read_bytes().splitlines(keepends=True)
    for index, raw in enumerate(lines):
        if _unframe(raw) is None:
            corrupt = len(lines) - index
            break
        valid += 1
    return valid, corrupt


class JobJournal:
    """Append-only job journal over rotating CRC'd JSONL segments."""

    def __init__(
        self,
        directory: Path | str,
        *,
        segment_records: int = 1024,
        fsync: FsyncPolicy | str = FsyncPolicy.ROTATE,
        lock: bool = True,
        lock_timeout_s: float | None = None,
    ) -> None:
        if segment_records < 1:
            raise JournalError(
                f"segment_records must be >= 1, got {segment_records}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_records = segment_records
        self.fsync = FsyncPolicy(fsync)
        self._lock = threading.Lock()
        self._file_lock: FileLock | None = None
        if lock:
            self._file_lock = FileLock(self.directory / "journal.lock")
            if lock_timeout_s is not None:
                # The rejoin path: a respawned shard blocks (bounded) on
                # its predecessor's lock.  A SIGKILL'd predecessor's
                # flock died with it, so this acquires immediately; a
                # hung (SIGSTOP'd) one raises LockTimeout naming its pid.
                self._file_lock.acquire(timeout_s=lock_timeout_s)
            elif not self._file_lock.try_acquire():
                raise JournalError(
                    f"journal directory {self.directory} is locked by "
                    f"another process"
                    + (
                        f" (pid {self._file_lock.holder_pid()})"
                        if self._file_lock.holder_pid() is not None
                        else ""
                    )
                )
        self._fh = None
        self._segment_path: Path | None = None
        self._records_in_segment = 0
        self._closed = False
        # -- counters (the service mirrors these into metrics) ---------
        self.appended = 0
        #: Records appended, by :class:`RecordType` value.
        self.appended_by_type: dict[str, int] = {}
        self.bytes_written = 0
        self.fsyncs = 0
        self.rotations = 0
        self.compactions = 0
        # Resume seq numbering after what is already on disk.
        self._seq = 0
        for record in self.scan()[0]:
            self._seq = max(self._seq, record.seq)

    # ------------------------------------------------------------------
    # segment layout
    # ------------------------------------------------------------------

    def segments(self) -> list[Path]:
        """Existing segment files, in append order."""
        return sorted(
            p
            for p in self.directory.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}")
            if p.is_file()
        )

    def _next_segment_path(self) -> Path:
        existing = self.segments()
        if existing:
            last = existing[-1].name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
            index = int(last) + 1
        else:
            index = 1
        return self.directory / f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}"

    def _open_segment(self) -> None:
        path = self._next_segment_path()
        self._fh = open(path, "ab")
        self._segment_path = path
        self._records_in_segment = 0
        self.rotations += 1

    def _sync(self) -> None:
        crashpoint(CP_FSYNC)
        assert self._fh is not None
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsyncs += 1

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------

    def append(self, record: JournalRecord) -> JournalRecord:
        """Frame, write and (policy-dependent) sync one record.

        Assigns the record's ``seq``; returns the record for chaining.
        Thread-safe: the asyncio service appends from worker threads.
        """
        with self._lock:
            if self._closed:
                raise JournalError("append on a closed journal")
            if self._fh is None or self._records_in_segment >= self.segment_records:
                self._rotate_locked()
            self._seq += 1
            record.seq = self._seq
            frame = _frame(record)
            assert self._fh is not None
            guarded_write(self._fh, frame, CP_APPEND)
            self._fh.flush()
            crashpoint(CP_APPEND_AFTER)
            if self.fsync is FsyncPolicy.ALWAYS:
                self._sync()
            self.appended += 1
            kind = record.type.value
            self.appended_by_type[kind] = self.appended_by_type.get(kind, 0) + 1
            self.bytes_written += len(frame)
            self._records_in_segment += 1
            return record

    def _rotate_locked(self) -> None:
        crashpoint(CP_ROTATE)
        if self._fh is not None:
            if self.fsync in (FsyncPolicy.ALWAYS, FsyncPolicy.ROTATE):
                self._sync()
            self._fh.close()
        self._open_segment()

    def close(self) -> None:
        """Flush, sync (unless ``NEVER``) and release the lock."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._fh is not None:
                if self.fsync is not FsyncPolicy.NEVER:
                    try:
                        self._sync()
                    except OSError:
                        pass
                self._fh.close()
                self._fh = None
            if self._file_lock is not None:
                self._file_lock.release()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # scan
    # ------------------------------------------------------------------

    def scan(self) -> tuple[list[JournalRecord], ScanReport]:
        """All valid records across all segments, oldest first.

        Corrupt/torn lines are dropped and counted; everything after
        the first bad line *within a segment* is distrusted, but later
        segments still load (a tear only tears one file).
        """
        records: list[JournalRecord] = []
        report = ScanReport()
        for path in self.segments():
            report.segments += 1
            data = path.read_bytes()
            report.bytes_scanned += len(data)
            for raw in data.splitlines(keepends=True):
                record = _unframe(raw)
                if record is None:
                    report.corrupt_lines[path.name] = (
                        report.corrupt_lines.get(path.name, 0) + 1
                    )
                    break  # distrust the rest of this segment
                records.append(record)
                report.records += 1
        records.sort(key=lambda r: r.seq)
        return records, report

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def compact(self) -> int:
        """Drop records replay no longer needs; returns records removed.

        Keeps every record of jobs without a terminal record (they will
        be requeued/resumed) and only the terminal record of finished
        (DONE — result dedup across restarts) or moved (MOVED — another
        shard owns them now) jobs.  Crash-safe: the survivor set is
        written to a fresh segment first, the old segments are removed
        only after it is fully on disk — a crash mid-compaction leaves
        either the old or the new layout, both replayable (at worst
        with duplicate records, which replay tolerates idempotently).
        """
        terminal = (RecordType.DONE, RecordType.MOVED)
        with self._lock:
            if self._closed:
                raise JournalError("compact on a closed journal")
            records, _ = self.scan()
            # A job is closed only when its newest terminal record is
            # newer than its newest SUBMITTED: a SUBMITTED after a MOVED
            # is a re-adoption (the job was stolen/drained away and came
            # back), and dropping its records would disown it.
            last_open: dict[str, int] = {}
            last_closed: dict[str, int] = {}
            for r in records:
                if r.type is RecordType.SUBMITTED:
                    if r.seq > last_open.get(r.job_id, -1):
                        last_open[r.job_id] = r.seq
                elif r.type in terminal:
                    if r.seq > last_closed.get(r.job_id, -1):
                        last_closed[r.job_id] = r.seq
            done_jobs = {
                job_id
                for job_id, seq in last_closed.items()
                if seq > last_open.get(job_id, -1)
            }
            keep = [
                r
                for r in records
                if r.job_id not in done_jobs or r.type in terminal
            ]
            removed = len(records) - len(keep)
            old_segments = self.segments()
            if self._fh is not None:
                if self.fsync is not FsyncPolicy.NEVER:
                    self._sync()
                self._fh.close()
                self._fh = None
            # Write survivors into the *next* segment index so ordering
            # by file name still matches append order.
            crashpoint(CP_COMPACT_WRITE)
            self._open_segment()
            assert self._fh is not None
            for record in keep:
                frame = _frame(record)
                guarded_write(self._fh, frame, CP_COMPACT_WRITE)
            self._fh.flush()
            if self.fsync is not FsyncPolicy.NEVER:
                self._sync()
            self._records_in_segment = len(keep)
            crashpoint(CP_COMPACT_SWAP)
            for path in old_segments:
                path.unlink(missing_ok=True)
            self.compactions += 1
            return removed

    # ------------------------------------------------------------------
    # record helpers (thin sugar the engine's edges call)
    # ------------------------------------------------------------------

    def submitted(self, job_id: str, data: dict) -> JournalRecord:
        return self.append(JournalRecord(RecordType.SUBMITTED, job_id, data))

    def dispatched(self, job_id: str, data: dict) -> JournalRecord:
        return self.append(JournalRecord(RecordType.DISPATCHED, job_id, data))

    def epoch_progress(self, job_id: str, data: dict) -> JournalRecord:
        return self.append(
            JournalRecord(RecordType.EPOCH_PROGRESS, job_id, data)
        )

    def retry(self, job_id: str, data: dict) -> JournalRecord:
        return self.append(JournalRecord(RecordType.RETRY, job_id, data))

    def done(self, job_id: str, data: dict) -> JournalRecord:
        return self.append(JournalRecord(RecordType.DONE, job_id, data))

    def moved(self, job_id: str, data: dict) -> JournalRecord:
        return self.append(JournalRecord(RecordType.MOVED, job_id, data))
