"""repro.serve.durability — host-side crash durability for the service.

PR 3 made the *fabric* survive SEUs; this package makes the *host*
survive its own death.  Every accepted job is recorded in a write-ahead
journal before the client sees an acknowledgement, every lifecycle edge
(dispatch, retry, epoch progress, terminal result) is appended as it
happens, and a restarted service replays the journal to reconstruct
exactly the state the crash destroyed: finished jobs keep their recorded
results (no duplicate execution, no duplicate client answer), unfinished
jobs are requeued, and epoch-resumable artifact jobs continue from their
last journaled fabric checkpoint instead of from scratch.

Modules
-------
:mod:`repro.serve.durability.records`
    Journal record model + the numpy payload codec.
:mod:`repro.serve.durability.journal`
    Append-only CRC32'd JSONL segments: rotation, fsync policy,
    compaction, torn-tail-tolerant scanning.
:mod:`repro.serve.durability.recovery`
    Replay of a scanned journal into per-job recovery state.
:mod:`repro.serve.durability.resume`
    Fabric checkpoint files + residency re-keying for epoch resume.
:mod:`repro.serve.durability.engine`
    The durable serving engine, the one owner of a job's lifecycle
    (queue, recovery, dedup, journal edges): shards (and through them
    the chaos runner) drive it sequentially, the asyncio service wraps
    it.
"""

from repro.serve.durability.engine import DurableEngine, EngineReport
from repro.serve.durability.journal import (
    FsyncPolicy,
    JobJournal,
    ScanReport,
)
from repro.serve.durability.records import (
    JournalRecord,
    RecordType,
    decode_payload,
    encode_payload,
)
from repro.serve.durability.recovery import JobReplay, RecoveryState, replay
from repro.serve.durability.resume import (
    load_checkpoint,
    rekey_residency,
    write_checkpoint,
)

__all__ = [
    "DurableEngine",
    "EngineReport",
    "FsyncPolicy",
    "JobJournal",
    "JobReplay",
    "JournalRecord",
    "RecordType",
    "RecoveryState",
    "ScanReport",
    "decode_payload",
    "encode_payload",
    "load_checkpoint",
    "rekey_residency",
    "replay",
    "write_checkpoint",
]
