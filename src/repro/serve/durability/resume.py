"""Fabric checkpoint files + residency re-keying for epoch resume.

An artifact job (FFT, conv2d, gemm, dsp) is a sequence of epoch
boundaries (the paper's Eq. 1 model), and
:class:`~repro.fabric.rtms.RuntimeManager` already knows how to snapshot
all architecturally visible mesh state at one
(:meth:`~repro.fabric.rtms.RuntimeManager.checkpoint`).  This module
persists such a snapshot to disk (pickle + CRC32, atomic publish) so a
*restarted process* can restore it into a freshly built session and
execute only the remaining epochs.

One subtlety makes cross-process restore work: tile residency tables
are keyed by ``id(program)``, and a fresh process builds fresh
``Program`` objects.  :func:`rekey_residency` re-keys every restored
residency entry onto the new session's artifact programs by matching
``(name, encoded-bytes)`` — programs that match stay pinned (free on
resume, exactly like the uninterrupted run); programs that do not match
simply lose their pinning and are re-streamed when next required, which
is slower but always correct.
"""

from __future__ import annotations

import os
import pickle
import zlib
from pathlib import Path
from typing import Iterable

from repro.chaos.crashpoints import crashpoint, register_crashpoint
from repro.fabric.assembler import Program
from repro.fabric.mesh import Mesh
from repro.fabric.rtms import FabricCheckpoint, RuntimeManager

__all__ = ["write_checkpoint", "load_checkpoint", "rekey_residency"]

CP_CHECKPOINT_WRITE = register_crashpoint("checkpoint.write")


def checkpoint_dir(journal_dir: Path | str) -> Path:
    """Where a journal's sidecar checkpoints live."""
    return Path(journal_dir) / "checkpoints"


def write_checkpoint(
    directory: Path | str,
    job_id: str,
    slice_index: int,
    rtms: RuntimeManager,
) -> tuple[str, int]:
    """Snapshot ``rtms`` after ``slice_index`` epochs; returns
    ``(path, crc32)`` for the EPOCH_PROGRESS journal record.

    Atomic publish (tmp + rename) so a crash mid-write never leaves a
    half-checkpoint under the final name; the CRC covers the pickled
    bytes so bit-rot is detected at load time.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps(
        {"slice": slice_index, "checkpoint": rtms.checkpoint()},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    crc = zlib.crc32(blob) & 0xFFFFFFFF
    path = directory / f"{job_id}.ckpt"
    tmp = path.with_suffix(".ckpt.tmp")
    crashpoint(CP_CHECKPOINT_WRITE)
    with tmp.open("wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    return str(path), crc


def load_checkpoint(
    path: Path | str, expected_crc: int
) -> tuple[int, FabricCheckpoint] | None:
    """Load and verify a checkpoint; None when missing/corrupt.

    Callers treat None as "resume unavailable, run from scratch" — the
    always-safe fallback.
    """
    path = Path(path)
    if not path.is_file():
        return None
    blob = path.read_bytes()
    if (zlib.crc32(blob) & 0xFFFFFFFF) != expected_crc:
        return None
    try:
        payload = pickle.loads(blob)
        slice_index = int(payload["slice"])
        checkpoint = payload["checkpoint"]
    except Exception:
        return None
    if not isinstance(checkpoint, FabricCheckpoint):
        return None
    return slice_index, checkpoint


def _program_key(program: Program) -> tuple[str, tuple[int, ...]]:
    return (program.name, tuple(program.encoded()))


def rekey_residency(mesh: Mesh, programs: Iterable[Program]) -> int:
    """Re-key restored residency tables onto this process's programs.

    After :meth:`RuntimeManager.restore` of an unpickled checkpoint the
    residency tables reference *unpickled copies* whose ``id()`` will
    never match the fresh artifact's programs.  Matching by name +
    encoded instruction words transfers the pinning; returns how many
    entries were re-keyed.  Entries with no match are left as-is (their
    pinning is unreachable, so the program streams again when needed —
    correct, merely charged).
    """
    by_key = {_program_key(p): p for p in programs}
    rekeyed = 0
    for tile in mesh:
        resident = getattr(tile, "_resident", None)
        if not resident:
            continue
        fresh: dict[int, tuple[Program, int]] = {}
        for old_id, (old_program, base) in resident.items():
            match = by_key.get(_program_key(old_program))
            if match is not None:
                fresh[id(match)] = (match, base)
                rekeyed += 1
                # Control state referencing the stale copy follows along.
                if tile.program is old_program:
                    tile.program = match
            else:
                fresh[old_id] = (old_program, base)
        tile._resident = fresh
    return rekeyed


def verify_checkpoint_file(path: Path | str, expected_crc: int) -> bool:
    """Cheap validity probe (exists + CRC) without unpickling."""
    path = Path(path)
    if not path.is_file():
        return False
    return (zlib.crc32(path.read_bytes()) & 0xFFFFFFFF) == expected_crc


def prune_checkpoints(
    directory: Path | str, keep_job_ids: set[str]
) -> int:
    """Delete checkpoints of jobs that no longer need one; returns the
    number removed (compaction's sidecar twin)."""
    directory = Path(directory)
    if not directory.is_dir():
        return 0
    removed = 0
    for path in sorted(directory.glob("*.ckpt")):
        if path.stem not in keep_job_ids:
            path.unlink(missing_ok=True)
            removed += 1
    return removed
