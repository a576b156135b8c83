"""Content-addressed artifact cache.

Two-level keying, deliberately split:

* **request memo** — ``(kind, sorted(params))`` → plan hash.  Lowering a
  kernel graph is itself not free (program assembly, twiddle tables), so
  repeated compile *requests* skip straight to the hash without running
  the frontend again.
* **content store** — plan hash → :class:`CompiledArtifact`, an
  :class:`~collections.OrderedDict` LRU.  Two different requests that
  lower to the same plan (e.g. a DSE sweep revisiting a point, a fault
  campaign rolling back to a config it already built) share one entry.

The optional on-disk store persists artifacts as pickles named by their
content hash, plus an ``index.json`` mapping request keys to hashes so a
fresh process reaches the disk tier without lowering first.  Predecoded
closures are unpicklable by design and the switch pieces are derived
state (:meth:`CompiledArtifact.__getstate__` drops both), and input-port
encoders pickle as their static signature
(:func:`repro.compile.ir.register_port_encoder` rebuilds them), so a
disk load re-runs the predecode and switch-table passes before the
artifact is handed out;
loaded artifacts are re-verified against the hash embedded in the file
name.
Note that disk-loaded artifacts carry *fresh* ``Program`` objects —
internally consistent (plan and artifact share them) but distinct from
the in-process ``lru_cache``d factories, so mixing disk-loaded and
freshly-lowered artifacts on one fabric forfeits cross-artifact pinning.

Stats (hits/misses/lowers, per level) feed the ``python -m repro
compile`` demo, the sweep reports, and ``benchmarks/bench_compile.py``.
"""

from __future__ import annotations

import json
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.chaos.crashpoints import guarded_write, register_crashpoint
from repro.errors import CompileError
from repro.locks import FileLock

from repro.compile.ir import CompiledArtifact
from repro.compile.passes import (
    CompileUnit,
    predecode_pass,
    switch_table_pass,
)

__all__ = ["CacheStats", "ArtifactCache", "get_cache", "cache_stats",
           "clear_cache"]


RequestKey = tuple[str, tuple[tuple[str, Any], ...]]

#: Crash points instrumented by the disk tier (chaos matrix enumerable).
CP_CACHE_PAYLOAD = register_crashpoint("cache.payload.write")
CP_CACHE_INDEX = register_crashpoint("cache.index.write")


@dataclass
class CacheStats:
    """Counters of one :class:`ArtifactCache` (cumulative until reset)."""

    hits: int = 0          # artifact served from memory
    misses: int = 0        # full lower + pass pipeline ran
    disk_hits: int = 0     # artifact revived from the disk store
    lowers: int = 0        # frontend lowerings actually executed
    evictions: int = 0     # LRU pressure drops
    corrupt_quarantined: int = 0  # unreadable disk entries moved aside

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.requests
        return (self.hits + self.disk_hits) / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "lowers": self.lowers,
            "evictions": self.evictions,
            "corrupt_quarantined": self.corrupt_quarantined,
            "requests": self.requests,
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.disk_hits,
                          self.lowers, self.evictions,
                          self.corrupt_quarantined)

    def delta(self, before: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``before`` (a prior snapshot)."""
        return CacheStats(
            hits=self.hits - before.hits,
            misses=self.misses - before.misses,
            disk_hits=self.disk_hits - before.disk_hits,
            lowers=self.lowers - before.lowers,
            evictions=self.evictions - before.evictions,
            corrupt_quarantined=(
                self.corrupt_quarantined - before.corrupt_quarantined
            ),
        )


@dataclass
class ArtifactCache:
    """In-memory LRU of compiled artifacts with an optional disk tier.

    ``fsync=True`` pushes every atomic publish (payload + index) to
    stable storage before the rename — power-loss durability at the cost
    of one fsync per new artifact.  Index rewrites are serialized across
    processes through a ``flock`` on ``index.lock`` (best-effort no-op
    on platforms without ``fcntl``), so two processes sharing one disk
    cache cannot interleave a rewrite.  Disk entries that fail to load
    (truncated pickle, wrong type, hash mismatch) are *quarantined* —
    moved into ``corrupt/`` and counted — and the request falls back to
    a fresh compile instead of failing.
    """

    capacity: int = 64
    disk_dir: Path | None = None
    fsync: bool = False
    stats: CacheStats = field(default_factory=CacheStats)
    _store: OrderedDict[str, CompiledArtifact] = field(
        default_factory=OrderedDict)
    _memo: dict[RequestKey, str] = field(default_factory=dict)
    _index_lock: FileLock | None = field(default=None, repr=False)
    #: Memory tier of the generated batch-codegen sources:
    #: hash -> (codegen version, {source key -> source text}).
    _batch_sources: dict[str, tuple[int, dict[str, str]]] = field(
        default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise CompileError(f"cache capacity must be >= 1, "
                               f"got {self.capacity}")
        if self.disk_dir is not None:
            self.disk_dir = Path(self.disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            self._index_lock = FileLock(self.disk_dir / "index.lock")
            self._load_index()

    # -- bookkeeping -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop every entry and reset the counters (disk files are kept,
        and the persisted request index is re-read so later requests can
        still revive artifacts from disk)."""
        self._store.clear()
        self._memo.clear()
        self._batch_sources.clear()
        self.stats = CacheStats()
        if self.disk_dir is not None:
            self._load_index()

    def _touch(self, key: str) -> CompiledArtifact:
        self._store.move_to_end(key)
        return self._store[key]

    def _insert(self, artifact: CompiledArtifact) -> None:
        self._store[artifact.artifact_hash] = artifact
        self._store.move_to_end(artifact.artifact_hash)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.stats.evictions += 1

    # -- the disk tier ---------------------------------------------------

    def _index_path(self) -> Path:
        return self.disk_dir / "index.json"

    def _load_index(self) -> None:
        """Merge the persisted request->hash index into the memo.

        Without this a fresh process could never *reach* the disk tier:
        ``get_or_compile`` only consults disk once it knows which hash a
        request lowers to.  A corrupt or missing index is ignored — it
        is rebuilt as requests compile.
        """
        path = self._index_path()
        if not path.exists():
            return
        try:
            entries = json.loads(path.read_text())
        except ValueError:
            return
        for entry in entries:
            try:
                key: RequestKey = (
                    entry["kind"],
                    tuple((k, v) for k, v in entry["params"]),
                )
                self._memo.setdefault(key, entry["hash"])
            except (KeyError, TypeError, ValueError):
                continue

    def _save_index(self) -> None:
        if self.disk_dir is None:
            return
        entries = []
        for (kind, params), artifact_hash in self._memo.items():
            try:
                entries.append(json.dumps({
                    "kind": kind,
                    "params": [list(pair) for pair in params],
                    "hash": artifact_hash,
                }))
            except (TypeError, ValueError):
                continue  # non-JSON params stay memory-only
        data = ("[\n" + ",\n".join(entries) + "\n]\n").encode("utf-8")
        tmp = self._index_path().with_suffix(".tmp")
        # flock: two processes sharing the disk cache serialize their
        # index rewrites (the tmp name is shared; an interleaved write
        # could publish a mix of two indexes).
        assert self._index_lock is not None
        with self._index_lock:
            with tmp.open("wb") as fh:
                guarded_write(fh, data, CP_CACHE_INDEX)
                if self.fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            tmp.replace(self._index_path())  # atomic publish

    def _disk_path(self, artifact_hash: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{artifact_hash}.artifact"

    def _quarantine(self, artifact_hash: str) -> None:
        """Move an unreadable disk entry into ``corrupt/`` (kept for the
        operator's post-mortem rather than silently deleted) and count
        it; the caller falls back to a fresh compile."""
        path = self._disk_path(artifact_hash)
        if path is None or not path.exists():
            return
        corrupt_dir = self.disk_dir / "corrupt"
        corrupt_dir.mkdir(parents=True, exist_ok=True)
        try:
            path.replace(corrupt_dir / path.name)
        except OSError:
            path.unlink(missing_ok=True)
        self.stats.corrupt_quarantined += 1

    def _disk_load_quarantining(
        self, artifact_hash: str
    ) -> CompiledArtifact | None:
        """:meth:`_disk_load`, but corruption quarantines instead of
        raising — the resilient path ``get_or_compile`` uses."""
        try:
            return self._disk_load(artifact_hash)
        except CompileError:
            self._quarantine(artifact_hash)
            return None

    def _disk_load(self, artifact_hash: str) -> CompiledArtifact | None:
        path = self._disk_path(artifact_hash)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as fh:
                artifact = pickle.load(fh)
        except Exception as exc:
            raise CompileError(
                f"disk store entry {path.name} is unreadable "
                f"(corrupt or truncated pickle: {exc!r})"
            ) from None
        if not isinstance(artifact, CompiledArtifact):
            raise CompileError(
                f"disk store entry {path.name} is not a CompiledArtifact"
            )
        if artifact.artifact_hash != artifact_hash:
            raise CompileError(
                f"disk store entry {path.name} hashes to "
                f"{artifact.artifact_hash[:12]}… (corrupt or renamed)"
            )
        # Predecoded closures and switch pieces are stripped before
        # pickling; revive them.
        unit = CompileUnit(graph=artifact.graph, plan=artifact.plan)
        predecode_pass(unit)
        switch_table_pass(unit)
        artifact.programs = tuple(unit.programs)
        artifact.decoded = tuple(unit.decoded)
        artifact.switch_pieces = unit.switch_pieces
        return artifact

    def _disk_save(self, artifact: CompiledArtifact) -> None:
        path = self._disk_path(artifact.artifact_hash)
        if path is None or path.exists():
            return
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as fh:
            guarded_write(fh, pickle.dumps(artifact), CP_CACHE_PAYLOAD)
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())
        tmp.replace(path)  # atomic publish: readers never see a torn file

    # -- the main entry point --------------------------------------------

    def get_or_compile(
        self,
        kind: str,
        params: dict[str, Any],
        build: Callable[[], CompiledArtifact],
    ) -> CompiledArtifact:
        """The artifact for ``(kind, params)``, compiling at most once.

        ``build`` runs the frontend lowering plus the pass pipeline and
        must return an artifact whose ``artifact_hash`` is set; it is
        only invoked on a full miss.
        """
        request: RequestKey = (kind, tuple(sorted(params.items())))
        known_hash = self._memo.get(request)
        if known_hash is not None:
            if known_hash in self._store:
                self.stats.hits += 1
                return self._touch(known_hash)
            revived = self._disk_load_quarantining(known_hash)
            if revived is not None:
                self.stats.disk_hits += 1
                self._insert(revived)
                return revived
        self.stats.misses += 1
        self.stats.lowers += 1
        artifact = build()
        if not artifact.artifact_hash:
            raise CompileError(
                f"build for {kind!r} returned an artifact without a "
                f"content hash (did the hash pass run?)"
            )
        self._memo[request] = artifact.artifact_hash
        if self.disk_dir is not None:
            self._save_index()
        existing = self._store.get(artifact.artifact_hash)
        if existing is not None:
            # Another request lowered to the same plan: share the entry.
            return self._touch(artifact.artifact_hash)
        self._insert(artifact)
        self._disk_save(artifact)
        return artifact

    # -- batched-codegen source tier -------------------------------------

    def _batch_source_path(self, artifact_hash: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{artifact_hash}.batchsrc"

    def load_batch_sources(
        self, artifact_hash: str, version: int
    ) -> dict[str, str] | None:
        """Generated batched-numpy sources persisted beside the artifact.

        Keyed by plan hash + codegen version: a version mismatch (or any
        corruption) reads as a miss, so the batch tier regenerates and
        re-publishes.  Memory tier first, then the disk file.
        """
        cached = self._batch_sources.get(artifact_hash)
        if cached is not None and cached[0] == version:
            return dict(cached[1])
        path = self._batch_source_path(artifact_hash)
        if path is None or not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if payload.get("version") != version:
                return None
            sources = payload["sources"]
            if not isinstance(sources, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in sources.items()
            ):
                return None
        except (OSError, ValueError, KeyError, TypeError):
            return None  # pure cache: corruption means regenerate
        self._batch_sources[artifact_hash] = (version, dict(sources))
        return sources

    def save_batch_sources(
        self, artifact_hash: str, version: int, sources: dict[str, str]
    ) -> None:
        """Publish generated batch sources (atomic replace; best effort)."""
        self._batch_sources[artifact_hash] = (version, dict(sources))
        path = self._batch_source_path(artifact_hash)
        if path is None:
            return
        data = json.dumps(
            {"version": version, "sources": sources}, indent=1, sort_keys=True
        ).encode("utf-8")
        tmp = path.with_suffix(".batchsrc.tmp")
        with tmp.open("wb") as fh:
            fh.write(data)
            if self.fsync:
                fh.flush()
                os.fsync(fh.fileno())
        tmp.replace(path)

    def lookup(self, artifact_hash: str) -> CompiledArtifact | None:
        """Content lookup (memory, then disk) without compiling; a
        corrupt disk entry is quarantined and reported as a miss."""
        if artifact_hash in self._store:
            self.stats.hits += 1
            return self._touch(artifact_hash)
        revived = self._disk_load_quarantining(artifact_hash)
        if revived is not None:
            self.stats.disk_hits += 1
            self._insert(revived)
        return revived


# ---------------------------------------------------------------------------
# the process-default cache
# ---------------------------------------------------------------------------

_default_cache = ArtifactCache()


def get_cache() -> ArtifactCache:
    """The process-wide default cache the frontends compile through."""
    return _default_cache


def cache_stats() -> CacheStats:
    """Counters of the default cache (live object; snapshot() to freeze)."""
    return _default_cache.stats


def clear_cache() -> None:
    """Empty the default cache and reset its counters."""
    _default_cache.clear()
