"""ArtifactCache: request memo, LRU, disk tier, counters."""

from __future__ import annotations

import pickle

import pytest

from repro.compile.cache import ArtifactCache, CacheStats
from repro.compile.frontends import compile_fft, compile_jpeg
from repro.compile.ir import CompiledArtifact
from repro.errors import CompileError
from repro.kernels.fft.decompose import FFTPlan


class TestStats:
    def test_requests_and_hit_rate(self):
        stats = CacheStats(hits=3, misses=1, disk_hits=1)
        assert stats.requests == 5
        assert stats.hit_rate == pytest.approx(0.8)

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_delta_of_snapshots(self):
        stats = CacheStats(hits=2, misses=4, lowers=4)
        before = stats.snapshot()
        stats.hits += 3
        stats.misses += 1
        diff = stats.delta(before)
        assert (diff.hits, diff.misses, diff.lowers) == (3, 1, 0)

    def test_as_dict_schema(self):
        keys = set(CacheStats().as_dict())
        assert keys == {"hits", "misses", "disk_hits", "lowers",
                        "evictions", "corrupt_quarantined",
                        "requests", "hit_rate"}


class TestMemoryCache:
    def test_second_request_is_a_hit_and_identical(self):
        cache = ArtifactCache()
        a = compile_fft(FFTPlan(16, 16, 1), cache=cache)
        b = compile_fft(FFTPlan(16, 16, 1), cache=cache)
        assert a is b
        assert cache.stats.hits == 1
        assert cache.stats.misses == cache.stats.lowers == 1

    def test_distinct_params_are_distinct_entries(self):
        cache = ArtifactCache()
        a = compile_fft(FFTPlan(16, 16, 1), cache=cache)
        b = compile_fft(FFTPlan(16, 16, 1), link_cost_ns=50.0, cache=cache)
        assert a is not b
        assert a.artifact_hash != b.artifact_hash
        assert len(cache) == 2

    def test_lru_eviction_under_capacity_pressure(self):
        cache = ArtifactCache(capacity=1)
        compile_fft(FFTPlan(16, 16, 1), cache=cache)
        compile_jpeg(75, cache=cache)  # evicts the FFT
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        # Re-requesting the evicted artifact recompiles (miss, not hit).
        compile_fft(FFTPlan(16, 16, 1), cache=cache)
        assert cache.stats.misses == 3
        assert cache.stats.hits == 0

    def test_lookup_by_content_hash(self):
        cache = ArtifactCache()
        artifact = compile_jpeg(75, cache=cache)
        assert cache.lookup(artifact.artifact_hash) is artifact
        assert cache.lookup("0" * 64) is None

    def test_clear_resets_everything(self):
        cache = ArtifactCache()
        compile_fft(FFTPlan(16, 16, 1), cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.requests == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(CompileError, match="capacity"):
            ArtifactCache(capacity=0)

    def test_build_without_hash_rejected(self):
        cache = ArtifactCache()

        class Hollow:
            artifact_hash = ""

        with pytest.raises(CompileError, match="without a\n?.*content hash"):
            cache.get_or_compile("bogus", {}, lambda: Hollow())


class TestDiskTier:
    def test_round_trip_through_the_disk_store(self, tmp_path):
        first = ArtifactCache(disk_dir=tmp_path)
        artifact = compile_jpeg(75, cache=first)
        files = list(tmp_path.glob("*.artifact"))
        assert [p.stem for p in files] == [artifact.artifact_hash]

        # A fresh process-equivalent: new cache, same directory.  The
        # persisted request index routes the request straight to disk.
        second = ArtifactCache(disk_dir=tmp_path)
        revived = compile_jpeg(75, cache=second)
        assert second.stats.disk_hits == 1
        assert second.stats.misses == 0
        assert second.stats.lowers == 0
        assert revived.artifact_hash == artifact.artifact_hash
        assert revived.switch_table == artifact.switch_table
        # Decoded tables were stripped at pickle time and revived.
        assert len(revived.decoded) == len(revived.programs) > 0
        # The input-port encoder was rebuilt from its signature: the
        # revived artifact binds (and validates) payloads like new.
        import numpy as np

        bound = revived.bind(np.zeros((8, 8)))
        assert bound[0].name == "pixels" and bound[0].pokes

    def test_pickled_state_carries_no_switch_pieces(self):
        artifact = compile_fft(FFTPlan(16, 16, 1), cache=ArtifactCache())
        state = artifact.__getstate__()
        assert state["switch_pieces"] == () and state["decoded"] == ()
        assert "switch_table" not in state
        assert len(artifact.switch_pieces) == len(artifact.epoch_names)

    def test_entry_with_a_stored_switch_table_loads_and_prices(
            self, tmp_path, monkeypatch):
        # Older disk entries pickled the eager E² ``switch_table`` field
        # and no switch pieces; such an entry must still load and price
        # every pair exactly like a fresh compile.
        fresh = compile_fft(FFTPlan(64, 8, 2), 100.0, cache=ArtifactCache())
        table = fresh.switch_table

        def old_layout(self):
            state = dict(self.__dict__)
            state["decoded"] = ()
            del state["switch_pieces"], state["epoch_plan"]
            state["switch_table"] = table
            return state

        monkeypatch.setattr(CompiledArtifact, "__getstate__", old_layout)
        blob = pickle.dumps(fresh)
        monkeypatch.undo()
        assert b"switch_table" in blob and b"switch_pieces" not in blob
        (tmp_path / f"{fresh.artifact_hash}.artifact").write_bytes(blob)

        revived = ArtifactCache(disk_dir=tmp_path)._disk_load(
            fresh.artifact_hash)
        assert "switch_table" not in vars(revived)
        n = len(fresh.epoch_names)
        assert len(revived.switch_pieces) == n > 10
        assert [revived.switch_cost_ns(i, j)
                for i in range(n) for j in range(n)] == \
            [fresh.switch_cost_ns(i, j) for i in range(n) for j in range(n)]
        assert revived.switch_table == table

    def test_memoised_request_revives_from_disk_after_clearing_memory(
            self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        artifact = compile_fft(FFTPlan(16, 16, 1), cache=cache)
        # Drop memory but keep the memo by rebuilding it with one miss.
        cache._store.clear()
        revived = compile_fft(FFTPlan(16, 16, 1), cache=cache)
        assert cache.stats.disk_hits == 1
        assert revived.artifact_hash == artifact.artifact_hash

    def test_corrupt_entry_is_detected(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        artifact = compile_jpeg(75, cache=cache)
        path = tmp_path / f"{artifact.artifact_hash}.artifact"
        bogus = tmp_path / ("1" * 64 + ".artifact")
        path.rename(bogus)  # now named by the wrong hash
        with pytest.raises(CompileError, match="corrupt or renamed"):
            cache._disk_load("1" * 64)

    def test_non_artifact_pickle_is_rejected(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        path = tmp_path / ("2" * 64 + ".artifact")
        path.write_bytes(pickle.dumps({"not": "an artifact"}))
        with pytest.raises(CompileError, match="not a CompiledArtifact"):
            cache._disk_load("2" * 64)


class TestDiskHardening:
    """ISSUE 5 satellites: quarantine, fsync publishes, index locking,
    torn-write crash points."""

    def test_corrupt_artifact_is_quarantined_not_fatal(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        artifact = compile_jpeg(75, cache=cache)
        path = tmp_path / f"{artifact.artifact_hash}.artifact"
        path.write_bytes(b"rotted bytes")
        cache._store.clear()  # force the disk tier

        revived = compile_jpeg(75, cache=cache)  # falls back to compile
        assert revived.artifact_hash == artifact.artifact_hash
        assert cache.stats.corrupt_quarantined == 1
        moved = tmp_path / "corrupt" / path.name
        assert moved.read_bytes() == b"rotted bytes"
        # The fresh compile re-published a good copy under the old name.
        assert path.exists() and path.read_bytes() != b"rotted bytes"

    def test_lookup_reports_quarantined_entry_as_miss(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        artifact = compile_jpeg(75, cache=cache)
        path = tmp_path / f"{artifact.artifact_hash}.artifact"
        path.write_bytes(b"rotted bytes")
        cache._store.clear()
        assert cache.lookup(artifact.artifact_hash) is None
        assert cache.stats.corrupt_quarantined == 1

    def test_fsync_publish_round_trips(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path, fsync=True)
        artifact = compile_jpeg(75, cache=cache)
        second = ArtifactCache(disk_dir=tmp_path)
        revived = compile_jpeg(75, cache=second)
        assert revived.artifact_hash == artifact.artifact_hash
        assert second.stats.disk_hits == 1

    def test_index_rewrites_take_the_file_lock(self, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        compile_jpeg(75, cache=cache)
        assert (tmp_path / "index.lock").exists()

    def test_torn_payload_write_publishes_nothing(self, tmp_path):
        from repro.chaos.crashpoints import FaultSpec, SimulatedCrash, armed

        cache = ArtifactCache(disk_dir=tmp_path)
        with armed(FaultSpec("cache.payload.write", action="torn",
                             torn_fraction=0.5)):
            with pytest.raises(SimulatedCrash):
                compile_jpeg(75, cache=cache)
        # The atomic publish never happened: no visible artifact, only
        # the torn tmp file a restart can ignore.
        assert list(tmp_path.glob("*.artifact")) == []

        fresh = ArtifactCache(disk_dir=tmp_path)
        artifact = compile_jpeg(75, cache=fresh)
        assert artifact.artifact_hash
