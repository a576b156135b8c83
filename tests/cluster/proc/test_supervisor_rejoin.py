"""The rejoin protocol, deterministically (loopback shards).

:class:`ClusterSupervisor` with a respawn budget works over any router
whose ``worker_factory`` rebuilds a shard from its journal directory;
running it over the router's default *loopback* shards makes every step
of detect → handoff → respawn → scrub-gate → rejoin assertable without
subprocess timing in the way.  (Subprocess shards get the same
treatment under chaos in ``test_proc_chaos.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.lifecycle import (
    ClusterSupervisor,
    HealthMonitor,
    ShardHeartbeat,
    ShardState,
)
from repro.cluster.router import ShardRouter
from repro.errors import ClusterError
from repro.serve.durability.journal import FsyncPolicy
from repro.serve.jobs import JobRequest, fft_spec, jpeg_spec

_SPECS = (fft_spec(16, 4, 2), jpeg_spec(75, False), jpeg_spec(50, False))


def _request(index: int) -> JobRequest:
    spec = _SPECS[index % len(_SPECS)]
    if spec.kind.value == "fft":
        payload = np.linspace(0.0, 1.0, 16) + 0j
    else:
        payload = np.full((8, 8), 50 + index, dtype=np.int64)
    return JobRequest(spec=spec, payload=payload, job_id=f"rj-{index:03d}")


def _cluster(tmp_path, **kwargs):
    router = ShardRouter(
        tmp_path / "cluster",
        [f"shard-{i}" for i in range(3)],
        pool_size=1,
        fsync=FsyncPolicy.NEVER,
    )
    kwargs.setdefault("max_respawns_per_shard", 2)
    supervisor = ClusterSupervisor(router, scrub_every=0, **kwargs)
    return router, supervisor


def _kill_and_supervise(router, supervisor, victim="shard-1", rounds=20):
    """Crash ``victim`` and tick until the supervisor acts on DEAD."""
    router.shards[victim].kill()
    for _ in range(rounds):
        supervisor.tick()
        if supervisor.monitor.state(victim) is not ShardState.DEAD:
            if any(r.shard == victim for r in supervisor.rejoins):
                break
    return supervisor.monitor.state(victim)


class TestRejoinEndToEnd:
    def test_dead_shard_comes_back_clean(self, tmp_path):
        router, supervisor = _cluster(tmp_path)
        for index in range(9):
            router.submit(_request(index))
        router.step_round()

        state = _kill_and_supervise(router, supervisor)
        assert state is ShardState.HEALTHY
        attempts = [r for r in supervisor.rejoins if r.shard == "shard-1"]
        assert len(attempts) == 1 and attempts[0].ok
        report = attempts[0]
        assert report.gate_corrupt_lines == 0
        assert report.rejoin_round >= report.detect_round
        assert report.mttr_s > 0
        # Fresh member: alive, on the ring, journal dir unchanged.
        shard = router.shards["shard-1"]
        assert shard.alive
        assert "shard-1" in router.ring.nodes()
        # Every journaled-but-unfinished job the respawn recovered is
        # either still owned by the respawned shard or was deduped
        # because the handoff re-homed it first — never both, never lost.
        assert report.deduped_on_rejoin <= max(report.recovered_requeued, 0)
        router.close()

    def test_drain_to_completion_after_rejoin(self, tmp_path):
        """The cluster must still finish every job after a crash+rejoin."""
        router, supervisor = _cluster(tmp_path)
        for index in range(9):
            router.submit(_request(index))
        _kill_and_supervise(router, supervisor)
        for _ in range(40):
            router.rebalance()
            if not router.step_round():
                break
        assert len(router.results) == 9
        assert sorted(router.results) == [f"rj-{i:03d}" for i in range(9)]
        router.close()


class TestGuards:
    def test_mark_recovered_refuses_the_living(self):
        monitor = HealthMonitor()
        monitor.observe(ShardHeartbeat(shard="shard-0", round_index=1))
        with pytest.raises(ClusterError, match="only DEAD"):
            monitor.mark_recovered("shard-0")

    def test_rejoin_refuses_a_live_shard(self, tmp_path):
        router, supervisor = _cluster(tmp_path)
        report = supervisor.rejoin("shard-0", detect_round=1)
        assert not report.ok
        assert "alive" in report.error
        router.close()

    def test_respawn_budget_contains_crash_loops(self, tmp_path):
        """An exhausted budget and the default (none) are one path: dead
        stays dead, as under a supervisor that never respawns."""
        for index, kwargs in enumerate(({"max_respawns_per_shard": 0}, {})):
            router = ShardRouter(
                tmp_path / f"cluster-{index}",
                [f"shard-{i}" for i in range(3)],
            )
            supervisor = ClusterSupervisor(router, scrub_every=0, **kwargs)
            state = _kill_and_supervise(router, supervisor, rounds=8)
            assert state is ShardState.DEAD
            assert supervisor.rejoins == []
            assert supervisor.report.auto_handoffs == 1
            assert not router.shards["shard-1"].alive
            router.close()


class TestScrubGate:
    def test_gate_refuses_readmission_on_corruption(
        self, tmp_path, monkeypatch
    ):
        router, supervisor = _cluster(tmp_path)
        for index in range(6):
            router.submit(_request(index))

        calls = {"n": 0}
        real = ClusterSupervisor._scrub_once

        def dirty_gate(self, name, journal_dir):
            calls["n"] += 1
            # First scrub (pre-respawn) is honest; the gate scrub after
            # compaction "finds" surviving corruption.
            if calls["n"] % 2 == 0:
                return 3
            return real(self, name, journal_dir)

        monkeypatch.setattr(ClusterSupervisor, "_scrub_once", dirty_gate)
        state = _kill_and_supervise(router, supervisor, rounds=8)
        assert state is ShardState.DEAD  # readmission refused
        attempts = [r for r in supervisor.rejoins if r.shard == "shard-1"]
        assert attempts and not attempts[0].ok
        assert "scrub gate refused" in attempts[0].error
        assert attempts[0].gate_corrupt_lines == 3
        router.close()

    def test_gate_can_be_waived_explicitly(self, tmp_path, monkeypatch):
        router, supervisor = _cluster(
            tmp_path, require_clean_scrub=False
        )
        monkeypatch.setattr(
            ClusterSupervisor, "_scrub_once", lambda self, n, d: 1
        )
        state = _kill_and_supervise(router, supervisor)
        assert state is ShardState.HEALTHY
        attempts = [r for r in supervisor.rejoins if r.shard == "shard-1"]
        assert attempts and attempts[0].ok
        assert attempts[0].gate_corrupt_lines == 1
        router.close()
