"""The thin round protocol: what crosses the pipe, and what never has to.

A shard's engine changes state only in reply to its one handle, so the
handle mirrors the engine's queue from the replies it already gets and
a warm job costs two round trips (its ``submit``, its share of a
round's two ``step``\\ s) instead of nine.  These tests pin that down
with exact counts, over both transports of the one shard class (the
``*Loopback`` classes rerun a class over the in-process loopback):

* the RPC budget of a run, and that ``submit`` / ``rebalance`` /
  ``pending`` probe nothing; a drain's closing fold is two reads;
* the mirror equal to the engine's own ``backlog`` / ``finished_ids``
  after every kind of state change;
* a ``step`` reply that arrives after its retry loses and duplicates
  nothing;
* an engine exception is a :class:`RemoteOpError` either way, and a
  simulated crash inside a loopback op reaches the caller;
* batch lanes reach ``router.results``; acknowledged outputs leave the
  shard;
* a shard worker imports neither ``asyncio`` nor ``multiprocessing``.

No test here looks at a clock or an RSS figure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.chaos.crashpoints import FaultSpec, SimulatedCrash, armed
from repro.cluster.lifecycle.drain import drain_shard
from repro.cluster.proc import worker as worker_module
from repro.cluster.proc.rpc import RemoteOpError, RetryPolicy, RpcClient
from repro.cluster.proc.shard import ProcShardWorker
from repro.cluster.proc.wire import FrameDecoder, encode_message
from repro.cluster.ring import HashRing
from repro.cluster.router import ShardRouter, spec_routing_key
from repro.serve.durability.engine import DurableEngine
from repro.serve.jobs import JobRequest, JobStatus, fft_spec, jpeg_spec

FFT = fft_spec(16, 4, 2)
JPEG = jpeg_spec(75, False)
NAMES = ["shard-0", "shard-1"]
#: The two transports of the one shard class, by name.
TRANSPORTS = {"loopback": ProcShardWorker.loopback, "subprocess": ProcShardWorker}


def _request(index: int, spec=FFT, **kwargs) -> JobRequest:
    rng = np.random.default_rng(2000 + index)
    if spec.kind.value == "fft":
        payload = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
    else:
        payload = rng.integers(0, 256, size=(8, 8), dtype=np.int64)
    return JobRequest(
        spec=spec, payload=payload, job_id=f"rp-{index:03d}", **kwargs
    )


def _two_plans_on_two_shards() -> tuple:
    """One plan homed on each shard of ``NAMES`` (a balanced cluster)."""
    ring = HashRing(NAMES)
    candidates = [FFT, fft_spec(16, 4, 1), JPEG, jpeg_spec(50, False)]
    by_home = {ring.route(spec_routing_key(spec)): spec for spec in candidates}
    assert set(by_home) == set(NAMES), by_home
    return tuple(by_home[name] for name in NAMES)


def _calls(router: ShardRouter) -> int:
    return sum(shard.rpc.calls for shard in router.shards.values())


@pytest.fixture
def proc_router(request, tmp_path):
    factory = TRANSPORTS[request.cls.transport]
    router = ShardRouter(tmp_path, NAMES, worker_factory=factory)
    yield router
    router.close()


# ----------------------------------------------------------------------
# (a) the RPC budget
# ----------------------------------------------------------------------


class TestRpcBudget:
    transport = "subprocess"

    def test_n_warm_jobs_cost_n_plus_two_per_round(self, proc_router):
        router = proc_router
        plans = _two_plans_on_two_shards()
        for index, spec in enumerate(plans):  # one cold job per plan
            router.submit(_request(900 + index, spec))
        while router.pending:
            router.step_round()
        before, jobs, rounds = _calls(router), 40, 0
        for index in range(0, jobs, 2):  # two clients, closed loop
            for lane, spec in enumerate(plans):
                router.submit(_request(index + lane, spec))
            while router.pending:
                router.rebalance()
                router.step_round()
                rounds += 1
        assert rounds == jobs // 2
        assert len(router.results) == jobs + 2
        assert all(r.warm for r in list(router.results.values())[2:])
        assert _calls(router) - before == jobs + 2 * rounds
        assert sum(s.rpc.retries for s in router.shards.values()) == 0

    def test_submit_rebalance_and_pending_probe_nothing(self, proc_router):
        router = proc_router
        plans = _two_plans_on_two_shards()
        before = _calls(router)
        for index in range(4):
            assert router.submit(_request(index, plans[index % 2])) is None
        assert _calls(router) - before == 4  # the submits themselves
        before = _calls(router)
        assert router.pending == 4
        assert router.rebalance() == 0  # balanced: 2 and 2
        assert router.submit(_request(0, plans[0])) is None  # already queued
        assert [s.queue_depth for s in router.shards.values()] == [2, 2]
        assert all(s.has_job("rp-000") is (s.name == NAMES[0])
                   for s in router.shards.values())
        assert _calls(router) == before

    def test_drain_reads_only_what_it_moves_and_did_not_ship(self, proc_router):
        router = proc_router
        plans = _two_plans_on_two_shards()
        for index in range(0, 200, 2):  # 200 delivered jobs
            for lane, spec in enumerate(plans):
                router.submit(_request(index + lane, spec))
            while router.pending:
                router.step_round()
        assert len(router.results) == 200
        drained, successor = (router.shards[name] for name in NAMES[::-1])
        for index in range(200, 205):  # homed on the drained shard
            router.submit(_request(index, plans[1]))
        unshipped = [drained.step_one(), drained.step_one()]  # not via the router
        before = (drained.rpc.calls, successor.rpc.calls)
        report = drain_shard(router, drained.name)
        assert report.moved == 3
        # backlog + a release per move + finished_ids + one finished for
        # every unshipped result + shutdown; the successor pays the submits
        assert drained.rpc.calls - before[0] == 4 + report.moved
        assert successor.rpc.calls - before[1] == report.moved
        assert all(r.job_id in router.results for r in unshipped)

    def test_a_drain_folds_recovered_results_in_two_reads(self, proc_router):
        router = proc_router
        spec = _two_plans_on_two_shards()[1]
        name = NAMES[1]
        shard = router.shards[name]
        for index in range(4):  # run here, never shipped to the router
            shard.submit(_request(index, spec))
            assert shard.step_one().job_id == f"rp-{index:03d}"
        router.kill_shard(name)
        respawned = router.worker_factory(name, shard.journal_dir)
        assert router.rejoin_shard(name, respawned) == 0
        assert not router.results
        before = respawned.rpc.calls
        report = drain_shard(router, name)
        assert report.backlog == report.moved == 0
        # backlog + finished_ids + one finished for all four + shutdown
        assert respawned.rpc.calls - before == 4
        assert sorted(router.results) == [f"rp-{i:03d}" for i in range(4)]
        assert all(r.recovered for r in router.results.values())

    def test_each_steal_adds_three(self, proc_router):
        router = proc_router
        for index in range(6):  # all on one shard: 6 vs 0, margin 2
            router.submit(_request(index))
        before = _calls(router)
        steals = router.rebalance()
        assert steals == 2  # 6/0 -> 5/1 -> 4/2, then within the margin
        # steal_candidate + thief submit + victim release, per steal
        assert _calls(router) - before == 3 * steals


class TestRpcBudgetLoopback(TestRpcBudget):
    transport = "loopback"


def test_a_steal_ships_one_job_and_its_release_none(tmp_path, monkeypatch):
    """Per steal the victim encodes exactly one job (its candidate); the
    thief's submit carries it back in, and ``release`` answers with the
    depth alone."""
    replies = []
    dispatch = worker_module._dispatch

    def recording(engine, name, op, params):
        value = dispatch(engine, name, op, params)
        replies.append((name, op, json.dumps(value).count('"payload"')))
        return value

    monkeypatch.setattr(worker_module, "_dispatch", recording)
    router = ShardRouter(tmp_path, NAMES)
    try:
        for index in range(6):  # all on one shard: 6 vs 0, margin 2
            router.submit(_request(index))
        victim = router.shard_for(FFT)
        replies.clear()
        assert router.rebalance() == 2
        from_victim = [(op, jobs) for name, op, jobs in replies if name == victim]
        assert from_victim == [("steal_candidate", 1), ("release", 0)] * 2
        assert all(jobs == 0 for name, _, jobs in replies if name != victim)
    finally:
        router.close()


# ----------------------------------------------------------------------
# (b) the mirror is exact
# ----------------------------------------------------------------------


def _assert_mirror(shard: ProcShardWorker, universe) -> None:
    """The handle's local answers equal the engine's own."""
    before = shard.rpc.calls
    depth = shard.queue_depth
    has = {job_id: shard.has_job(job_id) for job_id in universe}
    assert shard.rpc.calls == before  # answered without a round trip
    queued = [request.job_id for request in shard.backlog()]
    finished = shard.finished_ids()
    assert depth == len(queued)
    assert has == {
        job_id: job_id in queued or job_id in finished for job_id in universe
    }


class TestMirror:
    transport = "subprocess"

    def test_after_every_kind_of_state_change(self, tmp_path):
        universe = [f"rp-{index:03d}" for index in range(12)] + ["never"]
        router = ShardRouter(
            tmp_path, NAMES, worker_factory=TRANSPORTS[self.transport]
        )
        try:
            home = router.shards[router.shard_for(FFT)]
            other = next(s for s in router.shards.values() if s is not home)

            def check():
                for shard in (home, other):
                    _assert_mirror(shard, universe)

            for index in range(9):  # submit
                router.submit(_request(index))
            check()
            assert home.queue_depth == 9 and other.queue_depth == 0
            assert router.rebalance() > 0  # steal: submit there, release here
            check()
            router.step_round()  # step, on both
            router.step_round()
            check()
            home.expire(home.backlog()[0].job_id)  # expire
            check()
            report = drain_shard(router, other.name)  # drain: moves + close
            assert report.moved == report.backlog > 0
            _assert_mirror(home, universe)
            while router.pending:  # drain the queue to empty
                router.step_round()
            _assert_mirror(home, universe)
            assert home.queue_depth == 0
        finally:
            router.close()

    def test_a_respawn_over_a_non_empty_journal(self, tmp_path):
        universe = [f"rp-{index:03d}" for index in range(4)]
        first = TRANSPORTS[self.transport]("shard-r", tmp_path)
        for index in range(4):
            first.submit(_request(index))
        assert first.step_one().job_id == "rp-000"
        first.kill()
        second = TRANSPORTS[self.transport]("shard-r", tmp_path)
        try:
            assert second.queue_depth == 3
            assert second.has_job("rp-000") and second.has_job("rp-003")
            _assert_mirror(second, universe)
            # A finished() miss is local; a hit is one read of the engine.
            before = second.rpc.calls
            assert second.finished("rp-001") is None
            assert second.rpc.calls == before
            recovered = second.finished("rp-000")
            assert recovered.recovered and recovered.status is JobStatus.DONE
            assert second.rpc.calls == before + 1
        finally:
            second.close()

    def test_a_lost_reply_is_repaired_from_the_reported_depth(self, tmp_path):
        """The engine acted, the reply never made it: the next reply's
        depth disagrees with the mirror and the backlog is read once."""
        shard = TRANSPORTS[self.transport]("shard-d", tmp_path)
        try:
            for index in range(3):
                shard.submit(_request(index))
            shard.rpc.call("release", {"job_id": "rp-001", "data": {}})
            assert shard.queue_depth == 3  # the handle was never told
            before = shard.rpc.calls
            assert shard.step_one().job_id == "rp-000"
            assert shard.rpc.calls == before + 2  # the step, the backlog
            assert shard.queue_depth == 1 and not shard.has_job("rp-001")
            _assert_mirror(shard, [f"rp-{index:03d}" for index in range(3)])
        finally:
            shard.close()


class TestMirrorLoopback(TestMirror):
    transport = "loopback"


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_an_engine_exception_is_a_remote_op_error(tmp_path, transport):
    """The shard ran the op and said no: an answer, not a death."""
    shard = TRANSPORTS[transport]("shard-e", tmp_path)
    try:
        with pytest.raises(RemoteOpError) as caught:
            shard.release("never-queued", {})
        assert caught.value.remote_type == "ServeError"
        assert shard.alive
        assert shard.submit(_request(0)) is None  # and it still serves
    finally:
        shard.close()


def test_a_simulated_crash_in_a_loopback_step_reaches_the_caller(tmp_path):
    shard = ProcShardWorker.loopback("shard-c", tmp_path)
    shard.submit(_request(0))
    with armed(FaultSpec("journal.append.after", hit=1)) as controller:
        with pytest.raises(SimulatedCrash):
            shard.step_all()  # dies journaling the step's DISPATCHED
    assert [spec.point for spec in controller.fired] == ["journal.append.after"]
    assert not shard.rpc.outstanding


# ----------------------------------------------------------------------
# (c) a step reply that arrives after its retry
# ----------------------------------------------------------------------


class _EngineBehindPipes:
    """A shard process's dispatch loop on raw pipes, with the test
    choosing when each reply is written."""

    def __init__(self, directory: Path) -> None:
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        self.client_in = os.fdopen(req_w, "wb", buffering=0)
        self.client_out = os.fdopen(resp_r, "rb", buffering=0)
        self.server_in = os.fdopen(req_r, "rb", buffering=0)
        self.server_out = os.fdopen(resp_w, "wb", buffering=0)
        self.engine = DurableEngine(directory)
        self.decoder = FrameDecoder()
        self.pending: list[dict] = []

    def serve_one(self) -> dict:
        """Run the next request against the engine; return its reply
        without writing it."""
        while not self.pending:
            self.pending += self.decoder.feed(self.server_in.read(65536))
        request = self.pending.pop(0)
        value = worker_module._dispatch(
            self.engine, "shard-t", request["op"], request["params"]
        )
        return {"id": request["id"], "ok": True, "value": value}

    def write(self, *replies: dict) -> None:
        self.server_out.write(b"".join(map(encode_message, replies)))

    def close(self) -> None:
        self.engine.close()
        for stream in (
            self.client_in, self.client_out, self.server_in, self.server_out
        ):
            stream.close()


def test_a_step_reply_arriving_after_its_retry_loses_nothing(tmp_path):
    shard = ProcShardWorker("shard-t", tmp_path / "real")
    real_rpc = shard.rpc
    fake = _EngineBehindPipes(tmp_path / "fake")
    try:
        shard.rpc = RpcClient(
            fake.client_in,
            fake.client_out,
            shard="shard-t",
            retry=RetryPolicy(attempts=2, base_delay_s=0.0, max_delay_s=0.0),
            sleep=lambda _s: None,
        )
        shard.call_timeout_s = 0.3

        def process():
            for _ in range(2):  # the two submits, answered at once
                fake.write(fake.serve_one())
            late = fake.serve_one()  # step, attempt 1: runs rp-000 ...
            retried = fake.serve_one()  # ... attempt 2 (after the timeout): rp-001
            fake.write(late, retried)  # the late reply lands first
            fake.write(fake.serve_one())  # the next step: the ack, idle

        thread = threading.Thread(target=process, daemon=True)
        thread.start()
        shard.submit(_request(0))
        shard.submit(_request(1))
        results = shard.step_all()
        # Attempt 2's reply re-sends rp-000 (still unacknowledged) beside
        # rp-001; the late reply is recognised as stale and dropped.
        assert [r.job_id for r in results] == ["rp-000", "rp-001"]
        assert shard.rpc.stale_responses == 1 and shard.rpc.retries == 1
        assert shard.queue_depth == 0
        for index, result in enumerate(results):
            np.testing.assert_allclose(
                result.output, np.fft.fft(_request(index).payload), atol=1e-6
            )
        # Both are acknowledged by the next step, which hands on nothing.
        assert shard.step_all() == []
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert fake.engine.unacked() == []
        assert fake.engine.report.completed == 2  # nothing ran twice
    finally:
        shard.rpc = real_rpc
        shard.close()
        fake.close()


# ----------------------------------------------------------------------
# (e) lanes are delivered, (f) acknowledged outputs leave the shard
# ----------------------------------------------------------------------


def _drain(router: ShardRouter, jobs) -> dict[str, bytes]:
    for job in jobs:
        router.submit(job)
    while router.pending:
        router.rebalance()
        router.step_round()
    return {
        job_id: np.asarray(result.output).tobytes()
        for job_id, result in router.results.items()
    }


@pytest.mark.parametrize("transport", ["in-process", "subprocess"])
def test_batch_lanes_reach_the_router(tmp_path, transport):
    def router(directory, max_batch):
        if transport == "in-process":
            return ShardRouter(directory, NAMES, max_batch=max_batch)
        return ShardRouter(
            directory,
            NAMES,
            worker_factory=lambda name, journal_dir: ProcShardWorker(
                name, journal_dir, max_batch=max_batch
            ),
        )

    jobs = lambda: [_request(index) for index in range(8)]  # noqa: E731
    scalar = router(tmp_path / "scalar", 1)
    batched = router(tmp_path / "batched", 4)
    try:
        expected = _drain(scalar, jobs())
        delivered = _drain(batched, jobs())
        assert batched.pending == 0
        assert sorted(delivered) == [f"rp-{index:03d}" for index in range(8)]
        assert delivered == expected  # bit-identical to the max_batch=1 run
        assert all(
            r.status is JobStatus.DONE for r in batched.results.values()
        )
    finally:
        scalar.close()
        batched.close()


def test_acknowledged_outputs_leave_the_shard(tmp_path):
    router = ShardRouter(tmp_path, NAMES)
    try:
        plans = _two_plans_on_two_shards()
        for index in range(200):
            router.submit(_request(index, plans[index % 2]))
            if index % 2:
                router.step_round()
        assert router.pending == 0 and len(router.results) == 200
        held = lambda: [  # noqa: E731
            result
            for shard in router.shards.values()
            for result in shard.rpc.engine.results.values()
        ]
        # The last round's two results are handed on, not yet acknowledged:
        # the next step carries their ack.
        assert sum(result.output is not None for result in held()) == 2
        assert router.step_round() == 0
        assert len(held()) == 200
        assert sum(result.output is not None for result in held()) == 0
        assert all(
            shard.rpc.engine.unacked() == [] for shard in router.shards.values()
        )
        # The router's copies are the whole ones.
        assert all(r.output is not None for r in router.results.values())
    finally:
        router.close()


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_a_delivered_result_keeps_the_request_s_id(tmp_path, transport):
    """One id string per job, the submitted request's, stolen jobs too;
    and one ``0.0`` for every result's zero fields."""
    router = ShardRouter(tmp_path, NAMES, worker_factory=TRANSPORTS[transport])
    try:
        requests = [_request(index) for index in range(4)]
        for request in requests:
            router.submit(request)
        router.run()  # 4 vs 0 with margin 2: one steal
        assert router.steals == 1
        results = [router.results[request.job_id] for request in requests]
        assert all(r.job_id is q.job_id for r, q in zip(results, requests))
        assert len({id(r.retry_after_s) for r in results}) == 1
    finally:
        router.close()


# ----------------------------------------------------------------------
# what a shard worker imports
# ----------------------------------------------------------------------


def test_a_shard_worker_imports_neither_asyncio_nor_multiprocessing():
    probe = (
        "import sys, repro.cluster.proc.worker, repro.serve\n"
        "print(sorted(m for m in ('asyncio', 'multiprocessing', 'repro.dse', "
        "'repro.mapping', 'repro.pn', 'repro.cluster.router', "
        "'repro.cluster.loadgen') if m in sys.modules))\n"
        "from repro.serve import FabricJobService\n"
        "print(FabricJobService.__module__, 'asyncio' in sys.modules)\n"
        "from repro import sweep\n"
        "print(sweep.__module__)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    imported, lazily, top_level = done.stdout.splitlines()
    assert imported == "[]"
    # The names still resolve, and pay for their layer only when asked for.
    assert lazily == "repro.serve.service True"
    assert top_level == "repro.dse.sweep"
    assert "FabricJobService" in repro.serve.__all__
