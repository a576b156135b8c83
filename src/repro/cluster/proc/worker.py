"""A shard's op table, served over framed pipes or called in-process.

``python -m repro.cluster.proc.worker --name shard-0 --dir <journal>``
runs one shard as a real OS process.  Crash isolation is the entire
point: a SIGKILL, a wedge, or a torn write here leaves the router
untouched, and everything the shard *was* survives in its journal
directory — the same directory this process replays on the way up,
because construction-is-recovery carries across the process boundary
unchanged.

Protocol: length-prefixed CRC-framed JSON messages
(:mod:`repro.cluster.proc.wire`) over stdin/stdout.  Every request
``{"id", "op", "params"}`` gets exactly one response ``{"id", "ok",
"value"|"error"}``; the first message out is the unsolicited ``id 0``
hello (pid + recovery counts) the spawner blocks on, so a worker that
cannot take its journal lock fails loudly and typed instead of hanging
the router.  stdout belongs to the protocol alone: ``sys.stdout`` is
rebound to stderr before the engine imports can print anything.

The same op table (:func:`_dispatch`) and hello serve an in-process
shard: :class:`LoopbackClient` has the RPC client's surface and calls
the table directly, with no framing, so a
:class:`~repro.cluster.proc.shard.ProcShardWorker` runs one protocol
over either transport.

**The round protocol.**  This process changes state only in reply to
its one handle, so every reply that changes the queue says how deep it
now is and the handle never has to ask:

- the hello lists the ids recovery requeued and the ids it found
  finished;
- ``submit`` / ``release`` / ``expire`` reply with their answer and
  ``depth``;
- ``step`` takes ``ack`` (ids of results the handle has handed on),
  lets those decay (:meth:`DurableEngine.ack`), runs the oldest job and
  replies with **every** unacknowledged result, oldest first, and
  ``depth``.  A result is therefore sent again on every ``step`` until
  it is acknowledged: a reply lost to a timeout, or one that arrives
  after its retry and is dropped as stale, costs nothing.

Chaos hooks (armed via environment by the cluster scenario runner).
Each takes ``n`` (the ``n``-th response frame of any kind, the hello
included) or ``op:n`` (the ``n``-th response to ``op``; for ``step``
only replies that carry a result count):

- ``REPRO_PROC_TORN_AFTER`` — that response frame is written *half*
  and the process exits: a torn frame mid-message, as seen by the
  router.
- ``REPRO_PROC_EXIT_AFTER`` — the process exits just before writing
  that response: death between accepting work and acking it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.cluster.proc import wire
from repro.cluster.proc.rpc import RemoteOpError
from repro.errors import ReproError, RpcError, RpcSequenceError
from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import FsyncPolicy

__all__ = ["LoopbackClient", "hello", "main", "serve"]


def _error(call_id: int, exc: BaseException) -> dict:
    """The response reporting ``exc`` (the caller re-raises it typed)."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    return {"id": call_id, "ok": False, "error": error}


def _trigger(variable: str) -> tuple[str, int]:
    """A chaos hook's ``"n"`` or ``"op:n"`` as ``(op, n)``; unset is
    ``("", 0)``, which no response ever matches."""
    op, _, count = os.environ.get(variable, "0").rpartition(":")
    return op, int(count)


class _ChaosWriter:
    """Response writer with the torn-frame / exit-before-ack hooks."""

    def __init__(self, out) -> None:
        self.out = out
        #: Responses written so far: all of them under ``""``, and per
        #: op the ones an ``op:n`` trigger counts.
        self.written: dict[str, int] = {}
        self.torn_at = _trigger("REPRO_PROC_TORN_AFTER")
        self.exit_at = _trigger("REPRO_PROC_EXIT_AFTER")

    def write(self, message: dict, op: str = "") -> None:
        """Write one response; ``op`` names the request it answers when
        the ``op:n`` triggers should count it."""
        frame = wire.encode_message(message)
        reached = set()
        for kind in {"", op}:
            self.written[kind] = self.written.get(kind, 0) + 1
            reached.add((kind, self.written[kind]))
        if self.exit_at in reached:
            # Dead before the ack ever hits the pipe — the router sees
            # EOF exactly where a SIGKILL mid-message would leave it.
            os._exit(17)
        if self.torn_at in reached:
            self.out.write(frame[: max(1, len(frame) // 2)])
            self.out.flush()
            os._exit(18)
        self.out.write(frame)
        self.out.flush()


def hello(engine: DurableEngine, name: str) -> dict:
    """What a shard says when it comes up: who it is and what recovery
    found (the handle seeds its mirror from the two id lists)."""
    return {
        "op": "hello",
        "name": name,
        "pid": os.getpid(),
        "recovered_finished": engine.report.recovered_finished,
        "recovered_requeued": engine.report.recovered_requeued,
        "corrupt_lines_dropped": engine.report.corrupt_lines_dropped,
        "queue_depth": len(engine.queue),
        "queued_ids": [r.job_id for r in engine.queue],
        "finished_ids": list(engine.results),
    }


def _resident(engine: DurableEngine) -> set[str]:
    """Configurations warm on the shard's fabrics."""
    workers = engine.pool.workers
    return {w.resident_key for w in workers if w.resident_key is not None}


def _dispatch(engine: DurableEngine, name: str, op: str, params: dict):
    """Run one op against the engine (the whole shard surface)."""
    if op == "ping":
        return {"pid": os.getpid()}
    if op == "submit":
        request = wire.decode_job(params["job"])
        pre = engine.submit(request)
        return {
            "result": wire.encode_result(pre) if pre else None,
            "depth": len(engine.queue),
        }
    if op == "step":
        engine.ack(params.get("ack") or ())
        if engine.queue:
            engine.step()
        return {
            "results": [wire.encode_result(r) for r in engine.unacked()],
            "depth": len(engine.queue),
        }
    if op == "heartbeat":
        from repro.cluster.lifecycle.health import ShardHeartbeat

        pool = engine.pool
        return wire.encode_heartbeat(
            ShardHeartbeat(
                shard=name,
                round_index=int(params.get("round_index", 0)),
                alive=True,
                draining=bool(params.get("draining", False)),
                queue_depth=len(engine.queue),
                breaker_open_fabrics=len(pool.breaker_open_workers()),
                quarantined_fabrics=len(pool.quarantined_workers()),
                total_fabrics=len(pool.workers),
                journal_records=engine.journal.appended,
            )
        )
    if op == "steal_candidates":
        resident = _resident(engine)
        return {
            "jobs": [
                wire.encode_job(r)
                for r in engine.queue
                if r.spec.config_key not in resident and r.resume_slice == 0
            ]
        }
    if op == "release":
        request = engine.mark_moved(
            str(params["job_id"]), dict(params.get("data") or {})
        )
        return {"job": wire.encode_job(request), "depth": len(engine.queue)}
    if op == "expire":
        result = engine.expire(
            str(params["job_id"]),
            where=str(params.get("where", "in queue")),
        )
        return {
            "result": wire.encode_result(result),
            "depth": len(engine.queue),
        }
    if op == "finished":
        found = (engine.results.get(str(j)) for j in params["job_ids"])
        return {"results": [wire.encode_result(r) for r in found if r]}
    if op == "finished_ids":
        return {"job_ids": sorted(engine.results)}
    if op == "resident_keys":
        return {"keys": sorted(_resident(engine))}
    if op == "backlog":
        return {"jobs": [wire.encode_job(r) for r in engine.queue]}
    if op == "compact":
        removed = engine.journal.compact()
        return {"removed": removed}
    if op == "shutdown":
        engine.close()
        return {}
    raise ReproError(f"unknown shard op {op!r}")


class LoopbackClient:
    """:class:`~repro.cluster.proc.rpc.RpcClient`'s surface over an
    engine in this process.

    :meth:`begin` only records the request; :meth:`finish` runs it
    through :func:`_dispatch`.  An in-process shard therefore executes
    when a round *collects* its step — one shard after another, in name
    order — so a crash point fires exactly where it would in one engine.
    An ``Exception`` from an op comes back as :class:`RemoteOpError`, as
    over the pipe; a ``BaseException`` (a simulated crash) propagates.
    """

    def __init__(self, engine: DurableEngine, shard: str) -> None:
        #: The shard's engine (``None`` once killed or shut down).
        self.engine: DurableEngine | None = engine
        self.shard = shard
        self._outstanding: tuple[str, dict] | None = None
        self.calls = 0
        #: Always 0: nothing in between can time out or arrive late.
        self.retries = 0
        self.stale_responses = 0

    @property
    def outstanding(self) -> bool:
        return self._outstanding is not None

    def begin(self, op: str, params: dict | None = None, *, timeout_s=None):
        if self._outstanding is not None:
            raise RpcSequenceError(
                f"shard {self.shard} still owes a reply to "
                f"{self._outstanding[0]!r}; finish it before {op!r}"
            )
        self.calls += 1
        self._outstanding = (op, params or {})

    def finish(self):
        request, self._outstanding = self._outstanding, None
        if request is None:
            raise RpcSequenceError(
                f"no request outstanding on shard {self.shard}"
            )
        op, params = request
        engine = self.engine
        if engine is None:
            raise RpcError(
                f"shard {self.shard} is gone", shard=self.shard, op=op
            )
        if op == "shutdown":
            self.engine = None
        try:
            return _dispatch(engine, self.shard, op, params)
        except Exception as exc:
            raise RemoteOpError(
                f"shard {self.shard} op {op!r} failed: "
                f"{type(exc).__name__}: {exc}",
                remote_type=type(exc).__name__,
            ) from exc

    def call(self, op: str, params: dict | None = None, *, timeout_s=None):
        self.begin(op, params)
        return self.finish()

    def kill(self) -> None:
        """Drop the engine unclosed: the journal stays exactly as the
        last append left it, as after a SIGKILL."""
        self.engine = None


def serve(engine: DurableEngine, name: str, stdin, writer: _ChaosWriter) -> None:
    """The request/response loop (runs until EOF or a shutdown op)."""
    decoder = wire.FrameDecoder()
    running = True
    while running:
        # read1: return as soon as *any* bytes arrive.  A plain read(n)
        # on a BufferedReader would block until n bytes or EOF and
        # deadlock the request/response loop.
        chunk = stdin.read1(65536)
        if not chunk:
            break  # router hung up; die quietly, the journal has it all
        for message in decoder.feed(chunk):
            call_id = message["id"]
            op = str(message.get("op", ""))
            params = message.get("params") or {}
            try:
                value = _dispatch(engine, name, op, params)
            except Exception as exc:
                writer.write(_error(call_id, exc))
            else:
                # A step that handed nothing back is not "a step reply
                # carrying a result": the op:n chaos triggers skip it.
                counted = op != "step" or value["results"]
                writer.write(
                    {"id": call_id, "ok": True, "value": value},
                    op if counted else "",
                )
            if op == "shutdown":
                running = False
                break


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-shard-worker")
    parser.add_argument("--name", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--fsync", default="never")
    parser.add_argument("--pool-size", type=int, default=1)
    parser.add_argument("--checkpoint-every", type=int, default=0)
    parser.add_argument("--max-batch", type=int, default=1)
    parser.add_argument("--segment-records", type=int, default=1024)
    parser.add_argument(
        "--lock-timeout",
        type=float,
        default=5.0,
        help="bounded wait for the journal-dir lock (a dead predecessor's "
        "flock is already gone; a hung one raises LockTimeout with its pid)",
    )
    args = parser.parse_args(argv)

    # The protocol owns fd 1.  Rebind sys.stdout so any stray print from
    # library code lands on stderr instead of corrupting a frame.
    out = sys.stdout.buffer
    stdin = sys.stdin.buffer
    sys.stdout = sys.stderr

    try:
        engine = DurableEngine(
            Path(args.dir),
            pool_size=args.pool_size,
            fsync=FsyncPolicy(args.fsync),
            checkpoint_every_slices=args.checkpoint_every,
            max_batch=args.max_batch,
            segment_records=args.segment_records,
            lock=True,
            lock_timeout_s=args.lock_timeout,
        )
    except BaseException as exc:  # noqa: BLE001 - reported over the wire
        out.write(wire.encode_message(_error(0, exc)))
        out.flush()
        return 1

    writer = _ChaosWriter(out)
    writer.write({"id": 0, "ok": True, "value": hello(engine, args.name)})
    try:
        serve(engine, args.name, stdin, writer)
    finally:
        try:
            engine.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
