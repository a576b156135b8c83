"""Shard worker subprocess: a :class:`DurableEngine` behind framed pipes.

``python -m repro.cluster.proc.worker --name shard-0 --dir <journal>``
turns the in-process shard of PR 7 into a real OS process.  Crash
isolation is the entire point: a SIGKILL, a wedge, or a torn write here
leaves the router untouched, and everything the shard *was* survives in
its journal directory — the same directory this process replays on the
way up, because construction-is-recovery carries across the process
boundary unchanged.

Protocol: length-prefixed CRC-framed JSON messages
(:mod:`repro.cluster.proc.wire`) over stdin/stdout.  Every request
``{"id", "op", "params"}`` gets exactly one response ``{"id", "ok",
"value"|"error"}``; the first message out is the unsolicited ``id 0``
hello (pid + recovery counts) the spawner blocks on, so a worker that
cannot take its journal lock fails loudly and typed instead of hanging
the router.

The ops mirror :class:`repro.cluster.shard.ShardWorker`'s surface —
submit/step/heartbeat/steal_candidates/release/expire plus the read
probes — so the router drives either through the same code path.
stdout belongs to the protocol alone: ``sys.stdout`` is rebound to
stderr before the engine imports can print anything.

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

Chaos hooks (armed via environment, used by the proc fault harness).
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
from repro.errors import ReproError
from repro.serve.durability.engine import DurableEngine
from repro.serve.durability.journal import FsyncPolicy

__all__ = ["main", "serve"]


def _fail(out, exc: BaseException) -> None:
    """Report a startup failure as the hello slot's error response."""
    out.write(
        wire.encode_message(
            {
                "id": 0,
                "ok": False,
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc),
                },
            }
        )
    )
    out.flush()


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


def _dispatch(engine: DurableEngine, name: str, op: str, params: dict):
    """Run one op against the engine; mirrors ShardWorker's surface."""
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
        resident = {
            w.resident_key
            for w in engine.pool.workers
            if w.resident_key is not None
        }
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
        result = engine.results.get(str(params["job_id"]))
        return {"result": wire.encode_result(result) if result else None}
    if op == "finished_ids":
        return {"job_ids": sorted(engine.results)}
    if op == "resident_keys":
        return {
            "keys": sorted(
                w.resident_key
                for w in engine.pool.workers
                if w.resident_key is not None
            )
        }
    if op == "backlog":
        return {"jobs": [wire.encode_job(r) for r in engine.queue]}
    if op == "compact":
        removed = engine.journal.compact()
        return {"removed": removed}
    if op == "report":
        return {
            "completed": engine.report.completed,
            "recovered_finished": engine.report.recovered_finished,
            "recovered_requeued": engine.report.recovered_requeued,
            "corrupt_lines_dropped": engine.report.corrupt_lines_dropped,
            "journal_records": engine.journal.appended,
        }
    raise ReproError(f"unknown shard op {op!r}")


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
            if op == "shutdown":
                writer.write({"id": call_id, "ok": True, "value": {}})
                running = False
                break
            try:
                value = _dispatch(engine, name, op, params)
            except Exception as exc:
                writer.write(
                    {
                        "id": call_id,
                        "ok": False,
                        "error": {
                            "type": type(exc).__name__,
                            "message": str(exc),
                        },
                    }
                )
            else:
                # A step that handed nothing back is not "a step reply
                # carrying a result": the op:n chaos triggers skip it.
                counted = op != "step" or value["results"]
                writer.write(
                    {"id": call_id, "ok": True, "value": value},
                    op if counted else "",
                )


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
        _fail(out, exc)
        return 1

    writer = _ChaosWriter(out)
    writer.write(
        {
            "id": 0,
            "ok": True,
            "value": {
                "op": "hello",
                "name": args.name,
                "pid": os.getpid(),
                "recovered_finished": engine.report.recovered_finished,
                "recovered_requeued": engine.report.recovered_requeued,
                "corrupt_lines_dropped": engine.report.corrupt_lines_dropped,
                "queue_depth": len(engine.queue),
                "queued_ids": [r.job_id for r in engine.queue],
                "finished_ids": list(engine.results),
            },
        }
    )
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
