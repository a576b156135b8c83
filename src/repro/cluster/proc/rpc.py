"""Typed RPC between the router and one shard subprocess.

The channel is a pair of pipes (the child's stdin/stdout) carrying the
frames of :mod:`repro.cluster.proc.wire`.  This layer adds the calling
conventions a *failure-prone* interface needs and a function call never
had:

- **per-call timeouts** — every read ``select``\\ s on the pipe fd, so a
  SIGSTOP'd or wedged child surfaces as :class:`~repro.errors.
  RpcTimeout` instead of blocking the router forever;
- **correlation ids** — each request carries a monotonically increasing
  ``id`` echoed by the response.  A reply to an *earlier*, timed-out
  call (a hung child that woke up) is recognised as stale and dropped,
  never misdelivered as the answer to the current call;
- **bounded retries with exponential backoff + jitter** — transport
  failures (timeout, EOF, EPIPE) are retried up to a budget with
  deterministically seeded jittered backoff.  Retrying is safe because
  every shard operation is idempotent at the durability layer: submit
  dedups on the journaled job id, release/expire tolerate repeats, and
  reads have no side effects.  *Application* errors (the child ran the
  op and said no) are never retried — they are answers, not failures;
- **a send half and a receive half** — :meth:`RpcClient.begin` writes
  the request and returns, :meth:`RpcClient.finish` collects the reply
  under everything above; ``call`` is one after the other.  A caller
  holding several pipes can ``begin`` on all of them before the first
  ``finish``, so the children work at the same time.  Each pipe still
  carries **one** outstanding request.

Everything here raises from the typed family ``RpcError`` /
``RpcTimeout`` (transport) or re-raises the child's error by name
(application), so callers can tell "the process is gone" from "the
process said no" — the distinction the supervisor's respawn logic is
built on.
"""

from __future__ import annotations

import errno
import random
import select
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.proc.wire import FrameDecoder, encode_message
from repro.errors import (
    ClusterError,
    RpcError,
    RpcSequenceError,
    RpcTimeout,
    ServeError,
    WireError,
)

__all__ = ["RetryPolicy", "RpcClient", "RemoteOpError"]


class RemoteOpError(ClusterError):
    """An operation that *reached* the shard process and failed there.

    Carries the remote exception's class name and message.  Kept
    distinct from :class:`RpcError` because the caller's recovery
    differs completely: a remote error means the process is healthy and
    the answer is final; a transport error means the process may be
    dead and the supervisor should hear about it.
    """

    def __init__(self, message: str, *, remote_type: str = "") -> None:
        self.remote_type = remote_type
        super().__init__(message)


class RetryPolicy:
    """Bounded retries with exponential backoff and seeded jitter.

    ``attempts`` is the total number of tries (1 = no retry).  The delay
    before retry ``k`` (0-based) is ``min(cap, base * multiplier**k)``
    scaled by ``1 + jitter * U[0, 1)`` from a seeded RNG — deterministic
    per policy instance, de-synchronised across instances seeded by
    shard name.
    """

    def __init__(
        self,
        *,
        attempts: int = 3,
        base_delay_s: float = 0.05,
        multiplier: float = 2.0,
        max_delay_s: float = 1.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if attempts < 1:
            raise ServeError(f"attempts must be >= 1, got {attempts}")
        if base_delay_s < 0 or max_delay_s < base_delay_s:
            raise ServeError(
                f"need 0 <= base_delay_s <= max_delay_s, got "
                f"{base_delay_s}/{max_delay_s}"
            )
        if multiplier < 1.0:
            raise ServeError(f"multiplier must be >= 1, got {multiplier}")
        if jitter < 0:
            raise ServeError(f"jitter must be >= 0, got {jitter}")
        self.attempts = attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        base = min(
            self.max_delay_s, self.base_delay_s * self.multiplier**attempt
        )
        return base * (1.0 + self.jitter * self._rng.random())


@dataclass
class _Request:
    """The one request a pipe may have outstanding."""

    op: str
    params: dict
    timeout_s: float
    #: Id of the latest attempt (every retry sends under a fresh one).
    call_id: int = 0
    #: Why the latest attempt's send failed, if it did.
    error: RpcError | None = None


class RpcClient:
    """Framed request/response over a child's stdin/stdout pipe pair."""

    def __init__(
        self,
        stdin,
        stdout,
        *,
        shard: str = "",
        retry: RetryPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._stdin = stdin
        self._stdout = stdout
        self.shard = shard
        self.retry = retry if retry is not None else RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        self._decoder = FrameDecoder()
        #: Decoded messages not yet handed to a caller, in arrival order.
        self._arrived: deque[dict] = deque()
        self._outstanding: _Request | None = None
        self._next_id = 1
        #: Responses that arrived for ids we no longer wait on.
        self.stale_responses = 0
        self.calls = 0
        self.retries = 0

    # ------------------------------------------------------------------
    # raw send / receive
    # ------------------------------------------------------------------

    def send(self, message: dict) -> None:
        """Write one framed message; EPIPE becomes a typed error."""
        try:
            self._stdin.write(encode_message(message))
            self._stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            # ValueError: write to a closed file object — same meaning.
            raise RpcError(
                f"shard {self.shard or '?'} pipe broken on send "
                f"(process died before acking): {exc}",
                shard=self.shard,
                op=str(message.get("op", "")),
            ) from exc
        except OSError as exc:
            if exc.errno == errno.EPIPE:
                raise RpcError(
                    f"EPIPE sending to shard {self.shard or '?'}",
                    shard=self.shard,
                    op=str(message.get("op", "")),
                ) from exc
            raise RpcError(
                f"send to shard {self.shard or '?'} failed: {exc}",
                shard=self.shard,
            ) from exc

    def _recv(self, timeout_s: float, op: str) -> dict:
        """The next message in arrival order, bounded by ``timeout_s``.

        Whether a message is the live reply or a stale one is the
        caller's id comparison alone to decide, so frames that shared a
        read chunk are handed back one per call, never skipped.
        """
        deadline = self.clock() + timeout_s
        while not self._arrived:
            budget = deadline - self.clock()
            if budget <= 0:
                raise RpcTimeout(
                    f"shard {self.shard or '?'} did not answer {op!r} "
                    f"within {timeout_s:.3f}s",
                    shard=self.shard,
                    op=op,
                )
            fd = self._stdout.fileno()
            ready, _, _ = select.select([fd], [], [], min(budget, 0.25))
            if not ready:
                continue
            try:
                # The pipe must be unbuffered (Popen bufsize=0): select
                # watches the fd, so bytes parked in a Python-level
                # buffer would be invisible to it and deadlock the wait.
                chunk = self._stdout.read(65536)
            except (OSError, ValueError) as exc:
                raise RpcError(
                    f"read from shard {self.shard or '?'} failed: {exc}",
                    shard=self.shard,
                    op=op,
                ) from exc
            if not chunk:
                raise RpcError(
                    f"EOF from shard {self.shard or '?'} "
                    f"(process exited mid-conversation)",
                    shard=self.shard,
                    op=op,
                )
            try:
                self._arrived.extend(self._decoder.feed(chunk))
            except WireError as exc:
                raise RpcError(
                    f"corrupt frame from shard {self.shard or '?'}: {exc}",
                    shard=self.shard,
                    op=op,
                ) from exc
        return self._arrived.popleft()

    # ------------------------------------------------------------------
    # the call convention
    # ------------------------------------------------------------------

    def _send_attempt(self, request: _Request) -> None:
        """Send ``request`` under a fresh id; a transport failure is kept
        for :meth:`finish`, which owns the retry budget."""
        request.call_id = self._next_id
        self._next_id += 1
        request.error = None
        try:
            self.send(
                {
                    "id": request.call_id,
                    "op": request.op,
                    "params": request.params,
                }
            )
        except RpcError as exc:
            request.error = exc

    @property
    def outstanding(self) -> bool:
        """Has a request been begun whose reply is not yet collected?"""
        return self._outstanding is not None

    def begin(
        self,
        op: str,
        params: dict | None = None,
        *,
        timeout_s: float = 30.0,
    ) -> None:
        """The send half of :meth:`call`: write the request and return.

        The pipe carries one outstanding request; :meth:`finish` must
        collect its reply before the next ``begin``.
        """
        if self._outstanding is not None:
            raise RpcSequenceError(
                f"shard {self.shard or '?'} still owes a reply to "
                f"{self._outstanding.op!r}; finish it before {op!r}"
            )
        self.calls += 1
        self._outstanding = _Request(op, params or {}, timeout_s)
        self._send_attempt(self._outstanding)

    def finish(self) -> Any:
        """The receive half of :meth:`call`: correlate the reply, retry
        transport failures, and leave the pipe free whatever happens."""
        request, self._outstanding = self._outstanding, None
        if request is None:
            raise RpcSequenceError(
                f"no request outstanding on shard {self.shard or '?'}"
            )
        for attempt in range(self.retry.attempts):
            if attempt:
                self.retries += 1
                self.sleep(self.retry.delay_s(attempt - 1))
                self._send_attempt(request)
            if request.error is not None:
                continue
            try:
                while True:
                    response = self._recv(request.timeout_s, request.op)
                    if response.get("id") == request.call_id:
                        break
                    # A reply correlated to an older call: note and drop.
                    self.stale_responses += 1
            except RpcError as exc:
                request.error = exc
                continue
            if response.get("ok"):
                return response.get("value")
            error = response.get("error") or {}
            raise RemoteOpError(
                f"shard {self.shard or '?'} op {request.op!r} failed: "
                f"{error.get('type', 'Error')}: {error.get('message', '')}",
                remote_type=str(error.get("type", "")),
            )
        assert request.error is not None
        raise request.error

    def call(
        self,
        op: str,
        params: dict | None = None,
        *,
        timeout_s: float = 30.0,
    ) -> Any:
        """One typed RPC: send, correlate, retry transport failures."""
        self.begin(op, params, timeout_s=timeout_s)
        return self.finish()
