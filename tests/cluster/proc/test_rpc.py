"""The RPC calling convention over raw pipe pairs.

Each test builds the channel from two ``os.pipe`` pairs — the client
writes requests into one, reads responses from the other — so every
transport failure mode (silence, stale replies, EOF, remote refusal) is
staged deterministically without a subprocess.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.cluster.proc.rpc import RemoteOpError, RetryPolicy, RpcClient
from repro.cluster.proc.wire import FrameDecoder, encode_message
from repro.errors import RpcError, RpcSequenceError, RpcTimeout, ServeError


class _Channel:
    """Client-side pipe pair plus the test's server-side ends."""

    def __init__(self):
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        self.client_in = os.fdopen(req_w, "wb", buffering=0)
        self.client_out = os.fdopen(resp_r, "rb", buffering=0)
        self.server_in = os.fdopen(req_r, "rb", buffering=0)
        self.server_out = os.fdopen(resp_w, "wb", buffering=0)

    def respond(self, *messages: dict) -> None:
        """Write the messages in one chunk, as a child that woke up with
        several replies queued would."""
        self.server_out.write(b"".join(map(encode_message, messages)))
        self.server_out.flush()

    def requests(self) -> list[dict]:
        """Every request the client has sent so far."""
        return FrameDecoder().feed(os.read(self.server_in.fileno(), 65536))

    def close(self):
        for f in (
            self.client_in,
            self.client_out,
            self.server_in,
            self.server_out,
        ):
            try:
                f.close()
            except OSError:
                pass


@pytest.fixture
def channel():
    chan = _Channel()
    yield chan
    chan.close()


def _client(chan, **kwargs) -> RpcClient:
    kwargs.setdefault(
        "retry", RetryPolicy(attempts=1, base_delay_s=0.0, max_delay_s=0.0)
    )
    return RpcClient(
        chan.client_in, chan.client_out, shard="shard-t", **kwargs
    )


class TestTransportFailures:
    def test_silence_becomes_typed_timeout(self, channel):
        client = _client(channel)
        with pytest.raises(RpcTimeout) as exc_info:
            client.call("ping", timeout_s=0.05)
        assert exc_info.value.shard == "shard-t"
        assert exc_info.value.op == "ping"

    def test_eof_becomes_typed_rpc_error(self, channel):
        client = _client(channel)
        channel.server_out.close()
        with pytest.raises(RpcError, match="EOF"):
            client.call("ping", timeout_s=1.0)

    def test_epipe_on_send_is_typed(self, channel):
        client = _client(channel)
        channel.server_in.close()
        with pytest.raises(RpcError, match="pipe|EPIPE"):
            client.call("ping", timeout_s=1.0)

    def test_timeouts_are_retried_up_to_the_budget(self, channel):
        naps = []
        client = _client(
            channel,
            retry=RetryPolicy(
                attempts=3,
                base_delay_s=0.01,
                multiplier=2.0,
                max_delay_s=0.1,
                jitter=0.0,
            ),
            sleep=naps.append,
        )
        with pytest.raises(RpcTimeout):
            client.call("ping", timeout_s=0.02)
        assert client.retries == 2
        assert naps == [0.01, 0.02]  # exponential, jitter-free


class TestCorrelation:
    def test_stale_response_dropped_never_misdelivered(self, channel):
        client = _client(channel)
        channel.respond({"id": 999, "ok": True, "value": "WRONG ANSWER"})
        channel.respond({"id": 1, "ok": True, "value": "right"})
        assert client.call("ping", timeout_s=2.0) == "right"
        assert client.stale_responses == 1

    def test_retry_after_timeout_gets_a_fresh_id(self, channel):
        """The wedged child's late answer to call 1 must not satisfy
        the retry (call 2)."""
        client = _client(
            channel,
            retry=RetryPolicy(attempts=2, base_delay_s=0.0, max_delay_s=0.0),
            sleep=lambda _s: None,
        )

        def responder():
            decoder = FrameDecoder()
            seen = []
            while len(seen) < 2:
                chunk = channel.server_in.read(65536)
                if not chunk:
                    return
                seen.extend(decoder.feed(chunk))
            # Answer the *second* attempt only (id 2); the first timed out.
            channel.respond({"id": 2, "ok": True, "value": "second try"})

        thread = threading.Thread(target=responder, daemon=True)
        thread.start()
        assert client.call("ping", timeout_s=0.5) == "second try"
        thread.join(timeout=5)
        assert client.retries == 1


class TestHalves:
    """``begin`` + ``finish`` is ``call`` cut in two, nothing else."""

    def test_begin_sends_and_returns_finish_correlates(self, channel):
        client = _client(channel)
        client.begin("step", {"n": 1}, timeout_s=2.0)
        assert client.outstanding
        assert channel.requests() == [
            {"id": 1, "op": "step", "params": {"n": 1}}
        ]
        channel.respond({"id": 1, "ok": True, "value": "done"})
        assert client.finish() == "done"
        assert not client.outstanding
        assert client.calls == 1 and client.retries == 0

    def test_a_live_reply_is_never_dropped_by_its_position(self, channel):
        """Frames that share a read chunk are judged by id alone: the
        live reply may come first, last or in the middle."""
        client = _client(channel)
        client.begin("step", timeout_s=2.0)
        channel.respond(
            {"id": 998, "ok": True, "value": "stale"},
            {"id": 1, "ok": True, "value": "live"},
            {"id": 999, "ok": True, "value": "stale too"},
        )
        assert client.finish() == "live"
        assert client.stale_responses == 1
        # The frame behind the live one waits its turn and is dropped
        # by the next call's id comparison.
        channel.respond({"id": 2, "ok": True, "value": "next"})
        assert client.call("ping", timeout_s=2.0) == "next"
        assert client.stale_responses == 2

    def test_silence_at_finish_is_a_typed_timeout_and_frees_the_pipe(
        self, channel
    ):
        client = _client(channel)
        client.begin("step", timeout_s=0.05)
        with pytest.raises(RpcTimeout) as exc_info:
            client.finish()
        assert exc_info.value.op == "step"
        assert not client.outstanding
        channel.respond(
            {"id": 1, "ok": True, "value": "late"},
            {"id": 2, "ok": True, "value": "fresh"},
        )
        assert client.call("ping", timeout_s=2.0) == "fresh"
        assert client.stale_responses == 1

    def test_send_failure_at_begin_surfaces_in_finish(self, channel):
        client = _client(channel)
        channel.server_in.close()
        client.begin("step", timeout_s=1.0)  # does not raise
        with pytest.raises(RpcError, match="pipe|EPIPE"):
            client.finish()
        assert not client.outstanding

    def test_retry_budget_and_accounting_match_call(self, channel):
        """The figures ``call`` gives in ``TestTransportFailures``."""
        naps = []
        client = _client(
            channel,
            retry=RetryPolicy(
                attempts=3,
                base_delay_s=0.01,
                multiplier=2.0,
                max_delay_s=0.1,
                jitter=0.0,
            ),
            sleep=naps.append,
        )
        client.begin("ping", timeout_s=0.02)
        with pytest.raises(RpcTimeout):
            client.finish()
        assert (client.calls, client.retries) == (1, 2)
        assert naps == [0.01, 0.02]
        # Every attempt went out under its own id.
        assert [r["id"] for r in channel.requests()] == [1, 2, 3]

    def test_one_outstanding_request_per_pipe(self, channel):
        client = _client(channel)
        with pytest.raises(RpcSequenceError, match="no request"):
            client.finish()
        client.begin("step", timeout_s=2.0)
        with pytest.raises(RpcSequenceError, match="still owes"):
            client.begin("ping")
        with pytest.raises(RpcSequenceError, match="still owes"):
            client.call("ping")
        # The refused requests were neither sent nor counted, and the
        # first is still collectable.
        assert client.calls == 1
        assert [r["op"] for r in channel.requests()] == ["step"]
        channel.respond({"id": 1, "ok": True, "value": "done"})
        assert client.finish() == "done"


class TestApplicationErrors:
    def test_remote_error_raises_by_name_and_is_never_retried(
        self, channel
    ):
        client = _client(
            channel,
            retry=RetryPolicy(attempts=3, base_delay_s=0.0, max_delay_s=0.0),
            sleep=lambda _s: None,
        )
        channel.respond(
            {
                "id": 1,
                "ok": False,
                "error": {"type": "JobRejected", "message": "shed"},
            }
        )
        with pytest.raises(RemoteOpError) as exc_info:
            client.call("submit", timeout_s=2.0)
        assert exc_info.value.remote_type == "JobRejected"
        assert "shed" in str(exc_info.value)
        assert client.retries == 0  # an answer, not a failure


class TestRetryPolicy:
    def test_delay_bounds(self):
        policy = RetryPolicy(
            attempts=5,
            base_delay_s=0.05,
            multiplier=2.0,
            max_delay_s=0.4,
            jitter=0.5,
            seed=42,
        )
        for attempt in range(8):
            base = min(0.4, 0.05 * 2.0**attempt)
            delay = policy.delay_s(attempt)
            assert base <= delay < base * 1.5

    def test_deterministic_per_seed_desynchronised_across_seeds(self):
        a = [RetryPolicy(seed=1).delay_s(k) for k in range(4)]
        b = [RetryPolicy(seed=1).delay_s(k) for k in range(4)]
        c = [RetryPolicy(seed=2).delay_s(k) for k in range(4)]
        assert a == b
        assert a != c

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay_s": -0.1},
            {"base_delay_s": 2.0, "max_delay_s": 1.0},
            {"multiplier": 0.5},
            {"jitter": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ServeError):
            RetryPolicy(**kwargs)
