"""Transport-layer fault sweep: every failure is typed, nothing hangs.

The contract under test (see :mod:`repro.sharding.transport`): a worker
death, a torn frame or a missed deadline raises a ``ShardError`` (or
its ``ShardTimeoutError`` subclass) — never a raw ``OSError``, never a
hang — and marks the transport *broken* so no later call can read a
survivor's stale reply against the wrong op. Remote op errors (the
worker answered) leave the transport usable. After any fault, a fresh
engine on the same graph still produces the monolithic corpus bit for
bit: torn transports never leak state into new ones.

Workers are crashed for real (``ShardWorker.debug_exit`` →
``os._exit``), frames are torn with hand-rolled fake servers, and hangs
are provoked by servers that accept and then go silent; a fake server
stands in for the spawned workers by replacing the transport's spawn
step (``SocketTransport._spawn_loopback``) with its own address.
"""

import os
import socket
import threading

import numpy as np
import pytest

from repro.errors import FrameError, ReproError, ShardError, ShardTimeoutError
from repro.serving.framing import FRAME, recv_frame, send_frame
from repro.sharding import ShardedWalkEngine, wire
from repro.sharding.socket_worker import _serve_session
from repro.sharding.transport import SocketTransport
from repro.walks.vectorized import VectorizedWalkEngine


def _engine(graph, transport, **kw):
    return ShardedWalkEngine(
        graph, "deepwalk", num_shards=2,
        transport=transport, seed=11, **kw,
    )


def _workers_at(monkeypatch, port):
    """Both shards' workers are whatever listens on ``port``: no process is spawned."""
    monkeypatch.setattr(
        SocketTransport, "_spawn_loopback", lambda self: [("127.0.0.1", port)] * 2
    )


def assert_fresh_engine_matches_monolithic(graph, transport):
    """After a fault, a rebuilt engine still matches the monolith bitwise."""
    ref = VectorizedWalkEngine(graph, "deepwalk", seed=11).generate(1, 8)
    engine = _engine(graph, transport)
    try:
        got = engine.generate(1, 8)
    finally:
        engine.close()
    assert np.array_equal(ref.walks, got.walks)
    assert np.array_equal(ref.lengths, got.lengths)


# ---------------------------------------------------------------------------
# socket transport
# ---------------------------------------------------------------------------


class TestSocketTransportFaults:
    def test_worker_killed_mid_run_is_typed(self, small_unweighted_graph):
        engine = _engine(small_unweighted_graph, "socket")
        try:
            # shard 0 dies without replying while shard 1's reply is in
            # flight — the round must fail typed, not deadlock or return
            # shard 1's payload as shard 0's
            with pytest.raises(ShardError):
                engine.transport.call_many(
                    [(0, "debug_exit", ()), (1, "memory_bytes", ())]
                )
            # the failed round makes the transport unsafe: every entry
            # point refuses reuse instead of reading a stale frame
            with pytest.raises(ShardError, match="broken"):
                engine.transport.ping()
            with pytest.raises(ShardError, match="broken"):
                engine.transport.call(1, "memory_bytes")
            with pytest.raises(ShardError, match="broken"):
                engine.transport.call_many([(1, "memory_bytes", ())])
        finally:
            engine.close()
            engine.close()  # idempotent with a dead worker in the mix
        assert_fresh_engine_matches_monolithic(small_unweighted_graph, "socket")

    def test_close_is_idempotent_and_closed_transport_refuses(
        self, small_unweighted_graph
    ):
        engine = _engine(small_unweighted_graph, "socket")
        engine.close()
        engine.close()  # second close: no CLOSE frame re-sent, no error
        with pytest.raises(ShardError, match="closed"):
            engine.transport.call(0, "memory_bytes")

    def test_no_fd_growth_across_engine_lifecycles(self, small_unweighted_graph):
        # warm-up build absorbs one-time allocations (multiprocessing
        # machinery, numpy scratch), then the fd count must be flat
        _engine(small_unweighted_graph, "socket").close()
        baseline = len(os.listdir("/proc/self/fd"))
        for __ in range(5):
            engine = _engine(small_unweighted_graph, "socket")
            engine.generate(1, 5)
            engine.close()
        assert len(os.listdir("/proc/self/fd")) <= baseline

    def test_unreachable_worker_raises_within_connect_timeout(
        self, small_unweighted_graph, monkeypatch
    ):
        # a bound-but-never-accepting listener guarantees a dead address
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        blocker.close()  # nothing listens here now
        _workers_at(monkeypatch, port)
        with pytest.raises(ShardError, match="cannot reach shard worker"):
            _engine(small_unweighted_graph, "socket", connect_timeout=0.5)

    def test_hung_worker_hits_call_timeout(self, small_unweighted_graph, monkeypatch):
        """A worker that accepts but never answers trips the deadline."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]
        conns = []

        def silent_server():
            for __ in range(2):
                conn, __peer = listener.accept()
                conns.append(conn)  # read nothing, answer nothing

        thread = threading.Thread(target=silent_server, daemon=True)
        thread.start()
        _workers_at(monkeypatch, port)
        try:
            with pytest.raises(ShardTimeoutError, match="within 0.5s"):
                _engine(small_unweighted_graph, "socket", call_timeout=0.5)
        finally:
            thread.join(timeout=5)
            for conn in conns:
                conn.close()
            listener.close()

    def test_short_read_mid_frame_is_typed(self, small_unweighted_graph, monkeypatch):
        """A server that tears a reply frame produces ShardError, not a hang."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(2)
        port = listener.getsockname()[1]

        def serve_torn(conn):
            try:
                while True:
                    payload = recv_frame(conn)
                    if payload is None:
                        break
                    kind, __body = wire.decode_message(payload)
                    if kind == wire.KIND_SETUP:
                        send_frame(conn, wire.encode_result(True))
                    elif kind == wire.KIND_PING:
                        send_frame(conn, wire.encode_simple(wire.KIND_PONG))
                    elif kind == wire.KIND_CLOSE:
                        send_frame(conn, wire.encode_simple(wire.KIND_BYE))
                        break
                    else:
                        # announce a 64-byte reply, deliver 3, vanish
                        conn.sendall(FRAME.pack(64) + b"abc")
                        break
            finally:
                conn.close()

        def torn_server():
            handlers = []
            for __ in range(2):
                conn, __peer = listener.accept()
                handler = threading.Thread(target=serve_torn, args=(conn,), daemon=True)
                handler.start()
                handlers.append(handler)
            for handler in handlers:
                handler.join(timeout=10)

        thread = threading.Thread(target=torn_server, daemon=True)
        thread.start()
        engine = None
        try:
            with monkeypatch.context() as patch:
                _workers_at(patch, port)
                engine = _engine(small_unweighted_graph, "socket", call_timeout=5.0)
            with pytest.raises(ShardError, match="died mid-operation"):
                engine.transport.call(0, "memory_bytes")
            with pytest.raises(ShardError, match="broken"):
                engine.transport.call(1, "memory_bytes")
        finally:
            if engine is not None:
                engine.close()
            thread.join(timeout=5)
            listener.close()
        assert_fresh_engine_matches_monolithic(small_unweighted_graph, "socket")

    def test_client_short_header_ends_worker_session_cleanly(self):
        """A driver dying mid-header must not wedge or crash the worker."""
        driver, worker = socket.socketpair()
        errors = []

        def run_worker():
            try:
                _serve_session(worker)
            except Exception as err:  # the assertion below reports it
                errors.append(err)

        thread = threading.Thread(target=run_worker, daemon=True)
        thread.start()
        with driver:
            driver.sendall(b"\x00\x00")  # half a length prefix, then EOF
        thread.join(timeout=10)
        assert not thread.is_alive()  # worker drained
        assert errors == []  # no exception escaped the session
        assert worker.fileno() == -1  # and it closed its end


# ---------------------------------------------------------------------------
# framing + wire codec units
# ---------------------------------------------------------------------------


class TestFramingUnits:
    def test_roundtrip_and_short_read_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, b"hello shard")
            assert bytes(recv_frame(b)) == b"hello shard"
            # clean EOF between frames is None, not an error
            a.close()
            assert recv_frame(b) is None
        finally:
            b.close()
        a, b = socket.socketpair()
        try:
            a.sendall(FRAME.pack(100) + b"only-some-bytes")
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frames_refused_both_directions(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(FrameError, match="refusing to send"):
                send_frame(a, b"x" * 100, max_bytes=10)
            a.sendall(FRAME.pack(1 << 20))
            with pytest.raises(FrameError, match="exceeds ceiling"):
                recv_frame(b, max_bytes=10)
        finally:
            a.close()
            b.close()

    def test_frame_errors_join_the_taxonomy(self):
        assert issubclass(FrameError, ReproError)
        assert issubclass(ShardTimeoutError, ShardError)


class TestWireCodec:
    def test_value_roundtrip_bitwise(self):
        values = (
            None, True, False, 0, -7, 2**40, 3.25, float("inf"), "op-name",
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.linspace(0, 1, 5, dtype=np.float32),
            np.array([], dtype=np.float64),
            np.ones((2, 2, 2), dtype=np.uint8),
            (1, "two", np.arange(3)),
            {0: (np.arange(2), np.arange(2.0)), 3: (np.array([7]),)},
        )
        payload = wire.encode_result(values)
        kind, decoded = wire.decode_message(payload)
        assert kind == wire.KIND_RESULT

        def check(expect, got):
            if isinstance(expect, np.ndarray):
                assert got.dtype == expect.dtype and got.shape == expect.shape
                assert np.array_equal(got, expect)
            elif isinstance(expect, tuple):
                assert isinstance(got, tuple) and len(got) == len(expect)
                for e, g in zip(expect, got):
                    check(e, g)
            elif isinstance(expect, dict):
                assert sorted(got) == sorted(expect)
                for key in expect:
                    check(expect[key], got[key])
            else:
                assert got == expect and type(got) is type(expect)

        check(values, decoded)

    def test_decoded_arrays_are_writable(self):
        # the receive path hands decode a bytearray (see recv_exactly), so
        # the zero-copy frombuffer views behave like locally allocated arrays
        payload = bytearray(wire.encode_result(np.arange(4)))
        __, decoded = wire.decode_message(payload)
        decoded[0] = 99
        assert decoded[0] == 99

    def test_unencodable_values_raise_at_the_sender(self):
        with pytest.raises(ShardError, match="cannot cross the shard wire"):
            wire.encode_result(object())
        with pytest.raises(ShardError, match="object-dtype"):
            wire.encode_result(np.array([object()]))

    def test_corrupt_payloads_raise_frame_error(self):
        with pytest.raises(FrameError, match="unknown shard message kind"):
            wire.decode_message(b"\xff")
        with pytest.raises(FrameError, match="unknown value tag"):
            wire.decode_message(bytes([wire.KIND_RESULT, 250]))
        with pytest.raises(FrameError, match="truncated"):
            wire.decode_message(bytes([wire.KIND_RESULT, 3, 0, 0]))  # int cut short
        good = wire.encode_result(5)
        with pytest.raises(FrameError, match="trailing bytes"):
            wire.decode_message(good + b"JUNK")
        with pytest.raises(FrameError, match="malformed CALL"):
            wire.decode_message(
                bytes([wire.KIND_CALL]) + wire.encode_result(1)[1:] * 2
            )
