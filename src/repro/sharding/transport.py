"""Driver-to-worker transports for the sharded walk engine.

Two interchangeable implementations of the same op protocol (``call``
/ ``call_many`` / ``close``):

* :class:`InlineTransport` — workers live in the driver process and ops
  are direct method calls. Zero serialization; the reference used by the
  bitwise-parity tests and the default for small graphs.
* :class:`SocketTransport` — one worker process per shard, spawned on
  loopback (:mod:`repro.sharding.socket_worker`), one TCP connection
  to each. Ops travel as length-prefixed binary frames
  (:mod:`repro.sharding.wire`: array headers + raw bytes, no pickle on
  the hot path); the driver connects with retry/backoff, bounds every
  call with a timeout, probes liveness with ping frames and drains
  gracefully on close.

``call_many`` is the fan-out primitive: the socket transport runs each
shard's request sequence on its own thread, so per-shard work overlaps.

Failure discipline of the out-of-process transport: any
connection-layer failure — a worker death, a short read, a missed
deadline — raises a typed :class:`~repro.errors.ShardError` (timeouts:
:class:`~repro.errors.ShardTimeoutError`) *and marks the transport
broken*. A broken transport refuses further calls instead of reading a
survivor's stale reply against the wrong op; the caller builds a fresh
engine. Remote *op* errors (the worker answered, typed) leave the
connection in sync and the transport usable.
"""

from __future__ import annotations

import socket
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import FrameError, ShardError, ShardTimeoutError
from repro.serving.framing import recv_frame, send_frame
from repro.sharding import wire
from repro.sharding.worker import ShardWorker


#: Seconds a worker has to answer the liveness probe and the closing drain.
HEARTBEAT_TIMEOUT = 5.0


class InlineTransport:
    """Workers in-process; ops are direct method calls."""

    name = "inline"

    def __init__(self, plan, setup: dict, sharding=None):
        self.workers = [
            ShardWorker(shard, plan.num_shards, plan.owner, **setup) for shard in plan.shards
        ]

    def call(self, shard_id: int, op: str, *args):
        return getattr(self.workers[shard_id], op)(*args)

    def call_many(self, calls):
        """Run ``(shard_id, op, args)`` requests; returns results in order."""
        return [self.call(shard_id, op, *args) for shard_id, op, args in calls]

    def close(self):
        for worker in self.workers:
            worker.close()


class SocketTransport:
    """One spawned loopback worker process and TCP connection per shard.

    Each worker is bootstrapped over the wire with its
    :class:`~repro.sharding.partitioner.Shard`, model and
    :class:`~repro.config.WalkConfig` (``SETUP``), then driven by binary
    op frames.

    Robustness knobs, read off the
    :class:`~repro.sharding.config.ShardingConfig`: ``connect_timeout`` bounds
    the retry-with-backoff connect loop per worker, ``call_timeout``
    bounds every op round-trip (``None`` disables);
    :data:`HEARTBEAT_TIMEOUT` bounds the liveness probe and frames are
    held to :data:`~repro.serving.framing.MAX_BINARY_FRAME_BYTES`. Every
    op's bytes and round-trip latency are accounted per shard;
    :meth:`transport_stats` surfaces the totals the benchmark's
    network-budget column records.
    """

    name = "socket"

    def __init__(self, plan, setup: dict, sharding):
        self.num_shards = plan.num_shards
        self.connect_timeout = sharding.connect_timeout
        self.call_timeout = sharding.call_timeout
        self._socks: list = []
        self._procs: list = []
        self._pool: ThreadPoolExecutor | None = None
        self._broken = False
        self._closed = False
        # per-shard accounting slots: each shard's socket is driven by at
        # most one thread at a time, so slot writes never race
        self._bytes_sent = np.zeros(self.num_shards, dtype=np.int64)
        self._bytes_recv = np.zeros(self.num_shards, dtype=np.int64)
        self._migration_payload_bytes = np.zeros(self.num_shards, dtype=np.int64)
        self._op_calls: list[dict] = [dict() for __ in range(self.num_shards)]
        started = False
        try:
            for shard_id, address in enumerate(self._spawn_loopback()):
                self._socks.append(self._connect(shard_id, address))
            for shard_id, shard in enumerate(plan.shards):
                payload = wire.encode_setup((shard, plan.num_shards, plan.owner, setup))
                reply = self._roundtrip(shard_id, payload, "setup")
                kind, body = wire.decode_message(reply)
                if kind == wire.KIND_ERROR:
                    raise ShardError(
                        f"shard worker {shard_id} rejected its setup: "
                        f"{body[0]}: {body[1]}"
                    )
                if kind != wire.KIND_RESULT or body is not True:
                    raise ShardError(
                        f"shard worker {shard_id} answered setup with "
                        f"message kind {kind}; not a repro shard worker?"
                    )
            self.ping()  # liveness: every worker answers before the first op
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_shards, thread_name_prefix="shard-io"
            )
            started = True
        finally:
            if not started:
                self.close()

    # -- connection management -----------------------------------------
    def _spawn_loopback(self) -> list[tuple[str, int]]:
        """Start one local worker process per shard; returns addresses."""
        import multiprocessing as mp

        from repro.sharding.socket_worker import _loopback_worker_main

        ctx = mp.get_context()
        addresses = []
        for __ in range(self.num_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_loopback_worker_main, args=(child_conn,), daemon=True)
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            try:
                if not parent_conn.poll(self.connect_timeout):
                    raise ShardError(
                        "loopback shard worker did not report its address "
                        f"within {self.connect_timeout:g}s"
                    )
                addresses.append(tuple(parent_conn.recv()))
            except (EOFError, OSError) as err:
                raise ShardError(
                    f"loopback shard worker died before binding: {err}"
                ) from err
            finally:
                parent_conn.close()
        return addresses

    def _connect(self, shard_id: int, address: tuple[str, int]):
        """Dial one worker with retry + exponential backoff."""
        deadline = time.monotonic() + self.connect_timeout
        delay = 0.05
        while True:
            try:
                sock = socket.create_connection(
                    address, timeout=max(deadline - time.monotonic(), 0.001)
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(self.call_timeout)
                return sock
            except OSError as err:
                if time.monotonic() + delay >= deadline:
                    raise ShardError(
                        f"cannot reach shard worker {shard_id} at "
                        f"{address[0]}:{address[1]} within "
                        f"{self.connect_timeout:g}s: {err}"
                    ) from err
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _check_usable(self) -> None:
        if self._closed:
            raise ShardError("transport is closed; build a fresh engine")
        if self._broken:
            raise ShardError(
                "transport is broken after a failed operation: surviving "
                "workers may hold undelivered replies that would be matched "
                "to the wrong op; build a fresh engine"
            )

    def _roundtrip(self, shard_id: int, payload: bytes, op: str) -> bytearray:
        """One framed request/reply on a shard's socket, fully accounted."""
        sock = self._socks[shard_id]
        start = time.perf_counter()
        try:
            sent = send_frame(sock, payload)
            self._bytes_sent[shard_id] += sent
            reply = recv_frame(sock)
        except socket.timeout as err:
            self._broken = True
            raise ShardTimeoutError(
                f"shard worker {shard_id} did not answer op {op!r} within "
                f"{self.call_timeout:g}s"
            ) from err
        except (FrameError, OSError) as err:
            self._broken = True
            raise ShardError(
                f"shard worker {shard_id} died mid-operation "
                f"(op {op!r}): {err}"
            ) from err
        if reply is None:
            self._broken = True
            raise ShardError(
                f"shard worker {shard_id} closed the connection instead of "
                f"answering op {op!r}"
            )
        self._bytes_recv[shard_id] += len(reply) + 4
        slot = self._op_calls[shard_id].setdefault(op, [0, 0.0])
        slot[0] += 1
        slot[1] += time.perf_counter() - start
        return reply

    # -- op protocol -----------------------------------------------------
    def _call_raw(self, shard_id: int, op: str, args):
        payload = wire.encode_call(op, args)
        if op == "absorb":
            self._migration_payload_bytes[shard_id] += len(payload)
        reply = self._roundtrip(shard_id, payload, op)
        try:
            kind, body = wire.decode_message(reply)
        except FrameError as err:
            self._broken = True
            raise ShardError(
                f"shard worker {shard_id} sent a corrupt reply to op "
                f"{op!r}: {err}"
            ) from err
        if kind == wire.KIND_ERROR:
            # the worker answered: the connection is in sync and usable
            raise ShardError(
                f"shard worker {shard_id} failed op {op!r}: {body[0]}: {body[1]}"
            )
        if kind != wire.KIND_RESULT:
            self._broken = True
            raise ShardError(
                f"shard worker {shard_id} answered op {op!r} with message "
                f"kind {kind}"
            )
        return body

    def call(self, shard_id: int, op: str, *args):
        self._check_usable()
        return self._call_raw(shard_id, op, args)

    def call_many(self, calls):
        """Fan out concurrently: one I/O thread per shard, order preserved.

        Calls are grouped by shard (preserving each shard's request
        order — migration rounds send several ``absorb`` batches to one
        destination) and each group runs request-by-request on its own
        thread. Every thread runs to completion before any error is
        re-raised, so surviving connections are never abandoned with an
        in-flight reply; a connection-layer failure marks the transport
        broken all the same.
        """
        self._check_usable()
        calls = list(calls)
        groups: dict[int, list[int]] = {}
        for position, (shard_id, __, ___) in enumerate(calls):
            groups.setdefault(shard_id, []).append(position)

        def run_group(positions):
            return [
                self._call_raw(calls[position][0], calls[position][1], calls[position][2])
                for position in positions
            ]

        if len(groups) <= 1 or self._pool is None:
            ordered = {
                shard_id: run_group(positions) for shard_id, positions in groups.items()
            }
        else:
            futures = {
                shard_id: self._pool.submit(run_group, positions)
                for shard_id, positions in groups.items()
            }
            ordered = {}
            first_error = None
            for shard_id, future in futures.items():
                try:
                    ordered[shard_id] = future.result()
                except ShardError as err:
                    if first_error is None:
                        first_error = err
            if first_error is not None:
                raise first_error
        results = [None] * len(calls)
        for shard_id, positions in groups.items():
            for position, result in zip(positions, ordered[shard_id]):
                results[position] = result
        return results

    # -- liveness --------------------------------------------------------
    def ping(self) -> list[float]:
        """Heartbeat every worker; returns per-shard round-trip seconds.

        A worker that does not answer ``PONG`` within
        :data:`HEARTBEAT_TIMEOUT` raises :class:`~repro.errors.
        ShardTimeoutError` (and a dead one :class:`~repro.errors.
        ShardError`) — the cheap pre-flight that tells a dead fabric
        from a slow one.
        """
        self._check_usable()
        latencies = []
        for shard_id, sock in enumerate(self._socks):
            previous = sock.gettimeout()
            sock.settimeout(HEARTBEAT_TIMEOUT)
            start = time.perf_counter()
            try:
                reply = self._roundtrip(
                    shard_id, wire.encode_simple(wire.KIND_PING), "ping"
                )
            finally:
                try:
                    sock.settimeout(previous)
                except OSError:
                    pass
            kind, __ = wire.decode_message(reply)
            if kind != wire.KIND_PONG:
                self._broken = True
                raise ShardError(
                    f"shard worker {shard_id} answered the heartbeat with "
                    f"message kind {kind}"
                )
            latencies.append(time.perf_counter() - start)
        return latencies

    # -- observability ---------------------------------------------------
    def transport_stats(self) -> dict:
        """Wire-budget counters: bytes each way, payloads, per-op latency."""
        per_op: dict = {}
        for shard_ops in self._op_calls:
            for op, (count, seconds) in shard_ops.items():
                slot = per_op.setdefault(op, {"calls": 0, "seconds": 0.0})
                slot["calls"] += count
                slot["seconds"] += seconds
        for slot in per_op.values():
            slot["mean_ms"] = 1000.0 * slot["seconds"] / slot["calls"] if slot["calls"] else 0.0
            slot["seconds"] = round(slot["seconds"], 6)
            slot["mean_ms"] = round(slot["mean_ms"], 4)
        return {
            "bytes_sent": int(self._bytes_sent.sum()),
            "bytes_recv": int(self._bytes_recv.sum()),
            "migration_payload_bytes": int(self._migration_payload_bytes.sum()),
            "op_latency": per_op,
        }

    # -- lifecycle -------------------------------------------------------
    def close(self):
        """Drain workers gracefully and release sockets/processes; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for shard_id, sock in enumerate(self._socks):
            if not self._broken:
                try:
                    sock.settimeout(HEARTBEAT_TIMEOUT)
                    send_frame(sock, wire.encode_simple(wire.KIND_CLOSE))
                    recv_frame(sock)  # BYE
                except (FrameError, OSError):
                    pass  # the drain is best-effort; the socket closes anyway
            try:
                sock.close()
            except OSError:
                pass
        self._socks = []
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            try:
                proc.close()
            except ValueError:
                pass
        self._procs = []


#: transport name -> class; the engine resolves its ``transport=`` knob here.
TRANSPORTS = {"inline": InlineTransport, "socket": SocketTransport}


def make_transport(sharding, plan, model, model_params, walk):
    """Build the transport a :class:`~repro.sharding.config.ShardingConfig` names.

    The worker bootstrap (model name, its parameters, the
    :class:`~repro.config.WalkConfig`, under :class:`ShardWorker`'s
    parameter names) is assembled here for either transport.
    """
    setup = {"model": model, "model_params": model_params, "config": walk}
    return TRANSPORTS[sharding.transport](plan, setup, sharding)
