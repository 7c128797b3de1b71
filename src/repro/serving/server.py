"""The network-facing serving tier: an asyncio micro-batching query server.

:class:`~repro.serving.service.QueryService` made the read path a fast
*library*; this module makes it a *service*. The design follows the
standard online-serving playbook:

* **protocol** — length-prefixed JSON over TCP: each frame is a 4-byte
  big-endian length followed by one UTF-8 JSON object. Requests carry an
  ``op`` (``most_similar`` / ``similarity`` / ``stats`` / ``ping``) plus
  op arguments and an optional ``id`` echoed back; responses are
  ``{"ok": true, "result": ...}`` or ``{"ok": false, "error": {"code",
  "type", "message"}}`` with stable machine-readable error codes;
* **micro-batching** — concurrent requests land in one bounded queue; a
  dispatcher takes the first and all queued behind it, collects on while
  each event-loop pass brings another (capped by ``max_batch`` and
  ``max_wait_us``) and answers every ``most_similar`` of a ``topn`` with *one*
  :meth:`~repro.serving.service.QueryService.most_similar_batch` index
  pass — the batched-BLAS economics of the library, applied to traffic
  that arrives one key at a time;
* **admission control** — when the pending queue is full the request is
  answered immediately with a typed ``overloaded`` error
  (:class:`~repro.errors.OverloadError`) instead of queueing without
  bound: past saturation, added latency helps nobody;
* **zero-downtime updates** — queries run under a
  :class:`~repro.serving.snapshot.SnapshotManager` lease, so
  :meth:`publish`/:meth:`upsert` swap in a new embedding version
  atomically while in-flight batches drain on the old one;
* **observability** — :meth:`stats` reports QPS, p50/p99 latency (from
  a log-bucketed histogram), batch-size and queue counters, plus the
  snapshot-version bookkeeping.

Two clients ship with the server: :class:`QueryClient` speaks the TCP
protocol, and :class:`InProcessClient` drives the same submission path
without sockets — the unit-test and benchmark harness shape.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from repro.errors import (
    ConfigError,
    FrameError,
    OverloadError,
    ProtocolError,
    ReproError,
    ServerError,
    ServingError,
)
from repro.serving.config import ServerConfig, ServingSpec
from repro.serving.framing import FRAME as _FRAME
from repro.serving.framing import MAX_FRAME_BYTES, read_frame
from repro.serving.snapshot import SnapshotManager

#: most keys one ``most_similar`` request may carry (batching happens
#: server-side; a single huge request would defeat fair coalescing).
MAX_KEYS_PER_REQUEST = 1024

_OPS = ("most_similar", "similarity", "stats", "ping")


def _is_node_id(value) -> bool:
    """An integer an int64 holds; ``1.7``, ``True`` and ``"3"`` are refused, not cast."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and -(2**63) <= value < 2**63


def encode_frame(payload: dict) -> bytes:
    """Serialize one protocol frame (length prefix + compact JSON)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _FRAME.pack(len(body)) + body


def decode_request(data: bytes) -> dict:
    """Parse one frame payload into a request object (or raise typed)."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError(f"undecodable request frame: {err}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(obj).__name__}")
    return obj


class LatencyHistogram:
    """Log-bucketed latency accumulator with O(1) record, O(buckets) quantile.

    Buckets span 1µs .. 60s in geometric steps, so p50/p99 carry ~±10%
    relative error at any magnitude — the precision monitoring needs at
    a fraction of the cost of storing every sample.
    """

    def __init__(self, low: float = 1e-6, high: float = 60.0, buckets: int = 96):
        #: upper edge of each bucket; the final implicit bucket is +inf.
        self.edges = np.logspace(np.log10(low), np.log10(high), buckets)
        self.counts = np.zeros(buckets + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0

    def record(self, seconds: float) -> None:
        self.counts[int(np.searchsorted(self.edges, seconds, side="left"))] += 1
        self.count += 1
        self.total += seconds

    def quantile(self, q: float) -> float:
        """Upper bucket edge at quantile ``q`` in [0, 1]; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        cum = np.cumsum(self.counts)
        i = int(np.searchsorted(cum, q * self.count, side="left"))
        return float(self.edges[min(i, self.edges.size - 1)])

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _Pending:
    """One queued request awaiting its batch."""

    __slots__ = ("request", "future", "arrived")

    def __init__(self, request, future, arrived):
        self.request = request
        self.future = future
        self.arrived = arrived


class QueryServer:
    """Asyncio micro-batching front-end over one :class:`SnapshotManager`.

    Parameters
    ----------
    source:
        what to serve: a :class:`SnapshotManager`, or anything
        :class:`~repro.serving.service.QueryService` accepts (an
        :class:`~repro.serving.store.EmbeddingStore` or
        ``KeyedVectors``), which gets wrapped in a fresh manager built
        with ``index`` / ``cache_size`` / ``index_params``.
    max_batch:
        most requests coalesced into one dispatch round.
    max_wait_us:
        cap on how long a round keeps collecting while requests keep
        arriving (never slept); ``0`` takes only what is already queued.
    queue_size:
        pending-request bound — the admission-control knob. Requests
        beyond it are load-shed with a typed ``overloaded`` error.
    host / port:
        TCP bind address for :meth:`start_tcp` (``port=0`` picks a free
        port, readable from :attr:`address` afterwards).
    """

    def __init__(
        self,
        source,
        *,
        index: str = ServingSpec.index,
        cache_size: int = ServingSpec.cache_size,
        max_batch: int = ServerConfig.max_batch,
        max_wait_us: float = ServerConfig.max_wait_us,
        queue_size: int = ServerConfig.queue_size,
        host: str = "127.0.0.1",
        port: int = 0,
        **index_params,
    ):
        config = ServerConfig(max_batch, max_wait_us, queue_size)
        if isinstance(source, SnapshotManager):
            if index_params:
                raise ConfigError(
                    "index_params only apply when the server builds its own "
                    "SnapshotManager; configure the manager directly instead"
                )
            self.snapshots = source
        else:
            self.snapshots = SnapshotManager(
                source, index=index, cache_size=cache_size, **index_params
            )
        self.max_batch = int(config.max_batch)
        self.max_wait = float(config.max_wait_us) / 1e6
        self.queue_size = int(config.queue_size)
        self.host = host
        self.port = int(port)
        self.counters = {
            "received": 0,
            "answered": 0,
            "shed": 0,
            "errors": 0,
            "batches": 0,
            "batched_requests": 0,
            "coalesced_keys": 0,
        }
        self._latency = LatencyHistogram()
        self._queue: asyncio.Queue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._tcp: asyncio.AbstractServer | None = None
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._queue is not None

    @property
    def address(self) -> tuple[str, int] | None:
        """Bound ``(host, port)`` once :meth:`start_tcp` ran; else None."""
        if self._tcp is None or not self._tcp.sockets:
            return None
        name = self._tcp.sockets[0].getsockname()
        return (name[0], name[1])

    async def start(self) -> "QueryServer":
        """Start the dispatcher (in-process serving; no sockets yet)."""
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.queue_size)
            self._started_at = time.perf_counter()
            self._dispatcher = asyncio.create_task(self._dispatch_loop())
        return self

    async def start_tcp(self) -> tuple[str, int]:
        """Bind the TCP listener; returns the bound ``(host, port)``."""
        await self.start()
        if self._tcp is None:
            self._tcp = await asyncio.start_server(self._handle_connection, self.host, self.port)
        return self.address

    async def stop(self) -> None:
        """Close the listener, stop the dispatcher, fail held and queued requests."""
        if self._tcp is not None:
            self._tcp.close()
            await self._tcp.wait_closed()
            self._tcp = None
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._queue is not None:
            queued = [self._queue.get_nowait() for __ in range(self._queue.qsize())]
            self._fail(queued, ServerError("server stopped"))
            self._queue = None

    async def serve_forever(self, *, max_requests: int | None = None) -> dict:
        """Start, bind TCP, and serve until stopped.

        With ``max_requests`` the server exits after answering that many
        requests (the CI-smoke shape); without, it runs until the task
        is cancelled (Ctrl-C at the CLI). Returns the final
        :meth:`stats` snapshot.
        """
        await self.start_tcp()
        try:
            if max_requests is None:
                await asyncio.Event().wait()
            else:
                while self.counters["answered"] < max_requests:
                    await asyncio.sleep(0.005)
        finally:
            await self.stop()
        return self.stats()

    # ------------------------------------------------------------------
    # submission path (shared by TCP handler and in-process clients)
    # ------------------------------------------------------------------
    async def submit(self, request) -> dict:
        """Enqueue one request and await its response dict.

        Admission control happens here: a full queue answers immediately
        with an ``overloaded`` error response instead of blocking.
        """
        if self._queue is None:
            raise ServerError("server is not running; call start() or serve_forever() first")
        self.counters["received"] += 1
        loop = asyncio.get_running_loop()
        item = _Pending(request, loop.create_future(), time.perf_counter())
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.counters["shed"] += 1
            response = self._error_response(
                request,
                OverloadError(
                    f"server overloaded ({self.queue_size} requests pending); retry later"
                ),
            )
            self.counters["answered"] += 1
            self.counters["errors"] += 1
            return response
        return await item.future

    def publish(self, store):
        """Swap in a new embedding version (delegates to the manager)."""
        return self.snapshots.publish(store)

    def upsert(self, keys, vectors) -> dict:
        """Copy-on-write upsert + atomic swap (delegates to the manager)."""
        return self.snapshots.upsert(keys, vectors)

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        queue = self._queue
        loop = asyncio.get_running_loop()
        batch: list = []
        try:
            while True:
                batch = [await queue.get()]
                deadline = loop.time() + self.max_wait
                while len(batch) < self.max_batch:
                    # submitters are tasks of this loop: once a pass brings
                    # none, waiting longer only delays the round
                    if queue.empty() and loop.time() < deadline:
                        await asyncio.sleep(0)
                    if queue.empty():
                        break
                    batch.append(queue.get_nowait())
                try:
                    self._execute(batch)
                except ReproError as err:
                    self._fail(batch, err)
                batch = []
                # submitters the scan held up enqueue before the next round starts
                await asyncio.sleep(0)
        finally:
            self._fail(batch, ServerError("server stopped"))

    def _fail(self, items, err: ReproError) -> None:
        for item in items:
            if not item.future.done():
                self._finish(item, self._error_response(item.request, err))

    def _execute(self, batch: list) -> None:
        """Answer one dispatch round under a single snapshot lease."""
        self.counters["batches"] += 1
        self.counters["batched_requests"] += len(batch)
        with self.snapshots.lease() as snap:
            groups: dict[int, list] = {}
            for item in batch:
                try:
                    op, payload = self._validate(item.request)
                except ProtocolError as err:
                    self._finish(item, self._error_response(item.request, err))
                    continue
                if op == "most_similar":
                    groups.setdefault(payload["topn"], []).append((item, payload))
                    continue
                try:
                    result = self._apply(snap, op, payload)
                except ServingError as err:
                    self._finish(item, self._error_response(item.request, err))
                else:
                    self._finish(item, self._ok_response(item.request, result, snap.version))
            for topn, entries in groups.items():
                self._run_group(snap, topn, entries)

    def _run_group(self, snap, topn: int, entries: list) -> None:
        """One coalesced ``most_similar_batch`` pass for same-``topn`` requests."""
        valid: list = []
        all_keys: list = []
        for item, payload in entries:
            keys = payload["keys"]
            present = snap.store.has_keys(keys)
            if not present.all():
                missing = keys[int(np.flatnonzero(~present)[0])]
                self._finish(
                    item,
                    self._error_response(
                        item.request, ServingError(f"key {int(missing)} is not in the store")
                    ),
                )
                continue
            valid.append((item, keys.size))
            all_keys.append(keys)
        if not valid:
            return
        flat = np.concatenate(all_keys)
        self.counters["coalesced_keys"] += int(flat.size)
        try:
            rows = snap.service.most_similar_batch(flat, topn=topn)
        except ServingError as err:
            for item, __ in valid:
                self._finish(item, self._error_response(item.request, err))
            return
        offset = 0
        for item, size in valid:
            chunk = rows[offset : offset + size]
            offset += size
            self._finish(item, self._ok_response(item.request, chunk, snap.version))

    def _apply(self, snap, op: str, payload: dict):
        if op == "similarity":
            sims = snap.service.similarity_batch(payload["a"], payload["b"])
            return [float(s) for s in sims]
        if op == "stats":
            return self.stats()
        return "pong"  # op == "ping"

    # ------------------------------------------------------------------
    # validation / responses
    # ------------------------------------------------------------------
    def _validate(self, request) -> tuple[str, dict]:
        if not isinstance(request, dict):
            raise ProtocolError(f"request must be an object, got {type(request).__name__}")
        op = request.get("op")
        if op not in _OPS:
            raise ProtocolError(f"unknown op {op!r}; supported: {', '.join(_OPS)}")
        if op == "most_similar":
            keys = self._int_array(request.get("keys"), "keys")
            if keys.size > MAX_KEYS_PER_REQUEST:
                raise ProtocolError(
                    f"request carries {keys.size} keys; the per-request "
                    f"ceiling is {MAX_KEYS_PER_REQUEST} (split the batch)"
                )
            topn = request.get("topn", 10)
            if not isinstance(topn, int) or isinstance(topn, bool) or topn < 1:
                raise ProtocolError(f"topn must be a positive integer, got {topn!r}")
            return op, {"keys": keys, "topn": topn}
        if op == "similarity":
            a = self._int_array(request.get("a"), "a")
            b = self._int_array(request.get("b"), "b")
            if a.size != b.size:
                raise ProtocolError(f"similarity needs aligned arrays, got {a.size} vs {b.size}")
            return op, {"a": a, "b": b}
        return op, {}

    @staticmethod
    def _int_array(value, field: str) -> np.ndarray:
        if _is_node_id(value):
            value = [value]
        if not isinstance(value, (list, tuple, np.ndarray)) or len(value) == 0:
            raise ProtocolError(f"{field!r} must be a non-empty array of node ids")
        array = isinstance(value, np.ndarray)
        if not (value.dtype.kind in "iu" if array else all(map(_is_node_id, value))):
            raise ProtocolError(f"{field!r} must contain only integers")
        keys = np.asarray(value, dtype=np.int64)
        if keys.ndim != 1:
            raise ProtocolError(f"{field!r} must be one-dimensional")
        return keys

    @staticmethod
    def _ok_response(request, result, version: int) -> dict:
        response = {"ok": True, "result": result, "version": version}
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        return response

    def _error_response(self, request, err: Exception) -> dict:
        response = {
            "ok": False,
            "error": {
                "code": getattr(err, "code", "serving"),
                "type": type(err).__name__,
                "message": str(err),
            },
        }
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        return response

    def _finish(self, item: _Pending, response: dict) -> None:
        self._latency.record(time.perf_counter() - item.arrived)
        self.counters["answered"] += 1
        if not response.get("ok"):
            self.counters["errors"] += 1
        if not item.future.done():
            item.future.set_result(response)

    # ------------------------------------------------------------------
    # TCP
    # ------------------------------------------------------------------
    def _encode_reply(self, request, response: dict) -> bytes:
        """The reply frame; a reply over the frame ceiling (a valid
        ``most_similar`` with many keys and a huge ``topn``) goes out as
        a typed ``bad-request`` error and the connection stays usable."""
        try:
            return encode_frame(response)
        except ProtocolError as err:
            self.counters["errors"] += 1
            too_big = ProtocolError(f"reply {err}; lower topn or split the keys")
            return encode_frame(self._error_response(request, too_big))

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    body = await read_frame(reader)
                except FrameError as err:
                    writer.write(encode_frame(self._error_response(None, ProtocolError(str(err)))))
                    await writer.drain()
                    break  # framing is unrecoverable past a bogus length
                try:
                    request = decode_request(body)
                except ProtocolError as err:
                    request = None
                    response = self._error_response(None, err)
                    self.counters["received"] += 1
                    self.counters["answered"] += 1
                    self.counters["errors"] += 1
                else:
                    response = await self.submit(request)
                writer.write(self._encode_reply(request, response))
                await writer.drain()
        except (asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-frame; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """QPS / latency percentiles / batching and admission counters."""
        c = dict(self.counters)
        elapsed = (
            time.perf_counter() - self._started_at if self._started_at is not None else 0.0
        )
        c["uptime_s"] = elapsed
        c["qps"] = (c["answered"] / elapsed) if elapsed > 0 else 0.0
        c["p50_ms"] = 1000.0 * self._latency.quantile(0.50)
        c["p99_ms"] = 1000.0 * self._latency.quantile(0.99)
        c["mean_ms"] = 1000.0 * self._latency.mean
        c["mean_batch"] = (c["batched_requests"] / c["batches"]) if c["batches"] else 0.0
        c["queue_depth"] = self._queue.qsize() if self._queue is not None else 0
        c["max_batch"] = self.max_batch
        c["max_wait_us"] = self.max_wait * 1e6
        c["queue_size"] = self.queue_size
        c["snapshot"] = self.snapshots.stats()
        c["store_count"] = len(self.snapshots.current.store)
        c["index"] = self.snapshots.current.service.index_name
        return c

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return (
            f"QueryServer({state}, version={self.snapshots.version}, "
            f"max_batch={self.max_batch}, queue_size={self.queue_size})"
        )


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------
class _ClientOps:
    """Typed request helpers shared by the TCP and in-process clients."""

    async def request(self, payload: dict) -> dict:
        raise NotImplementedError

    @staticmethod
    def _unwrap(response: dict):
        if response.get("ok"):
            return response.get("result")
        err = response.get("error") or {}
        cls = {
            "overloaded": OverloadError,
            "bad-request": ProtocolError,
            "server": ServerError,
        }.get(err.get("code"), ServingError)
        raise cls(err.get("message", "server error"))

    async def most_similar(self, keys, topn: int = 10) -> list[list[tuple[int, float]]]:
        """Top-``topn`` neighbours per key — the batched read op."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        response = await self.request(
            {"op": "most_similar", "keys": [int(k) for k in keys], "topn": int(topn)}
        )
        result = self._unwrap(response)
        return [[(int(k), float(s)) for k, s in row] for row in result]

    async def similarity(self, a, b) -> list[float]:
        """Pairwise cosine similarity of aligned key arrays."""
        a = np.atleast_1d(np.asarray(a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(b, dtype=np.int64))
        response = await self.request(
            {"op": "similarity", "a": [int(k) for k in a], "b": [int(k) for k in b]}
        )
        return [float(s) for s in self._unwrap(response)]

    async def stats(self) -> dict:
        return self._unwrap(await self.request({"op": "stats"}))

    async def ping(self) -> str:
        return self._unwrap(await self.request({"op": "ping"}))


class InProcessClient(_ClientOps):
    """Drives a :class:`QueryServer` through ``submit`` — no sockets.

    Same admission control, batching and error taxonomy as the TCP
    path, minus serialization; the harness for tests and benchmarks
    simulating thousands of concurrent clients in one process.
    """

    def __init__(self, server: QueryServer):
        self._server = server

    async def request(self, payload: dict) -> dict:
        return await self._server.submit(payload)


class QueryClient(_ClientOps):
    """TCP client for the length-prefixed JSON protocol."""

    def __init__(self, reader, writer):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "QueryClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, payload: dict) -> dict:
        self._writer.write(encode_frame(payload))
        await self._writer.drain()
        try:
            body = await read_frame(self._reader)
        except FrameError as err:
            raise ProtocolError(f"reply {err}") from None
        return json.loads(body.decode("utf-8"))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass


__all__ = [
    "QueryServer",
    "QueryClient",
    "InProcessClient",
    "LatencyHistogram",
    "encode_frame",
    "decode_request",
    "MAX_FRAME_BYTES",
    "MAX_KEYS_PER_REQUEST",
]
