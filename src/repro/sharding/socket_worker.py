"""The shard worker process the socket transport spawns.

One process, one listening socket, one shard, one session. The worker
is started *empty* — it knows nothing about the graph until the driver
connects and sends the ``SETUP`` bootstrap (shard arrays + local
subgraph + sampler config), after which it is an ordinary
:class:`~repro.sharding.worker.ShardWorker` driven by binary op frames
instead of in-process method calls.

Because workers are RNG-free by design (the driver draws every uniform
and ships slices — see :mod:`repro.sharding.engine`), a socket worker
computes bit-for-bit what an inline worker computes; the wire changes
latency, never results.

Session shape, mirroring the driver-side :class:`~repro.sharding.
transport.SocketTransport`:

* first frame must be ``SETUP`` (anything else is a protocol violation
  and ends the session);
* ``CALL`` frames dispatch ops on the worker; op failures answer with
  a typed ``ERROR`` frame and the session continues — the driver
  decides whether the run is salvageable;
* ``PING`` answers ``PONG`` (the transport's liveness probe);
* ``CLOSE`` answers ``BYE`` and ends the session (graceful drain);
* EOF or a framing violation ends the session without reply — the
  driver observes a short read and raises its typed error.
"""

from __future__ import annotations

import os
import socket

from repro.errors import FrameError, ReproError
from repro.serving.framing import recv_frame, send_frame
from repro.sharding import wire
from repro.sharding.worker import ShardWorker


def _serve_session(conn) -> None:
    """Run one driver session on an accepted connection until drain/EOF."""
    worker = None
    try:
        while True:
            payload = recv_frame(conn)
            if payload is None:
                return  # driver went away between frames
            kind, body = wire.decode_message(payload)
            if kind == wire.KIND_SETUP:
                shard, num_shards, owner, setup = body
                worker = ShardWorker(shard, num_shards, owner, **setup)
                send_frame(conn, wire.encode_result(True))
                continue
            if kind == wire.KIND_PING:
                send_frame(conn, wire.encode_simple(wire.KIND_PONG))
                continue
            if kind == wire.KIND_CLOSE:
                send_frame(conn, wire.encode_simple(wire.KIND_BYE))
                return
            if kind != wire.KIND_CALL or worker is None:
                # out-of-order or unknown traffic: the session is not
                # recoverable, and an un-SETUP worker has no ops to run
                return
            op, args = body
            try:
                result = getattr(worker, op)(*args)
            except (ReproError, AttributeError, TypeError, ValueError, KeyError, IndexError) as err:
                reply = wire.encode_error(type(err).__name__, str(err))
            else:
                reply = wire.encode_result(result)
            send_frame(conn, reply)
    except (FrameError, OSError):
        return  # driver died mid-frame; nothing left to answer
    finally:
        if worker is not None:
            worker.close()
        try:
            conn.close()
        except OSError:
            pass


def _loopback_worker_main(ready_conn) -> None:
    """Child-process entry of a worker the socket transport spawns.

    Binds an ephemeral loopback port, reports the address through the
    pipe, serves the one session of the driver that connects, and exits
    hard — a worker has no business outliving its driver session, and
    ``os._exit`` avoids re-running the parent's atexit machinery in the
    fork.
    """
    try:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            ready_conn.send(listener.getsockname()[:2])
            ready_conn.close()
            conn, __peer = listener.accept()
        finally:
            listener.close()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _serve_session(conn)
    finally:
        os._exit(0)
