"""Length-prefixed frame discipline shared by the network tiers.

One wire rule, two consumers: every frame is a 4-byte big-endian
unsigned length followed by exactly that many payload bytes. The
asyncio query server (:mod:`repro.serving.server`) applies it to JSON
payloads; the sharded walk transport (:mod:`repro.sharding.transport`)
applies it to binary migration batches (:mod:`repro.sharding.wire`).
This module holds the single frame header definition, the
blocking-socket helpers the synchronous shard transport needs —
``sendall``/``recv_into`` loops that either deliver a whole frame or
raise a typed :class:`~repro.errors.FrameError`, never a torn one — and
:func:`read_frame`, the one asyncio reader both ends of the query
protocol use.

Both sides bound the payload size *before* allocating: a corrupt or
hostile length prefix answers with an error instead of an attempted
multi-gigabyte allocation.
"""

from __future__ import annotations

import struct

from repro.errors import FrameError

#: frame header: one unsigned 32-bit big-endian payload length.
FRAME = struct.Struct("!I")

#: default payload ceiling for the JSON protocol (the query server).
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: payload ceiling for binary shard frames — migration batches carry one
#: uniform per edge entry of the active rows, so they dwarf JSON frames.
MAX_BINARY_FRAME_BYTES = 1 << 30


def send_frame(sock, payload, *, max_bytes: int = MAX_BINARY_FRAME_BYTES) -> int:
    """Write one frame (header + payload) to a blocking socket.

    Returns the total bytes put on the wire (header included) so
    callers can account transport budgets. Oversized payloads raise
    :class:`~repro.errors.FrameError` before anything is sent — a
    half-written frame would desynchronise the connection for good.
    """
    length = len(payload)
    if length > max_bytes:
        raise FrameError(
            f"refusing to send a {length}-byte frame (ceiling {max_bytes})"
        )
    header = FRAME.pack(length)
    if length < 65536:
        # small frames coalesce into one segment (matters under TCP_NODELAY)
        sock.sendall(header + bytes(payload))
    else:
        sock.sendall(header)
        sock.sendall(payload)
    return FRAME.size + length


def recv_exactly(sock, count: int) -> bytearray:
    """Read exactly ``count`` bytes; a peer closing mid-read is typed.

    Returns a ``bytearray`` so zero-copy ``np.frombuffer`` views over
    the payload are writable (decoded arrays behave like locally
    allocated ones).
    """
    buf = bytearray(count)
    view = memoryview(buf)
    got = 0
    while got < count:
        received = sock.recv_into(view[got:], count - got)
        if received == 0:
            raise FrameError(
                f"connection closed mid-frame ({got}/{count} payload bytes)"
            )
        got += received
    return buf


def recv_frame(sock, *, max_bytes: int = MAX_BINARY_FRAME_BYTES) -> bytearray | None:
    """Read one whole frame payload; ``None`` on clean EOF.

    Clean EOF means the peer closed *between* frames — the normal end
    of a session. EOF inside a header or payload is a short read and
    raises :class:`~repro.errors.FrameError`; so does a length prefix
    above ``max_bytes``.
    """
    head = sock.recv(FRAME.size)
    if head == b"":
        return None
    while len(head) < FRAME.size:
        more = sock.recv(FRAME.size - len(head))
        if more == b"":
            raise FrameError(
                f"connection closed mid-header ({len(head)}/{FRAME.size} bytes)"
            )
        head += more
    (length,) = FRAME.unpack(head)
    if length > max_bytes:
        raise FrameError(f"frame of {length} bytes exceeds ceiling {max_bytes}")
    return recv_exactly(sock, length)


async def read_frame(reader, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Read one whole frame payload from an asyncio ``StreamReader``.

    Header, ceiling, body — the length prefix is checked against
    ``max_bytes`` *before* the body is read, so a peer announcing more
    raises :class:`~repro.errors.FrameError` and nothing is allocated
    for it. A peer closing, between frames or inside one, raises
    :class:`asyncio.IncompleteReadError` (``readexactly``'s own).
    """
    (length,) = FRAME.unpack(await reader.readexactly(FRAME.size))
    if length > max_bytes:
        raise FrameError(f"frame of {length} bytes exceeds ceiling {max_bytes}")
    return await reader.readexactly(length)


__all__ = [
    "FRAME",
    "MAX_FRAME_BYTES",
    "MAX_BINARY_FRAME_BYTES",
    "send_frame",
    "recv_exactly",
    "recv_frame",
    "read_frame",
]
