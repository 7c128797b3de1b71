"""Binary message codec for the socket shard transport.

The op protocol the sharded engine speaks (:mod:`repro.sharding.worker`)
moves NumPy arrays almost exclusively: uniform slices out, chosen edge
offsets and typed migration batches back. Pickling those per step would
put an object graph and a copy on the hot path, so this codec writes
**array headers + raw bytes** instead: each value is a 1-byte tag
followed by a fixed layout, and arrays are ``dtype.str`` (which pins
byte order, so a little-endian driver and a big-endian worker still
agree) + shape + their C-contiguous buffer. Decoding wraps the received
``bytearray`` zero-copy with :func:`numpy.frombuffer` — the payload
allocation *is* the array allocation.

The value grammar is exactly what the op protocol needs, nothing more:

==========  =============================================================
tag         value
==========  =============================================================
``NONE``    ``None`` (optional uniforms: an uncapped init block)
``TRUE``/
``FALSE``   booleans (the ``SETUP`` acknowledgement)
``INT``     signed 64-bit (steps, counters; NumPy integers fold in)
``FLOAT``   IEEE double (bounds; NumPy floats fold in)
``STR``     UTF-8 with 32-bit length (op names, error payloads)
``ARRAY``   dtype.str + shape + raw C-order bytes
``TUPLE``   32-bit count + values (lists decode as tuples)
``DICT``    32-bit count + alternating key/value values (migration
            batches: destination shard -> walker ids, current nodes)
==========  =============================================================

On top of the values, one message envelope per frame: a 1-byte kind.
``CALL`` carries ``op`` + argument tuple, ``RESULT`` one value,
``ERROR`` the remote exception's type name + message, ``PING``/``PONG``
are the liveness probes, ``CLOSE``/``BYE`` the graceful-drain
handshake. ``SETUP`` is the one deliberate exception to the no-pickle
rule: it ships the shard's local graph and sampler config exactly once
at connect time, where generality beats speed.

Malformed bytes raise :class:`~repro.errors.FrameError` (the shared
framing taxonomy); unencodable values raise
:class:`~repro.errors.ShardError` at the sender, where the bug is.
"""

from __future__ import annotations

import pickle
import struct

import numpy as np

from repro.errors import FrameError, ShardError

# -- message kinds ----------------------------------------------------------
KIND_SETUP = 1
KIND_CALL = 2
KIND_RESULT = 3
KIND_ERROR = 4
KIND_PING = 5
KIND_PONG = 6
KIND_CLOSE = 7
KIND_BYE = 8

_KINDS = frozenset({
    KIND_SETUP, KIND_CALL, KIND_RESULT, KIND_ERROR,
    KIND_PING, KIND_PONG, KIND_CLOSE, KIND_BYE,
})

# -- value tags -------------------------------------------------------------
_T_NONE = 0
_T_TRUE = 1
_T_FALSE = 2
_T_INT = 3
_T_FLOAT = 4
_T_STR = 5
_T_ARRAY = 6
_T_TUPLE = 7
_T_DICT = 8

_U8 = struct.Struct("!B")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")


def _encode_value(value, out: list) -> None:
    if value is None:
        out.append(_U8.pack(_T_NONE))
    elif isinstance(value, (bool, np.bool_)):
        out.append(_U8.pack(_T_TRUE if value else _T_FALSE))
    elif isinstance(value, (int, np.integer)):
        out.append(_U8.pack(_T_INT))
        out.append(_I64.pack(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_U8.pack(_T_FLOAT))
        out.append(_F64.pack(float(value)))
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out.append(_U8.pack(_T_STR))
        out.append(_U32.pack(len(body)))
        out.append(body)
    elif isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise ShardError("object-dtype arrays cannot cross the shard wire")
        arr = np.ascontiguousarray(value)
        dt = arr.dtype.str.encode("ascii")
        out.append(_U8.pack(_T_ARRAY))
        out.append(_U8.pack(len(dt)))
        out.append(dt)
        out.append(_U8.pack(arr.ndim))
        for dim in arr.shape:
            out.append(_U64.pack(dim))
        out.append(arr.tobytes())
    elif isinstance(value, (tuple, list)):
        out.append(_U8.pack(_T_TUPLE))
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_U8.pack(_T_DICT))
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_value(key, out)
            _encode_value(item, out)
    else:
        raise ShardError(
            f"value of type {type(value).__name__} cannot cross the shard "
            "wire; the op protocol moves arrays, scalars, tuples and dicts"
        )


class _Reader:
    """Cursor over one frame payload with bounds-checked primitives."""

    __slots__ = ("view", "pos")

    def __init__(self, payload):
        self.view = memoryview(payload)
        self.pos = 0

    def take(self, count: int) -> memoryview:
        end = self.pos + count
        if end > len(self.view):
            raise FrameError(
                f"truncated shard frame: wanted {count} bytes at offset "
                f"{self.pos}, payload is {len(self.view)} bytes"
            )
        chunk = self.view[self.pos : end]
        self.pos = end
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def done(self) -> bool:
        return self.pos == len(self.view)


def _decode_value(reader: _Reader):
    tag = reader.u8()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _I64.unpack(reader.take(8))[0]
    if tag == _T_FLOAT:
        return _F64.unpack(reader.take(8))[0]
    if tag == _T_STR:
        return str(reader.take(reader.u32()), "utf-8")
    if tag == _T_ARRAY:
        try:
            dtype = np.dtype(str(reader.take(reader.u8()), "ascii"))
        except (TypeError, ValueError) as err:
            raise FrameError(f"unknown dtype on the shard wire: {err}") from None
        shape = tuple(reader.u64() for __ in range(reader.u8()))
        count = 1
        for dim in shape:
            count *= dim
        body = reader.take(count * dtype.itemsize)
        return np.frombuffer(body, dtype=dtype).reshape(shape)
    if tag == _T_TUPLE:
        return tuple(_decode_value(reader) for __ in range(reader.u32()))
    if tag == _T_DICT:
        out = {}
        for __ in range(reader.u32()):
            key = _decode_value(reader)
            out[key] = _decode_value(reader)
        return out
    raise FrameError(f"unknown value tag {tag} on the shard wire")


# -- message envelopes ------------------------------------------------------
def encode_call(op: str, args) -> bytes:
    """One op request: ``CALL`` + op name + argument tuple."""
    out = [_U8.pack(KIND_CALL)]
    _encode_value(op, out)
    _encode_value(tuple(args), out)
    return b"".join(out)


def encode_result(value) -> bytes:
    """One op reply carrying the return value."""
    out = [_U8.pack(KIND_RESULT)]
    _encode_value(value, out)
    return b"".join(out)


def encode_error(exc_type: str, message: str) -> bytes:
    """One op reply carrying a remote exception, typed by name."""
    out = [_U8.pack(KIND_ERROR)]
    _encode_value(exc_type, out)
    _encode_value(message, out)
    return b"".join(out)


def encode_setup(payload) -> bytes:
    """The connect-time shard bootstrap (the one pickled message)."""
    return _U8.pack(KIND_SETUP) + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def encode_simple(kind: int) -> bytes:
    """A bare control message (``PING`` / ``PONG`` / ``CLOSE`` / ``BYE``)."""
    return _U8.pack(kind)


def decode_message(payload):
    """Parse one frame payload into ``(kind, body)``.

    ``body`` is ``(op, args)`` for ``CALL``, the value for ``RESULT``,
    ``(type_name, message)`` for ``ERROR``, the unpickled bootstrap for
    ``SETUP`` and ``None`` for the control kinds. Trailing bytes mean a
    corrupt frame and raise :class:`~repro.errors.FrameError`.
    """
    reader = _Reader(payload)
    kind = reader.u8()
    if kind not in _KINDS:
        raise FrameError(f"unknown shard message kind {kind}")
    if kind == KIND_SETUP:
        try:
            return kind, pickle.loads(reader.view[reader.pos :])
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as err:
            raise FrameError(f"undecodable shard setup payload: {err}") from None
    if kind == KIND_CALL:
        op = _decode_value(reader)
        args = _decode_value(reader)
        if not isinstance(op, str) or not isinstance(args, tuple):
            raise FrameError("malformed CALL frame: expected op name + args tuple")
        body = (op, args)
    elif kind == KIND_RESULT:
        body = _decode_value(reader)
    elif kind == KIND_ERROR:
        exc_type = _decode_value(reader)
        message = _decode_value(reader)
        if not isinstance(exc_type, str) or not isinstance(message, str):
            raise FrameError("malformed ERROR frame: expected two strings")
        body = (exc_type, message)
    else:
        body = None
    if not reader.done():
        raise FrameError(
            f"{len(reader.view) - reader.pos} trailing bytes after a "
            "complete shard message"
        )
    return kind, body


__all__ = [
    "KIND_SETUP",
    "KIND_CALL",
    "KIND_RESULT",
    "KIND_ERROR",
    "KIND_PING",
    "KIND_PONG",
    "KIND_CLOSE",
    "KIND_BYE",
    "encode_call",
    "encode_result",
    "encode_error",
    "encode_setup",
    "encode_simple",
    "decode_message",
]
