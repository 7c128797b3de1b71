"""On-disk, memory-mapped embedding store — the servable artifact.

Training produces a :class:`~repro.embedding.keyed_vectors.KeyedVectors`
blob that must be fully decompressed and copied into memory before the
first query. For serving, that is the wrong trade: a worker process wants
an O(1) open, demand-paged reads, and a file that many workers can share
through the page cache. :class:`EmbeddingStore` is that artifact — a
single flat file laid out for ``np.memmap``:

====================  =======================================
offset 0              8-byte magic ``UNINETES`` + version/dim/count/meta header
64                    ``keys``     int64  ``(count,)``
64-aligned            ``codec``    serialized codec state (``meta_len`` bytes)
64-aligned            ``codes``    codec-typed ``(count, code_width)``
64-aligned            ``norms``    float32 ``(count,)`` (precomputed L2)
====================  =======================================

Since format version 2 the matrix section holds whatever the store's
*codec* (:mod:`repro.serving.codec`) produces: float32 rows for the
identity :class:`~repro.serving.codec.Float32Codec` (exactly the v1
bytes), 8-bit levels for :class:`~repro.serving.codec.Int8Codec`, or
``m`` uint8 centroid ids per row for
:class:`~repro.serving.codec.PQCodec` — shrinking the dominant section
from ``4·d`` to ``m`` bytes per vector. The codec's trained state
(scales, codebooks) is serialized into its own header section so a store
file stays self-describing; version-1 files (no codec section) still
open as float32.

Norms are always the L2 norms of the *original* float vectors, computed
at encode time — cosine scoring divides approximate ADC dot products by
exact norms, and a quantized store could not recompute them.

A store opened with :meth:`EmbeddingStore.open` touches only the header
and codec state eagerly; keys, codes and norms are memory-mapped and
paged in on first access, so opening a multi-gigabyte store is O(1) and
concurrent workers share one physical copy. The same class also wraps
plain in-memory arrays (:meth:`from_keyed_vectors`), so every index and
service works identically on both.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from repro.errors import SerializationError, ServingError
from repro.serving.codec import Float32Codec, resolve_codec

_MAGIC = b"UNINETES"
_VERSION = 2
_HEADER_BYTES = 64
_ALIGN = 64
# header: magic, version (u32), dim (u32), count (u64), meta_len (u64 —
# byte length of the serialized-codec section, added in v2). v1 headers
# stopped after count with zero padding, so unpacking them under this
# struct reads meta_len == 0, which is exactly the float32 interpretation
# open() applies to version-1 files.
_HEADER_V2 = struct.Struct("<8sIIQQ")


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _is_typed_mmap(arr, dtype) -> bool:
    return isinstance(arr, np.memmap) and arr.dtype == dtype


def _layout_v1(count: int, dim: int) -> tuple[int, int, int, int]:
    """v1 section offsets ``(keys, vectors, norms, file_end)`` in bytes."""
    keys_off = _HEADER_BYTES
    vec_off = _aligned(keys_off + 8 * count)
    norm_off = _aligned(vec_off + 4 * count * dim)
    return keys_off, vec_off, norm_off, norm_off + 4 * count


def _layout_v2(count: int, meta_len: int, code_itemsize: int, code_width: int):
    """v2 section offsets ``(keys, meta, codes, norms, file_end)``."""
    keys_off = _HEADER_BYTES
    meta_off = _aligned(keys_off + 8 * count)
    codes_off = _aligned(meta_off + meta_len)
    norm_off = _aligned(codes_off + code_itemsize * code_width * count)
    return keys_off, meta_off, codes_off, norm_off, norm_off + 4 * count


def _pack_codec(codec) -> bytes:
    """Serialize a trained codec: JSON manifest + raw array bytes.

    Deliberately hand-rolled (not ``np.savez``) so identical codecs
    always serialize to identical bytes — store files round-trip
    bitwise through save/open/save.
    """
    arrays = {key: np.ascontiguousarray(value) for key, value in codec.state().items()}
    manifest = {
        "codec": codec.name,
        "arrays": [[key, a.dtype.str, list(a.shape)] for key, a in arrays.items()],
    }
    head = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return struct.pack("<I", len(head)) + head + b"".join(a.tobytes() for a in arrays.values())


def _unpack_codec(blob: bytes):
    """Rebuild the trained codec serialized by :func:`_pack_codec`."""
    from repro.serving.codec import CODEC_REGISTRY

    try:
        (head_len,) = struct.unpack_from("<I", blob)
        manifest = json.loads(blob[4 : 4 + head_len].decode("utf-8"))
        if not isinstance(manifest, dict):
            raise SerializationError(f"manifest must be an object, got {type(manifest).__name__}")
        name = manifest["codec"]
        state = {}
        offset = 4 + head_len
        for key, dtype_str, shape in manifest["arrays"]:
            dtype = np.dtype(dtype_str)
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            array = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
            state[key] = array.reshape(shape).copy()
            offset += array.nbytes
    except (struct.error, TypeError, ValueError, KeyError, json.JSONDecodeError) as err:
        raise SerializationError(f"corrupt codec section in embedding store: {err}") from None
    return CODEC_REGISTRY.get(name).from_state(state)


class EmbeddingStore:
    """Keys + codec-encoded matrix + precomputed norms, servable as one unit.

    Parameters
    ----------
    keys:
        int64 node ids aligned with the matrix rows (plain array or
        memmap).
    vectors:
        float32 matrix ``(len(keys), dim)`` to hold (and encode, when a
        non-identity ``codec`` is given). Mutually exclusive with
        ``codes``.
    norms:
        float32 per-row L2 norms of the *original* vectors; computed
        when omitted (from ``vectors``, or by decoding ``codes``).
    codec:
        a :class:`~repro.serving.codec.Codec` instance or registry name
        (default ``"float32"``). An untrained codec is fitted on
        ``vectors``.
    codes:
        pre-encoded matrix ``(len(keys), codec.code_width)`` — the
        open-from-file path; requires a trained ``codec``.
    path:
        the backing file when the store is memory-mapped (``None`` for
        in-memory stores).
    """

    def __init__(self, keys, vectors=None, norms=None, *, codec=None, codes=None, path=None):
        # np.asarray would strip the np.memmap subclass; keep it so the
        # backing of an opened store stays observable
        self.keys = keys if _is_typed_mmap(keys, np.int64) else np.asarray(keys, dtype=np.int64)
        if (vectors is None) == (codes is None):
            raise ServingError("EmbeddingStore needs exactly one of vectors= or codes=")
        if codes is not None:
            self.codec = resolve_codec(codec)
            if not self.codec.trained:
                raise ServingError("codes= needs a trained codec")
            self.codes = codes
        else:
            if not (
                _is_typed_mmap(vectors, np.float32)
                or (isinstance(vectors, np.ndarray) and vectors.dtype == np.float32)
            ):
                vectors = np.asarray(vectors, dtype=np.float32)
            if vectors.ndim != 2 or vectors.shape[0] != self.keys.size:
                raise ServingError("vectors must be a matrix aligned with keys")
            self.codec = resolve_codec(codec)
            if not self.codec.trained:
                self.codec.fit(vectors)
            if norms is None:
                norms = np.linalg.norm(vectors, axis=1)
            self.codes = self.codec.encode(vectors)
        if self.codes.ndim != 2 or self.codes.shape != (self.keys.size, self.codec.code_width):
            raise ServingError(
                f"codes must be ({self.keys.size}, {self.codec.code_width}), "
                f"got {self.codes.shape}"
            )
        if norms is None:
            norms = np.linalg.norm(self.decode_all(), axis=1)
        self.norms = norms if _is_typed_mmap(norms, np.float32) else np.asarray(norms, dtype=np.float32)
        if self.norms.shape != (self.keys.size,):
            raise ServingError("norms must have one entry per key")
        self.path = None if path is None else Path(path)
        self._row_of: np.ndarray | None = None
        self._unit: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """Embedding dimensionality (of the decoded vectors)."""
        return int(self.codec.dim)

    @property
    def is_quantized(self) -> bool:
        """True when the matrix section holds compressed codes."""
        return not self.codec.is_identity

    @property
    def vectors(self):
        """The float32 matrix — only on unquantized stores.

        A quantized store never materialises its decoded matrix
        implicitly; use :meth:`decode_rows` / :meth:`decode_all` (or
        score through the codec's ADC path like the built-in indexes).
        """
        if not self.is_quantized:
            return self.codes
        raise ServingError(
            f"store is quantized (codec {self.codec.name!r}) and holds no "
            "float32 matrix; use decode_rows()/decode_all() or score via "
            "codec.make_adc()"
        )

    def __len__(self) -> int:
        return self.keys.size

    def __contains__(self, key: int) -> bool:
        table = self._lookup()
        return 0 <= key < table.size and table[key] >= 0

    @property
    def nbytes(self) -> int:
        """Bytes of the three data sections (excluding header + codec state)."""
        return self.keys.nbytes + self.codes.nbytes + self.norms.nbytes

    # ------------------------------------------------------------------
    def _lookup(self) -> np.ndarray:
        # built lazily so open() stays O(1); the table is the only part of
        # the store that is not a view of the file
        if self._row_of is None:
            table = np.full(int(self.keys.max(initial=-1)) + 1, -1, dtype=np.int64)
            table[self.keys] = np.arange(self.keys.size)
            self._row_of = table
        return self._row_of

    def _rows_or_missing(self, keys: np.ndarray) -> np.ndarray:
        """Row of each key, ``-1`` where the key is not in the store."""
        table = self._lookup()
        if table.size == 0:
            return np.full(keys.shape, -1, dtype=np.int64)
        safe = np.clip(keys, 0, table.size - 1)
        return np.where(keys == safe, table[safe], -1)

    def rows_for(self, keys) -> np.ndarray:
        """Store rows of ``keys`` (vectorized); unknown ids raise."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        rows = self._rows_or_missing(keys)
        if np.any(rows < 0):
            bad = int(keys[np.flatnonzero(rows < 0)[0]])
            raise ServingError(f"key {bad} is not in the store")
        return rows

    def has_keys(self, keys) -> np.ndarray:
        """Boolean membership mask for an array of node ids (vectorized).

        The non-raising sibling of :meth:`rows_for` — lets a server
        validate a request up front and fail *that request* instead of
        the whole coalesced batch.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        return self._rows_or_missing(keys) >= 0

    def vector(self, key: int) -> np.ndarray:
        """Embedding of one node id (decoded on quantized stores)."""
        return self.decode_rows(self.rows_for(key))[0]

    def decode_rows(self, rows) -> np.ndarray:
        """Float32 vectors of the given store rows.

        On an unquantized store this is a plain (copying) row gather; on
        a quantized one the codec reconstructs the rows — O(len(rows))
        work and memory, never the whole matrix.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not self.is_quantized:
            return np.asarray(self.codes[rows], dtype=np.float32)
        return self.codec.decode(np.asarray(self.codes[rows]))

    def decode_all(self) -> np.ndarray:
        """The full decoded float32 matrix — materialises ``count x dim``."""
        if not self.is_quantized:
            return np.asarray(self.codes, dtype=np.float32)
        return self.codec.decode(np.asarray(self.codes))

    def unit_vectors(self) -> np.ndarray:
        """L2-normalised copy of the decoded matrix (float32), cached.

        This materialises ``count x dim`` floats in memory — the working
        set an exact float32 index needs anyway. Code that must stay at
        the compressed footprint (quantized brute force, IVF) scores
        through :meth:`~repro.serving.codec.Codec.make_adc` against
        :attr:`codes` / :attr:`norms` instead.
        """
        if self._unit is None:
            norms = np.maximum(self.norms, np.float32(1e-12))
            self._unit = np.ascontiguousarray(self.decode_all() / norms[:, None])
        return self._unit

    # ------------------------------------------------------------------
    # mutation (the dynamic-graph write path)
    # ------------------------------------------------------------------
    def upsert(self, keys, vectors) -> dict:
        """Write/replace embeddings in place; append rows for new keys.

        The read path of a live graph: after an incremental re-embedding
        the refreshed vectors land here without rewriting the whole
        store. Known keys have their rows (and norms) overwritten; new
        keys append. On a *quantized* store the new vectors are
        re-encoded through the trained codec (codebooks and scales are
        not re-trained, so values far outside the trained range clip) —
        norms always come from the raw vectors. Memory-mapped
        *read-only* stores refuse — reopen with
        ``EmbeddingStore.open(path, mmap=False)``, upsert, then
        :meth:`save` (appending cannot grow a fixed-size mapping).

        Returns ``{"updated": ..., "inserted": ...}``. Indexes built
        over this store are stale afterwards: serve it through a new
        :class:`~repro.serving.service.QueryService`, or through
        :meth:`SnapshotManager.publish <repro.serving.snapshot.SnapshotManager.publish>`
        (:meth:`SnapshotManager.upsert` does both steps, copy-on-write).
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.shape != (keys.size, self.dimensions):
            raise ServingError(
                f"upsert vectors must be ({keys.size}, {self.dimensions}), "
                f"got {vectors.shape}"
            )
        if keys.size != np.unique(keys).size:
            raise ServingError("upsert keys must be unique")
        # validate every buffer BEFORE the first write: a writeable-codes
        # / read-only-norms store must refuse cleanly, not fail mid-write
        # with codes already mutated (a partially-applied upsert)
        for name, buf in (("keys", self.keys), ("codes", self.codes), ("norms", self.norms)):
            if isinstance(buf, np.ndarray) and not buf.flags.writeable:
                raise ServingError(
                    f"cannot upsert into a read-only memory-mapped store (the "
                    f"{name} buffer is not writeable); reopen with "
                    "EmbeddingStore.open(path, mmap=False), upsert, then save()"
                )
        rows = self._rows_or_missing(keys)
        known = rows >= 0
        norms = np.linalg.norm(vectors, axis=1).astype(np.float32)
        codes = self.codec.encode(vectors)
        if known.any():
            self.codes[rows[known]] = codes[known]
            self.norms[rows[known]] = norms[known]
        inserted = int((~known).sum())
        if inserted:
            self.keys = np.concatenate([np.asarray(self.keys), keys[~known]])
            self.codes = np.concatenate([np.asarray(self.codes), codes[~known]])
            self.norms = np.concatenate([np.asarray(self.norms), norms[~known]])
        # lookup table and unit-matrix cache are now stale
        self._row_of = None
        self._unit = None
        return {"updated": int(known.sum()), "inserted": inserted}

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_keyed_vectors(cls, kv, *, codec=None, **codec_params) -> "EmbeddingStore":
        """In-memory store from a trained :class:`KeyedVectors`.

        ``codec`` (registry name or instance; default float32) selects
        the compression; an untrained codec is fitted on the vectors and
        ``codec_params`` go to its constructor (``m``, ``k``, ...).
        """
        return cls(
            kv.keys,
            np.asarray(kv.vectors, dtype=np.float32),
            codec=resolve_codec(codec, **codec_params),
        )

    def to_keyed_vectors(self):
        """Materialise back into an in-memory :class:`KeyedVectors`.

        On a quantized store this reconstructs through the codec, so the
        result carries the quantization error.
        """
        from repro.embedding.keyed_vectors import KeyedVectors

        return KeyedVectors(
            np.asarray(self.keys).copy(), self.decode_all().astype(np.float64)
        )

    def recode(self, codec, **codec_params) -> "EmbeddingStore":
        """A new in-memory store holding the same rows under ``codec``.

        The float32 -> quantized export step: decodes this store (exact
        when it is unquantized), fits the target codec when untrained,
        and re-encodes. Keys and norms carry over; recoding an already
        quantized store compounds its error (decode first by design).
        """
        codec = resolve_codec(codec, **codec_params)
        vectors = self.decode_all()
        if not codec.trained:
            codec.fit(vectors)
        return EmbeddingStore(
            np.asarray(self.keys).copy(),
            vectors,
            norms=np.asarray(self.norms).copy(),
            codec=codec,
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write the store file (format v2); returns the path written.

        The write goes through a temporary sibling file and an atomic
        rename, so saving *onto the store's own backing file* (the
        open(mmap=False) → upsert → save cycle) can never truncate the
        sections a memory-mapped store is still reading from, and a
        crash mid-save leaves the previous file intact.
        """
        path = Path(path)
        count = self.keys.size
        meta = _pack_codec(self.codec)
        itemsize = np.dtype(self.codec.code_dtype).itemsize
        keys_off, meta_off, codes_off, norm_off, end = _layout_v2(
            count, len(meta), itemsize, self.codec.code_width
        )
        header = _HEADER_V2.pack(_MAGIC, _VERSION, self.dimensions, count, len(meta))
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(header.ljust(_HEADER_BYTES, b"\0"))
            fh.seek(keys_off)
            np.ascontiguousarray(self.keys).tofile(fh)
            fh.seek(meta_off)
            fh.write(meta)
            fh.seek(codes_off)
            np.ascontiguousarray(self.codes).tofile(fh)
            fh.seek(norm_off)
            np.ascontiguousarray(self.norms).tofile(fh)
            fh.truncate(end)
        tmp.replace(path)
        return path

    @classmethod
    def open(cls, path, *, mmap: bool = True) -> "EmbeddingStore":
        """Open a store file in O(1); data pages load on demand.

        Both format versions open: v2 reconstructs the serialized codec
        (so a quantized store round-trips as quantized), v1 files — the
        pre-codec layout — load as float32. ``mmap=False`` reads the
        sections into plain arrays instead (useful when the file is
        about to be deleted, or to upsert + re-save).
        """
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                header = fh.read(_HEADER_BYTES)
        except OSError as err:
            raise ServingError(f"cannot open embedding store: {err}") from None
        if len(header) < _HEADER_V2.size:
            raise ServingError(f"{path} is too short to be an embedding store")
        magic, version, dim, count, meta_len = _HEADER_V2.unpack_from(header)
        if magic != _MAGIC:
            raise ServingError(
                f"{path} is not an embedding store (bad magic {magic!r}); "
                f"export one with 'python -m repro export-store'"
            )
        if version == 1:
            codec = Float32Codec()
            codec.dim = int(dim)
            keys_off, codes_off, norm_off, end = _layout_v1(count, dim)
        elif version == _VERSION:
            meta_start = _aligned(_HEADER_BYTES + 8 * count)
            if meta_start + meta_len > path.stat().st_size:
                # guard before reading: a corrupt header could otherwise
                # demand a multi-GB meta read
                raise ServingError(
                    f"{path} is truncated (codec section of {meta_len} bytes "
                    f"does not fit the file)"
                )
            try:
                with open(path, "rb") as fh:
                    fh.seek(meta_start)
                    codec = _unpack_codec(fh.read(meta_len))
            except OSError as err:
                raise ServingError(f"cannot open embedding store: {err}") from None
            if int(codec.dim) != int(dim):
                raise ServingError(
                    f"{path} header dim {dim} disagrees with codec dim {codec.dim}"
                )
            itemsize = np.dtype(codec.code_dtype).itemsize
            keys_off, __, codes_off, norm_off, end = _layout_v2(
                count, meta_len, itemsize, codec.code_width
            )
        else:
            raise ServingError(
                f"unsupported store version {version} (expected <= {_VERSION})"
            )
        if path.stat().st_size < end:
            raise ServingError(f"{path} is truncated ({path.stat().st_size} < {end} bytes)")
        code_dtype = np.dtype(codec.code_dtype)
        shape = (count, codec.code_width)
        if mmap:
            keys = np.memmap(path, dtype=np.int64, mode="r", offset=keys_off, shape=(count,))
            codes = np.memmap(path, dtype=code_dtype, mode="r", offset=codes_off, shape=shape)
            norms = np.memmap(path, dtype=np.float32, mode="r", offset=norm_off, shape=(count,))
        else:
            with open(path, "rb") as fh:
                fh.seek(keys_off)
                keys = np.fromfile(fh, dtype=np.int64, count=count)
                fh.seek(codes_off)
                codes = np.fromfile(fh, dtype=code_dtype, count=count * codec.code_width)
                codes = codes.reshape(shape)
                fh.seek(norm_off)
                norms = np.fromfile(fh, dtype=np.float32, count=count)
        return cls(keys, norms=norms, codec=codec, codes=codes, path=path)

    def __repr__(self) -> str:
        backing = "mmap" if isinstance(self.codes, np.memmap) else "memory"
        codec = "" if not self.is_quantized else f", codec={self.codec.name!r}"
        return (
            f"EmbeddingStore(count={len(self)}, dimensions={self.dimensions}, "
            f"{backing}{codec}{'' if self.path is None else f', path={str(self.path)!r}'})"
        )


__all__ = ["EmbeddingStore"]
