"""Vector codecs: the compression layer under the embedding store.

The float32 :class:`~repro.serving.store.EmbeddingStore` makes RAM the
binding constraint of the read path — a 10M x 128 float32 matrix is
~5 GB per replica before norms. A *codec* trades a small, controlled
similarity error for a large constant-factor memory win, the same
bias-for-throughput bargain the M-H samplers strike on the write path:

* :class:`Float32Codec` — identity; codes *are* the float32 rows
  (4·d bytes/vector, exact scores, the PR-3 behavior);
* :class:`Int8Codec` — per-dimension affine scalar quantization to
  8-bit levels with stored ``scale``/``offset`` (d bytes/vector, 4x
  smaller, recall@10 typically > 0.95);
* :class:`PQCodec` — product quantization: the dimension axis is split
  into ``m`` subspaces, each with its own k-means codebook of ``k``
  centroids, and every vector becomes ``m`` uint8 centroid ids
  (m bytes/vector — 16x smaller at d=128, m=32).

Codecs are a registry family (:data:`CODEC_REGISTRY`) exactly like the
ANN indexes, so third-party compressors plug in with
:func:`register_codec` and immediately work from
``EmbeddingStore.recode``, ``UniNet.serve(codec=...)``, ``RunSpec``
serving blocks and the ``export-store --codec`` CLI.

Scoring never decodes the full matrix. :meth:`Codec.make_adc` prepares
asymmetric-distance computation (ADC) state for a batch of unit-norm
queries and returns a scorer called with chunks of the *encoded* rows::

    adc = codec.make_adc(unit_queries)      # per query batch
    sims[:, lo:hi] = adc(codes[lo:hi])      # raw dot products

For PQ the scorer picks between two equivalent evaluations of the same
asymmetric distance: per-subspace lookup tables (one ``q · centroid``
table per query, gathered by code id — the scan-few-queries shape IVF
candidate scoring needs) and transient chunk-decode + one BLAS product
(the large-batch shape brute force needs). Both keep resident memory at
the size of the codes, never the decoded matrix.
"""

from __future__ import annotations

import numpy as np

from repro.config import check_counts, check_keywords
from repro.errors import ServingError
from repro.registry import Registry
from repro.utils.rng import as_rng

#: Vector codec classes ``(**params) -> codec``. The compression
#: counterpart of ``INDEX_REGISTRY``.
CODEC_REGISTRY = Registry("codec", error_cls=ServingError, home="repro.serving.codec")


def register_codec(name: str, obj=None, *, aliases=(), replace=False, **capabilities):
    """Register a codec class under ``name`` (decorator-friendly).

    The class is instantiated as ``cls(**params)`` and must implement
    the :class:`Codec` interface (``fit``/``encode``/``decode``/
    ``make_adc``/``state``/``from_state``).
    """
    return CODEC_REGISTRY.register(name, obj, aliases=aliases, replace=replace, **capabilities)


def make_codec(name: str, **params):
    """Instantiate a registered codec (untrained) from its name."""
    entry = CODEC_REGISTRY.entry(name)
    factory = entry.capabilities.get("factory", entry.obj)
    return factory(**params)


def resolve_codec(codec, **params):
    """Normalise a codec argument: name, instance or ``None`` (float32)."""
    if codec is None:
        codec = "float32"
    if isinstance(codec, str):
        return make_codec(codec, **params)
    if params:
        raise ServingError("codec params only apply when codec is a registry name")
    return codec


class Codec:
    """Interface shared by all vector codecs.

    A codec is *trained* (``fit``) on the float32 matrix it will
    compress, after which ``dim`` is set and ``encode``/``decode``/
    ``make_adc`` work. ``state()`` returns the trained parameters as a
    flat dict of numpy arrays (the store serialises it into the file
    header section) and ``from_state`` rebuilds a trained codec from it.
    """

    name = "?"
    #: dtype of one code element in the store's codes section.
    code_dtype = np.uint8

    def __init__(self):
        self.dim: int | None = None

    @classmethod
    def check_params(cls, params: dict) -> None:
        """Refuse the parameters the constructor refuses, before a store is
        encoded: :class:`~repro.serving.config.ServingSpec` calls it when it
        is built. Here, the keywords the constructor does not take."""
        check_keywords(cls, params, f"{cls.name}: ", ServingError)

    @property
    def trained(self) -> bool:
        return self.dim is not None

    @property
    def is_identity(self) -> bool:
        """True when codes are the float32 rows themselves."""
        return False

    @property
    def code_width(self) -> int:
        """Code elements per vector (columns of the codes matrix)."""
        raise NotImplementedError

    def bytes_per_vector(self) -> int:
        """Stored bytes per vector (the memory story in one number)."""
        return int(self.code_width * np.dtype(self.code_dtype).itemsize)

    def _require_trained(self) -> None:
        if not self.trained:
            raise ServingError(f"codec {self.name!r} is not trained; call fit() first")

    def _as_matrix(self, vectors) -> np.ndarray:
        x = np.asarray(vectors, dtype=np.float32)
        if x.ndim != 2:
            raise ServingError(f"codec {self.name!r} needs a (n, dim) matrix, got shape {x.shape}")
        if self.trained and x.shape[1] != self.dim:
            raise ServingError(
                f"codec {self.name!r} was trained at dim={self.dim}, got dim={x.shape[1]}"
            )
        return x

    # -- the five-method contract ---------------------------------------
    def fit(self, vectors) -> "Codec":
        raise NotImplementedError

    def encode(self, vectors) -> np.ndarray:
        raise NotImplementedError

    def decode(self, codes) -> np.ndarray:
        raise NotImplementedError

    def make_adc(self, queries):
        """ADC scorer for a batch of queries: ``adc(codes_chunk) -> (m, c)``.

        Returns a callable mapping a chunk of encoded rows to the raw
        (unnormalised) dot products of every query against every chunk
        row — the caller divides by the stored norms for cosine.
        """
        raise NotImplementedError

    def state(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_state(cls, state: dict) -> "Codec":
        raise NotImplementedError

    def __repr__(self) -> str:
        shape = "untrained" if not self.trained else f"dim={self.dim}"
        return f"{type(self).__name__}({shape})"


@register_codec("float32", aliases=("fp32", "none"), exact=True)
class Float32Codec(Codec):
    """Identity codec: codes are the float32 matrix (current behavior)."""

    name = "float32"
    code_dtype = np.float32

    @property
    def is_identity(self) -> bool:
        return True

    @property
    def code_width(self) -> int:
        self._require_trained()
        return int(self.dim)

    def fit(self, vectors) -> "Float32Codec":
        self.dim = int(self._as_matrix(vectors).shape[1])
        return self

    def encode(self, vectors) -> np.ndarray:
        self._require_trained()
        # keep memmaps as-is: the identity encoding of an opened store's
        # matrix must stay a view of the file, not a resident copy
        if (
            isinstance(vectors, np.ndarray)
            and vectors.dtype == np.float32
            and vectors.ndim == 2
            and vectors.shape[1] == self.dim
        ):
            return vectors
        return self._as_matrix(vectors)

    def decode(self, codes) -> np.ndarray:
        return np.asarray(codes, dtype=np.float32)

    def make_adc(self, queries):
        q = np.asarray(queries, dtype=np.float32)

        def adc(codes_chunk) -> np.ndarray:
            return q @ np.asarray(codes_chunk, dtype=np.float32).T

        return adc

    def state(self) -> dict:
        self._require_trained()
        return {"dim": np.asarray(self.dim, dtype=np.int64)}

    @classmethod
    def from_state(cls, state: dict) -> "Float32Codec":
        codec = cls()
        codec.dim = int(np.asarray(state["dim"]).reshape(-1)[0])
        return codec


@register_codec("int8", aliases=("sq8", "scalar8"), exact=False)
class Int8Codec(Codec):
    """Per-dimension affine scalar quantization to 8-bit levels.

    Each dimension ``d`` maps linearly onto the 256 levels spanning its
    training range: ``x ≈ scale[d] · code + offset[d]``, so the
    reconstruction error is at most ``scale[d] / 2`` per dimension
    (values outside the trained range clip). ADC never reconstructs:
    ``q · x ≈ (q ⊙ scale) · codes + q · offset``, one cast-and-GEMM per
    chunk of codes.
    """

    name = "int8"
    code_dtype = np.uint8
    _LEVELS = 255  # codes span 0..255

    def __init__(self):
        super().__init__()
        self.scale: np.ndarray | None = None
        self.offset: np.ndarray | None = None

    @property
    def code_width(self) -> int:
        self._require_trained()
        return int(self.dim)

    def fit(self, vectors) -> "Int8Codec":
        x = self._as_matrix(vectors)
        if x.shape[0] == 0:
            raise ServingError("cannot train the int8 codec on an empty matrix")
        lo = x.min(axis=0).astype(np.float64)
        hi = x.max(axis=0).astype(np.float64)
        scale = (hi - lo) / self._LEVELS
        # constant dimensions: any code decodes to the offset exactly
        scale[scale == 0.0] = 1.0
        self.scale = scale.astype(np.float32)
        self.offset = lo.astype(np.float32)
        self.dim = int(x.shape[1])
        return self

    def encode(self, vectors, *, chunk: int = 65_536) -> np.ndarray:
        self._require_trained()
        x = self._as_matrix(vectors)
        # row-chunked float32 arithmetic: the peak temporary is one
        # chunk, not another full-matrix copy of the store being shrunk
        out = np.empty(x.shape, dtype=np.uint8)
        for lo in range(0, x.shape[0], chunk):
            hi = min(lo + chunk, x.shape[0])
            levels = np.rint((x[lo:hi] - self.offset) / self.scale)
            out[lo:hi] = np.clip(levels, 0, self._LEVELS)
        return out

    def decode(self, codes) -> np.ndarray:
        self._require_trained()
        return np.asarray(codes, dtype=np.float32) * self.scale + self.offset

    def make_adc(self, queries):
        self._require_trained()
        q = np.asarray(queries, dtype=np.float32)
        qs = q * self.scale
        qoff = (q @ self.offset)[:, None]

        def adc(codes_chunk) -> np.ndarray:
            return qs @ np.asarray(codes_chunk).astype(np.float32).T + qoff

        return adc

    def state(self) -> dict:
        self._require_trained()
        return {"scale": self.scale, "offset": self.offset}

    @classmethod
    def from_state(cls, state: dict) -> "Int8Codec":
        codec = cls()
        codec.scale = np.asarray(state["scale"], dtype=np.float32)
        codec.offset = np.asarray(state["offset"], dtype=np.float32)
        codec.dim = int(codec.scale.size)
        return codec


def _largest_divisor_at_most(n: int, cap: int) -> int:
    for candidate in range(min(cap, n), 0, -1):
        if n % candidate == 0:
            return candidate
    return 1


def _kmeans_assign(x: np.ndarray, centroids: np.ndarray, chunk: int = 65_536) -> np.ndarray:
    """Nearest centroid per row (L2), chunked; ``||x||²`` drops out."""
    c2 = np.einsum("kd,kd->k", centroids, centroids)
    out = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], chunk):
        hi = min(lo + chunk, x.shape[0])
        out[lo:hi] = np.argmin(c2[None, :] - 2.0 * (x[lo:hi] @ centroids.T), axis=1)
    return out


def _kmeans(x: np.ndarray, k: int, iters: int, rng) -> np.ndarray:
    centroids = x[rng.choice(x.shape[0], size=k, replace=False)].astype(np.float32).copy()
    for __ in range(iters):
        assign = _kmeans_assign(x, centroids)
        sums = np.zeros((k, x.shape[1]), dtype=np.float64)
        np.add.at(sums, assign, x)
        counts = np.bincount(assign, minlength=k)
        empty = counts == 0
        if empty.any():
            # reseed dead centroids from random sample points
            sums[empty] = x[rng.integers(0, x.shape[0], size=int(empty.sum()))]
            counts[empty] = 1
        centroids = (sums / counts[:, None]).astype(np.float32)
    return centroids


@register_codec("pq", aliases=("product-quantization",), exact=False)
class PQCodec(Codec):
    """Product quantization: m subspace codebooks, uint8 codes, ADC scoring.

    Parameters
    ----------
    m:
        subspaces the dimension axis is split into (one byte of code
        each). When ``m`` does not divide the trained dimension it is
        lowered to the largest divisor, so ``m=16`` on d=64 gives 4-dim
        subspaces and d=100 falls back to m=10.
    k:
        centroids per subspace codebook (≤ 256 so a code fits one byte;
        clamped to the training-sample size).
    train_sample:
        rows sampled to train the codebooks (the full matrix is never
        required in memory at once).
    iters:
        k-means iterations per subspace.
    seed:
        codebook-training seed (training and encoding are deterministic).
    """

    name = "pq"
    code_dtype = np.uint8

    @classmethod
    def check_params(cls, params: dict) -> None:
        super().check_params(params)
        check_counts(params, ("m", "k", "train_sample", "iters"), "pq.", ServingError)
        check_counts(params, ("seed",), "pq.", ServingError, minimum=0)
        if params.get("k", 1) > 256:
            raise ServingError(f"pq.k must be at most 256 (codes are one byte), got {params['k']!r}")

    def __init__(self, m: int = 16, k: int = 256, train_sample: int = 32_768, iters: int = 10, seed: int = 0):
        super().__init__()
        self.check_params({"m": m, "k": k, "train_sample": train_sample, "iters": iters, "seed": seed})
        self.m = int(m)
        self.k = int(k)
        self.train_sample = int(train_sample)
        self.iters = int(iters)
        self.seed = int(seed)
        self.codebooks: np.ndarray | None = None  # (m, k, ds) float32

    @property
    def code_width(self) -> int:
        self._require_trained()
        return int(self.m)

    @property
    def subdim(self) -> int:
        self._require_trained()
        return int(self.dim // self.m)

    def fit(self, vectors) -> "PQCodec":
        x = self._as_matrix(vectors)
        n, dim = x.shape
        if n == 0:
            raise ServingError("cannot train the pq codec on an empty matrix")
        self.m = _largest_divisor_at_most(dim, self.m)
        ds = dim // self.m
        rng = as_rng(self.seed)
        if n > self.train_sample:
            sample = x[np.sort(rng.choice(n, size=self.train_sample, replace=False))]
        else:
            sample = x
        k = min(self.k, sample.shape[0])
        codebooks = np.empty((self.m, k, ds), dtype=np.float32)
        for j in range(self.m):
            codebooks[j] = _kmeans(sample[:, j * ds : (j + 1) * ds], k, self.iters, rng)
        self.codebooks = codebooks
        self.k = k
        self.dim = int(dim)
        return self

    def encode(self, vectors) -> np.ndarray:
        self._require_trained()
        x = self._as_matrix(vectors)
        ds = self.subdim
        codes = np.empty((x.shape[0], self.m), dtype=np.uint8)
        for j in range(self.m):
            codes[:, j] = _kmeans_assign(x[:, j * ds : (j + 1) * ds], self.codebooks[j])
        return codes

    def decode(self, codes) -> np.ndarray:
        self._require_trained()
        codes = np.asarray(codes)
        ds = self.subdim
        out = np.empty((codes.shape[0], self.dim), dtype=np.float32)
        for j in range(self.m):
            out[:, j * ds : (j + 1) * ds] = self.codebooks[j][codes[:, j]]
        return out

    #: query batches up to this size score through per-subspace lookup
    #: tables (the IVF candidate-scan shape); larger batches amortise a
    #: transient chunk decode over one BLAS product instead.
    _LUT_MAX_QUERIES = 8

    def make_adc(self, queries):
        self._require_trained()
        q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        nq = q.shape[0]
        ds = self.subdim
        if nq <= self._LUT_MAX_QUERIES:
            # (m, k, nq) tables: one q·centroid dot per (subspace, code);
            # lut[j][codes[:, j]] then gathers contiguous nq-length rows
            lut = np.einsum("qjd,jkd->jkq", q.reshape(nq, self.m, ds), self.codebooks)
            lut = np.ascontiguousarray(lut, dtype=np.float32)

            def adc(codes_chunk) -> np.ndarray:
                codes_chunk = np.asarray(codes_chunk)
                acc = np.zeros((codes_chunk.shape[0], nq), dtype=np.float32)
                for j in range(self.m):
                    acc += lut[j][codes_chunk[:, j]]
                return acc.T

        else:

            def adc(codes_chunk) -> np.ndarray:
                return q @ self.decode(codes_chunk).T

        return adc

    def state(self) -> dict:
        self._require_trained()
        return {"codebooks": self.codebooks, "dim": np.asarray(self.dim, dtype=np.int64)}

    @classmethod
    def from_state(cls, state: dict) -> "PQCodec":
        codebooks = np.asarray(state["codebooks"], dtype=np.float32)
        m, k, __ = codebooks.shape
        codec = cls(m=m, k=k)
        codec.codebooks = codebooks
        codec.dim = int(np.asarray(state["dim"]).reshape(-1)[0])
        return codec


__all__ = [
    "CODEC_REGISTRY",
    "register_codec",
    "make_codec",
    "resolve_codec",
    "Codec",
    "Float32Codec",
    "Int8Codec",
    "PQCodec",
]
