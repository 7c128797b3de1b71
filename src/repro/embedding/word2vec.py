"""Mini-batched word2vec (SGNS and CBOW): NumPy reference, compiled batch kernel.

This is the learning phase of the paper's pipeline: the walk corpus is a
set of sentences over node ids, and embeddings come from skip-gram (or
CBOW) with negative sampling trained by SGD with a linearly decaying
learning rate — the standard Mikolov recipe, vectorized:

* **Dynamic windows** use the reduced-window identity: the pair (center,
  context-at-distance-d) is included with probability
  ``(window - d + 1) / window``, the marginal of drawing a window size
  uniformly in [1, window]. One draw per unordered pair, distance by
  distance, decides it, and every center occurrence with an included
  context becomes a *window*: its contexts in slot order +1, -1, +2,
  -2, ... The trainer draws the uniforms. Where the C kernel resolved,
  it builds the windows from them and gathers each run's shuffled
  windows; elsewhere NumPy does both (a (slot, row, position) mask,
  ``concat_ranges``), to the same arrays.
* **Scatter updates** (many pairs touch the same row) are segment-summed
  per unique row through a sparse one-hot product rather than
  ``np.add.at``, which makes batched SGD practical in pure numpy.
* **Negatives** come from the unigram^0.75 distribution via inverse CDF,
  ``negative`` of them per window, shared by its contexts: CBOW scores
  the window's mean against [center, negatives], skip-gram each context
  on its own (pWord2Vec's scheme, Ji et al., arXiv:1604.04661). They are
  an *input* of the batch update: the trainer draws the uniforms, the
  update only consumes them.
* **The batch update itself** is :func:`sgns_batch` / :func:`cbow_batch`
  below, or — whenever this host has a C compiler — the one fused C
  routine of :mod:`repro.embedding.kernels` that performs the same
  update, a run of consecutive batches per call, on as many threads as
  the process has CPUs (the result does not depend on how many). Nothing
  selects between them but what the host can build;
  :attr:`Word2Vec.kernel` says which one trained.

The trainer follows word2vec conventions: input vectors initialised
uniformly in ±0.5/dim, output vectors at zero, sigmoid arguments clipped
to ±8, and the *input* matrix is returned as the embedding.

Streaming
---------
Training is organised around **canonical blocks** of ``block_walks``
consecutive walks. :meth:`Word2Vec.build_vocab` fixes the vocabulary and
the persistent ``w_in`` / ``w_out`` matrices; :meth:`Word2Vec.partial_fit`
accepts corpus shards of *any* size, re-chunks their rows into canonical
blocks, and trains each complete block immediately;
:meth:`Word2Vec.finalize` flushes the last partial block and returns the
embeddings. Every block draws its randomness (subsampling, dynamic
windows, shuffling, negatives) from a generator derived from the trainer
seed and the *global block index*, and each block's matrix is re-padded
to the block's own maximum walk length — so the result is bitwise
independent of how the incoming stream was sharded. :meth:`Word2Vec.fit`
is the trivial one-shard case of the same code path, which is what makes
streamed and monolithic training numerically identical. Peak pair
memory is O(block), never O(corpus).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import fields

import numpy as np
from scipy import sparse

from repro.config import TrainConfig, check_counts
from repro.errors import TrainingError
from repro.embedding.kernels import ACCUM_DTYPE, BatchScratch, resolve_train_kernel, window_draws
from repro.embedding.keyed_vectors import KeyedVectors
from repro.embedding.negative import NegativeSampler
from repro.embedding.vocab import Vocabulary
from repro.tokens import TOKEN_DTYPE
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

_MODES = ("skipgram", "cbow")

#: Negative-sampling uniforms drawn, and so batches trained, per kernel
#: call. A run of batches long enough to amortise the call (and, in C, to
#: keep its threads alive for tens of milliseconds); a fixed size so that
#: what a fit holds at once does not grow with the block.
RUN_UNIFORM_BYTES = 2 << 20


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -8.0, 8.0)))


def scatter_add_rows(matrix: np.ndarray, rows: np.ndarray, updates: np.ndarray, *, clip: float | None = None) -> None:
    """``matrix[rows] += updates`` with duplicate rows accumulated.

    Segment-sums the batch per unique row (in :data:`ACCUM_DTYPE`,
    whatever dtype ``updates`` arrives in) and applies one add per row —
    an order of magnitude faster than ``np.add.at`` for the wide rows
    used here.

    Summing preserves sequential SGD's per-pair learning-rate semantics,
    but a mini-batch evaluates every pair at *stale* vectors: when many
    pairs hit the same row (small vocabularies), the summed step
    overshoots where sequential updates would have self-corrected.
    ``clip`` bounds each row's accumulated step norm, which is inactive
    for large vocabularies and prevents divergence for tiny ones.
    """
    if rows.size == 0:
        return
    updates = np.asarray(updates, dtype=ACCUM_DTYPE)
    # Deduplicate through a sparse one-hot product: summed[u] = Σ updates
    # of the pairs hitting unique row u. scipy's CSR matmul does this in
    # optimised C, ~30x faster than sort+reduceat or np.add.at here.
    unique, inverse = np.unique(rows, return_inverse=True)
    onehot = sparse.csr_matrix(
        (
            np.ones(rows.size, dtype=ACCUM_DTYPE),
            inverse,
            np.arange(rows.size + 1),
        ),
        shape=(rows.size, unique.size),
    )
    summed = onehot.T @ updates
    if clip is not None:
        norms = np.linalg.norm(summed, axis=1, keepdims=True)
        summed *= np.minimum(1.0, clip / np.maximum(norms, 1e-12))
    matrix[unique] += summed.astype(matrix.dtype, copy=False)


def _step(grad: np.ndarray, lr: float) -> np.ndarray:
    """``-lr * grad``: a float32 gradient becomes an ACCUM_DTYPE step."""
    return np.multiply(grad, -lr, dtype=ACCUM_DTYPE)


def _mean_loss(s_pos: np.ndarray, s_neg: np.ndarray) -> float:
    eps = 1e-10
    return float(
        -np.log(s_pos + eps).mean() - np.log(1.0 - s_neg + eps).sum(axis=1).mean()
    )


# The two functions below are the reference definition of a mini-batch
# update: pure functions of the weights, the index arrays, the negatives
# and the learning rate, updating ``w_in`` / ``w_out`` in place and
# returning the batch's mean loss. All gradients are evaluated at the
# pre-batch weights, in float32; steps are summed per row and clipped by
# :func:`scatter_add_rows`. An empty batch changes nothing and has no
# loss (``nan``).
def sgns_batch(w_in, w_out, ctx, sizes, center, neg, lr: float, max_row_step: float | None) -> float:
    """Skip-gram update over windows: window ``g`` owns ``sizes[g]``
    consecutive entries of ``ctx``, and each of their input vectors is
    scored on its own against ``w_out[center[g]]`` (positive) and the
    window's shared negatives ``w_out[neg[g, :]]`` — the per-pair update
    of the pairs ``(ctx[k], center of k's window)``."""
    if ctx.size == 0:
        return float("nan")
    o = np.repeat(center, sizes)
    neg = np.repeat(neg, sizes, axis=0)
    h = w_in[ctx]
    v_pos = w_out[o]
    s_pos = _sigmoid(np.einsum("kd,kd->k", h, v_pos))
    g_pos = s_pos - 1.0
    v_neg = w_out[neg]
    s_neg = _sigmoid(np.einsum("kd,knd->kn", h, v_neg))

    grad_h = g_pos[:, None] * v_pos + np.einsum("kn,knd->kd", s_neg, v_neg)
    grad_out_pos = g_pos[:, None] * h
    grad_out_neg = (s_neg[:, :, None] * h[:, None, :]).reshape(-1, h.shape[1])

    scatter_add_rows(w_in, ctx, _step(grad_h, lr), clip=max_row_step)
    out_rows = np.concatenate([o, neg.ravel()])
    out_grads = np.concatenate([grad_out_pos, grad_out_neg])
    scatter_add_rows(w_out, out_rows, _step(out_grads, lr), clip=max_row_step)
    return _mean_loss(s_pos, s_neg)


def cbow_batch(w_in, w_out, ctx, sizes, group_center, neg, lr: float, max_row_step: float | None) -> float:
    """CBOW update: group ``g`` owns ``sizes[g]`` consecutive entries of
    ``ctx``; the mean of their input vectors predicts
    ``w_out[group_center[g]]`` against ``w_out[neg[g, :]]``."""
    g = group_center.size
    if g == 0:
        return float("nan")
    seg_ids = np.repeat(np.arange(g), sizes)
    counts = sizes.astype(np.float64)
    # h[g] = mean of the group's context input vectors, via a sparse
    # averaging matrix (rows = pairs, cols = groups)
    weights_mean = (1.0 / counts[seg_ids]).astype(np.float32)
    averager = sparse.csr_matrix(
        (weights_mean, seg_ids, np.arange(ctx.size + 1)),
        shape=(ctx.size, g),
    )
    h = averager.T @ w_in[ctx]

    v_pos = w_out[group_center]
    s_pos = _sigmoid(np.einsum("gd,gd->g", h, v_pos))
    g_pos = s_pos - 1.0
    v_neg = w_out[neg]
    s_neg = _sigmoid(np.einsum("gd,gnd->gn", h, v_neg))

    grad_h = g_pos[:, None] * v_pos + np.einsum("gn,gnd->gd", s_neg, v_neg)
    grad_out_pos = g_pos[:, None] * h
    grad_out_neg = (s_neg[:, :, None] * h[:, None, :]).reshape(-1, h.shape[1])

    # each context word receives the group's mean gradient (cbow_mean)
    ctx_grad = (grad_h.astype(ACCUM_DTYPE) / counts[:, None])[seg_ids]
    scatter_add_rows(w_in, ctx, _step(ctx_grad, lr), clip=max_row_step)
    out_rows = np.concatenate([group_center, neg.ravel()])
    out_grads = np.concatenate([grad_out_pos, grad_out_neg])
    scatter_add_rows(w_out, out_rows, _step(out_grads, lr), clip=max_row_step)
    return _mean_loss(s_pos, s_neg)


def check_train_params(**params) -> None:
    """The trainer's parameter check, on any subset of its keywords.

    :class:`Word2Vec` runs it on its arguments and
    :class:`~repro.config.TrainConfig` on its fields and ``extra`` the
    moment it is built, so a run that cannot train fails before it walks.
    Raises :class:`~repro.errors.TrainingError`.
    """
    keywords = set(inspect.signature(Word2Vec).parameters) - {"seed"}
    unknown = sorted(set(params) - keywords)
    if unknown:
        extra = sorted(keywords - {f.name for f in fields(TrainConfig)})
        raise TrainingError(
            f"unknown trainer parameter(s) {unknown}; beside the TrainConfig fields, "
            f"Word2Vec (and so train.extra) takes {extra}"
        )
    counts = ("dimensions", "window", "negative", "epochs", "batch_pairs", "block_walks")
    check_counts(params, counts, error=TrainingError)
    check_counts(params, ("min_count",), error=TrainingError, minimum=0)
    if "alpha" in params:
        check_positive("alpha", params["alpha"], TrainingError)
    # a negative floor decays the learning rate through zero
    if "min_alpha" in params and not 0 <= params["min_alpha"] < math.inf:
        raise TrainingError(f"min_alpha must be finite and >= 0, got {params['min_alpha']!r}")
    if "subsample" in params and not params["subsample"] >= 0:
        raise TrainingError(f"subsample must be >= 0, got {params['subsample']!r}")
    if params.get("mode", _MODES[0]) not in _MODES:
        raise TrainingError(f"mode must be one of {_MODES}, got {params['mode']!r}")
    if params.get("max_row_step") is not None and not params["max_row_step"] >= 0:
        raise TrainingError("max_row_step must be >= 0 or None")


class Word2Vec:
    """word2vec trainer for walk corpora.

    Parameters
    ----------
    dimensions:
        embedding size (paper experiments use 128).
    window:
        maximum context distance; effective windows are dynamic.
    negative:
        negative samples per window, shared by its contexts.
    epochs:
        passes over the generated pairs.
    alpha / min_alpha:
        initial and final SGD learning rate (linear decay per batch).
    mode:
        ``"skipgram"`` (default) or ``"cbow"``.
    subsample:
        frequent-token subsampling threshold t (0 disables).
    min_count:
        minimum corpus frequency for a token to be embedded.
    batch_pairs:
        most training pairs a mini-batch holds (see
        :meth:`_windows_per_batch`).
    max_row_step:
        per-row step-norm clip applied to each batch update (see
        :func:`scatter_add_rows`).
    block_walks:
        walks per canonical training block. Incoming shards (or the whole
        corpus, in :meth:`fit`) are re-chunked into blocks of exactly this
        many rows, so pair materialisation and subsampling draws are
        bounded by O(block) and results do not depend on shard boundaries.
    """

    def __init__(
        self,
        dimensions: int = TrainConfig.dimensions,
        *,
        window: int = TrainConfig.window,
        negative: int = TrainConfig.negative,
        epochs: int = TrainConfig.epochs,
        alpha: float = TrainConfig.alpha,
        min_alpha: float = TrainConfig.min_alpha,
        mode: str = TrainConfig.mode,
        subsample: float = TrainConfig.subsample,
        min_count: int = TrainConfig.min_count,
        batch_pairs: int = 8192,
        max_row_step: float = 0.25,
        block_walks: int = 8192,
        seed=None,
    ):
        check_train_params(
            dimensions=dimensions, window=window, negative=negative, epochs=epochs, alpha=alpha,
            min_alpha=min_alpha, mode=mode, subsample=subsample, min_count=min_count,
            batch_pairs=batch_pairs, max_row_step=max_row_step, block_walks=block_walks,
        )
        self.dimensions = dimensions
        self.window = window
        self.negative = negative
        self.epochs = epochs
        self.alpha = alpha
        self.min_alpha = min(min_alpha, alpha)
        self.mode = mode
        self.subsample = subsample
        self.min_count = min_count
        self.batch_pairs = batch_pairs
        self.max_row_step = max_row_step
        self.block_walks = block_walks
        self.seed = seed
        #: per-batch mean loss recorded by the last :meth:`fit` call
        self.training_loss_: list[float] = []
        # the C kernel whenever this host can build it
        self._kernel = resolve_train_kernel()
        self._reset_stream_state()

    @property
    def kernel(self) -> str:
        """Which batch update trains: ``"cnative"`` (the compiled kernel of
        :mod:`repro.embedding.kernels`) or ``"numpy"`` (the reference)."""
        return "numpy" if self._kernel is None else self._kernel.name

    @property
    def compile_seconds(self) -> float:
        """One-off seconds spent compiling (or cache-hitting) and loading
        the kernel when this trainer was built; 0 on the numpy path."""
        return 0.0 if self._kernel is None else self._kernel.compile_seconds

    # -- streaming state -----------------------------------------------
    def _reset_stream_state(self) -> None:
        self.vocab: Vocabulary | None = None
        self.w_in: np.ndarray | None = None
        self.w_out: np.ndarray | None = None
        self._sampler: NegativeSampler | None = None
        self._scratch: BatchScratch | None = None
        self._block_no = 0
        self._total_blocks: int | None = None
        self._pairs_trained = 0
        self._block_entropy: int | None = None
        # pending (walks, lengths) row slices not yet forming a full block
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_rows = 0

    def _block_rng(self, block_no: int) -> np.random.Generator:
        """Generator for one canonical block, keyed by global block index.

        Deriving from ``(trainer entropy, block index)`` — not from a
        shared sequential stream — is what makes training independent of
        how the walk stream was sharded: block ``b`` consumes the same
        random numbers whether it arrived in one corpus or in twenty
        shards.
        """
        seq = np.random.SeedSequence(entropy=self._block_entropy, spawn_key=(block_no,))
        return np.random.Generator(np.random.PCG64(seq))

    def _block_lrs(self, block_no: int, num_batches: int) -> np.ndarray:
        """Per-batch learning rates for one block.

        With a known total block count the rate decays linearly over the
        *global* corpus position (so one block reproduces the classic
        whole-corpus linspace exactly); with an open-ended stream the
        rate stays at ``alpha``.
        """
        if self._total_blocks is None:
            return np.full(max(num_batches, 1), self.alpha)
        local = np.arange(max(num_batches, 1)) / max(num_batches - 1, 1)
        frac = np.minimum((block_no + local) / self._total_blocks, 1.0)
        return self.alpha - (self.alpha - self.min_alpha) * frac

    # ------------------------------------------------------------------
    def build_vocab(self, counts, *, total_walks: int | None = None) -> "Word2Vec":
        """Fix the vocabulary and allocate the persistent weight matrices.

        Parameters
        ----------
        counts:
            occurrence count per token id (index = token id), e.g.
            :meth:`WalkCorpus.node_frequencies` or a degree-proportional
            estimate for overlapped streaming.
        total_walks:
            total walks the stream will deliver, if known — enables the
            linear learning-rate decay across the whole stream. ``None``
            keeps the rate constant at ``alpha``.

        Returns ``self`` so ``Word2Vec(...).build_vocab(...)`` chains.
        """
        self._reset_stream_state()
        rng = as_rng(self.seed)
        self.vocab = Vocabulary(np.asarray(counts, dtype=np.int64), min_count=self.min_count)
        v, d = self.vocab.size, self.dimensions
        self.w_in = ((rng.random((v, d)) - 0.5) / d).astype(np.float32)
        self.w_out = np.zeros((v, d), dtype=np.float32)
        self._sampler = NegativeSampler(self.vocab.counts)
        self._block_entropy = int(rng.integers(2**63))
        if total_walks is not None:
            self._total_blocks = max(-(-int(total_walks) // self.block_walks), 1)
        self.training_loss_ = []
        return self

    def partial_fit(self, shard) -> int:
        """Absorb one :class:`~repro.walks.corpus.WalkCorpus` shard.

        Rows are buffered until a full canonical block accumulates, then
        each complete block is trained immediately. Returns the number of
        training pairs consumed by this call. Requires
        :meth:`build_vocab` first.
        """
        if self.w_in is None:
            raise TrainingError("call build_vocab() before partial_fit()")
        if shard.num_walks:
            self._pending.append((shard.walks, shard.lengths))
            self._pending_rows += shard.num_walks
        trained = 0
        while self._pending_rows >= self.block_walks:
            trained += self._train_block(self._pop_block(self.block_walks))
        if self._pending:
            # a leftover tail view would pin its (possibly huge) base
            # shard after the caller drops it; copy when the base
            # dominates so resident memory — and buffered_bytes()'s
            # report of it — really is just the pending rows
            walks, lengths = self._pending[0]
            if walks.base is not None and walks.base.nbytes > 2 * walks.nbytes:
                self._pending[0] = (walks.copy(), lengths.copy())
        return trained

    def expand_vocab(self, counts) -> int:
        """Grow the vocabulary to cover a larger token-id space.

        For incremental training after a graph gained nodes: ``counts``
        estimates occurrences per token id over the *full new* id space
        (length >= the old space). Tokens already in the vocabulary keep
        their trained rows and original counts (so the negative-sampling
        and subsampling laws stay stable); new ids meeting ``min_count``
        get fresh randomly-initialised input rows and zero output rows.
        Returns the number of tokens added.
        """
        if self.w_in is None:
            raise TrainingError("call build_vocab() before expand_vocab()")
        counts = np.asarray(counts, dtype=np.int64)
        old_space = self.vocab._index_of.size
        if counts.size < old_space:
            raise TrainingError(
                f"expand_vocab counts cover {counts.size} ids but the "
                f"vocabulary space is already {old_space}"
            )
        merged = counts.copy()
        # known tokens keep their recorded counts; ids the original
        # min_count filter dropped stay dropped
        merged[: old_space] = 0
        merged[self.vocab.tokens] = self.vocab.counts
        new_vocab = Vocabulary(merged, min_count=self.min_count)
        added = new_vocab.size - self.vocab.size
        if added == 0:
            # nothing new survived min_count; keep the old layout as-is
            return 0
        v, d = new_vocab.size, self.dimensions
        seq = np.random.SeedSequence(entropy=self._block_entropy, spawn_key=(0x5EED, v))
        rng = np.random.Generator(np.random.PCG64(seq))
        w_in = ((rng.random((v, d)) - 0.5) / d).astype(np.float32)
        w_out = np.zeros((v, d), dtype=np.float32)
        old_rows = self.vocab.encode(self.vocab.tokens)
        new_rows = new_vocab.encode(self.vocab.tokens)
        w_in[new_rows] = self.w_in[old_rows]
        w_out[new_rows] = self.w_out[old_rows]
        self.vocab = new_vocab
        self.w_in = w_in
        self.w_out = w_out
        self._sampler = NegativeSampler(new_vocab.counts)
        self._scratch = None  # sized from the old vocabulary
        return int(added)

    def finalize(self) -> KeyedVectors:
        """Flush the last partial block and return the embeddings.

        Raises :class:`~repro.errors.TrainingError` if the whole stream
        produced no training pairs (walks too short).
        """
        if self.w_in is None:
            raise TrainingError("call build_vocab() before finalize()")
        if self._pending_rows:
            self._train_block(self._pop_block(self._pending_rows))
        if self._pairs_trained == 0:
            raise TrainingError("corpus produced no training pairs (walks too short?)")
        # a kept trainer (UniNet holds one for refresh_embeddings) should
        # not pin the kernel's accumulators; partial_fit re-derives them
        self._scratch = None
        # the planned stream ends here: whatever a kept trainer is fed
        # later is a stream of unknown length (rate ``alpha``), not the
        # tail of the decay, which would train it at ``min_alpha``
        self._total_blocks = None
        return KeyedVectors(self.vocab.tokens, self.w_in)

    def buffered_bytes(self) -> int:
        """Bytes of walk rows buffered awaiting a full canonical block."""
        return sum(w.nbytes + ln.nbytes for w, ln in self._pending)

    # ------------------------------------------------------------------
    def fit(self, corpus, num_nodes: int | None = None) -> KeyedVectors:
        """Train on a :class:`~repro.walks.corpus.WalkCorpus`.

        Returns :class:`KeyedVectors` keyed by the original node ids.
        This is the one-shard case of the streaming path —
        ``build_vocab`` + ``partial_fit`` + ``finalize`` — so feeding the
        same corpus in shards (with the same counts and ``total_walks``)
        produces numerically identical embeddings.
        """
        if num_nodes is None:
            if corpus.num_walks == 0:
                raise TrainingError("cannot infer num_nodes from an empty corpus")
            num_nodes = int(corpus.walks.max()) + 1
        self.build_vocab(
            corpus.node_frequencies(num_nodes), total_walks=corpus.num_walks
        )
        self.partial_fit(corpus)
        return self.finalize()

    def fit_stream(self, stream, *, counts, total_walks: int | None = None) -> KeyedVectors:
        """Train from a shard stream with bounded memory.

        ``stream`` is any iterable of :class:`WalkCorpus` shards — e.g.
        :meth:`~repro.walks.vectorized.VectorizedWalkEngine.generate_stream`
        or a plain list — consumed once. ``counts`` fixes the vocabulary
        up front (see :meth:`build_vocab`: exact node frequencies, or an
        estimate such as degrees) and ``total_walks``, when known,
        schedules the learning-rate decay over the whole stream. With the
        corpus's own node frequencies and walk count the result equals
        :meth:`fit` on the merged stream, bit for bit.
        """
        self.build_vocab(counts, total_walks=total_walks)
        for shard in stream:
            self.partial_fit(shard)
        return self.finalize()

    # ------------------------------------------------------------------
    def _pop_block(self, rows: int) -> np.ndarray:
        """Assemble the next canonical block of exactly ``rows`` rows.

        The block matrix is re-padded to the block's own maximum walk
        length, so its shape (and therefore every RNG draw made over it)
        depends only on the walks it contains, not on the padding width
        of whichever shards delivered them.
        """
        taken: list[tuple[np.ndarray, np.ndarray]] = []
        need = rows
        while need:
            walks, lengths = self._pending[0]
            if walks.shape[0] <= need:
                taken.append((walks, lengths))
                need -= walks.shape[0]
                self._pending.pop(0)
            else:
                taken.append((walks[:need], lengths[:need]))
                self._pending[0] = (walks[need:], lengths[need:])
                need = 0
        self._pending_rows -= rows
        width = max(int(ln.max()) for __, ln in taken)
        block = np.full((rows, width), -1, dtype=TOKEN_DTYPE)
        row = 0
        for walks, __ in taken:
            cols = min(walks.shape[1], width)
            block[row : row + walks.shape[0], :cols] = walks[:, :cols]
            row += walks.shape[0]
        return block

    def _train_block(self, block: np.ndarray) -> int:
        """Subsample, build the windows of and SGD-train one canonical block."""
        block_no = self._block_no
        self._block_no += 1
        rng = self._block_rng(block_no)
        encoded = self.vocab.encode(block)
        if self.subsample > 0:
            keep = self.vocab.subsample_keep_probs(self.subsample)
            drop = rng.random(encoded.shape) >= keep[np.maximum(encoded, 0)]
            encoded = np.where(drop & (encoded >= 0), -1, encoded)

        centers, sizes, contexts = self._windows(encoded, rng)
        if contexts.size == 0:
            return 0
        self._train_windows(centers, sizes, contexts, rng, block_no)
        self._pairs_trained += int(contexts.size)
        return int(contexts.size)

    # ------------------------------------------------------------------
    def _windows(self, encoded: np.ndarray, rng):
        """Every center occurrence with at least one included context, in
        corpus order: ``(centers, sizes, contexts)``, window ``g`` owning
        ``sizes[g]`` consecutive entries of ``contexts``.

        A context at distance ``d`` is included with probability
        ``(window - d + 1) / window``, by one draw per unordered pair of
        positions, so that a window's contexts are exactly the pairs that
        name its center, in either direction. Within a window, contexts
        come in slot order +1, -1, +2, -2, ...

        The C kernel builds them from the same uniforms, drawn distance
        by distance in one call; the NumPy body below is the reference.
        """
        if self._kernel is not None:
            # the same draws, in one stream, and the same windows, in C
            encoded = np.ascontiguousarray(encoded, dtype=TOKEN_DTYPE)
            u = rng.random(window_draws(encoded.shape, self.window))
            return self._kernel.windows(encoded, self.window, u)
        rows, length = encoded.shape
        present = encoded >= 0
        # slot 2(d - 1) holds the context at +d, slot 2(d - 1) + 1 the one at -d
        mask = np.zeros((2 * self.window, rows, length), dtype=bool)
        for dist in range(1, self.window + 1):
            valid = present[:, :-dist] & present[:, dist:]
            p_keep = (self.window - dist + 1) / self.window
            if p_keep < 1.0:
                valid &= (rng.random(valid.size) < p_keep).reshape(valid.shape)
            mask[2 * dist - 2, :, :-dist] = valid
            mask[2 * dist - 1, :, dist:] = valid
        sizes = np.count_nonzero(mask, axis=0).ravel()
        # where each position's next context goes, filled slot by slot
        at = np.cumsum(sizes) - sizes
        tokens = encoded.ravel()
        contexts = np.empty(int(sizes.sum()), dtype=np.int32)
        for slot in range(2 * self.window):
            shift = (slot // 2 + 1) * (1 - 2 * (slot % 2))
            pos = np.flatnonzero(mask[slot])
            contexts[at[pos]] = tokens[pos + shift]
            at[pos] += 1
        has = sizes > 0
        return tokens[has].astype(np.int32), sizes[has], contexts

    # ------------------------------------------------------------------
    def _windows_per_batch(self) -> int:
        """Windows a batch packs: as many as ``batch_pairs`` pairs hold
        when every window has all ``2 * window`` contexts, so that no
        batch trains more than ``batch_pairs`` pairs. (Packing by the
        ``window + 1`` contexts a window has on average lost skip-gram
        0.01 micro-F1 at 8,192 pairs on blogcatalog 0.3, where all of a
        window's rows step its center and negatives in one batch.)"""
        return max(self.batch_pairs // (2 * self.window), 1)

    def _batch_scratch(self) -> BatchScratch:
        """The C kernel's work buffers, sized for this trainer's largest batch."""
        if self._scratch is None:
            groups = self._windows_per_batch()
            self._scratch = BatchScratch(
                self.vocab.size, self.dimensions, groups * 2 * self.window, groups,
                self.negative, self.mode,
            )
        return self._scratch

    def _train_run(self, in_rows, sizes, out_pos, per_batch: int, rng, lrs) -> int:
        """Train one run of consecutive batches of ``per_batch`` windows
        (the last one shorter) through the kernel this trainer resolved;
        returns how many batches that was.

        The run's uniforms are one draw, which the generator's sequential
        stream makes equal to a draw per batch; ``lrs`` holds the
        learning rates from the run's first batch on.
        """
        groups = out_pos.size
        offsets = np.append(np.arange(0, groups, per_batch, dtype=np.int64), groups)
        lrs = np.ascontiguousarray(lrs[: offsets.size - 1], dtype=np.float64)
        u = rng.random((groups, self.negative))
        if self._kernel is not None:
            losses = self._kernel.run(
                self.w_in, self.w_out, in_rows, sizes, out_pos, u, self._sampler.cdf,
                offsets, lrs, self.max_row_step, self._batch_scratch(),
            )
            self.training_loss_.extend(losses.tolist())
            return lrs.size
        update = cbow_batch if self.mode == "cbow" else sgns_batch
        rows = np.append(0, np.cumsum(sizes))[offsets]
        for b, lr in enumerate(lrs.tolist()):
            batch = slice(offsets[b], offsets[b + 1])
            neg = self._sampler.indices(u[batch])
            self.training_loss_.append(update(
                self.w_in, self.w_out, in_rows[rows[b] : rows[b + 1]], sizes[batch],
                out_pos[batch], neg, lr, self.max_row_step,
            ))
        return lrs.size

    def _groups_per_run(self, per_batch: int) -> int:
        """Groups handed to the kernel at once: whole batches, as many as
        :data:`RUN_UNIFORM_BYTES` of negative uniforms cover, at least one."""
        batch_bytes = 8 * self.negative * per_batch
        return max(RUN_UNIFORM_BYTES // batch_bytes, 1) * per_batch

    def _train_windows(self, centers, sizes, contexts, rng, block_no) -> None:
        """Both modes train windows: one center occurrence and its
        included contexts, which draw ``negative`` negatives once. CBOW
        predicts the center from the mean of the contexts' input vectors;
        skip-gram scores each context's input vector on its own against
        [center, negatives]. Windows are shuffled per epoch and packed
        :meth:`_windows_per_batch` to a batch."""
        num_windows = centers.size
        starts = np.cumsum(sizes) - sizes
        per_batch = self._windows_per_batch()
        batches_per_epoch = max((num_windows + per_batch - 1) // per_batch, 1)
        lrs = self._block_lrs(block_no, self.epochs * batches_per_epoch)
        per_run = self._groups_per_run(per_batch)
        # a run's input rows, which the C gather fills run after run
        rows = None if self._kernel is None else np.empty(
            min(contexts.size, per_run * 2 * self.window), dtype=np.int32
        )
        batch_no = 0
        for __ in range(self.epochs):
            perm = rng.permutation(num_windows)
            for s in range(0, num_windows, per_run):
                run = self._gather(perm[s : s + per_run], starts, sizes, centers, contexts, rows)
                batch_no += self._train_run(*run, per_batch, rng, lrs[batch_no:])

    def _gather(self, chunk, starts, sizes, centers, contexts, rows):
        """A run's ``(in_rows, sizes, out_pos)``: the windows ``chunk``
        names, in its order; gathered in C into ``rows`` when the kernel
        resolved."""
        if self._kernel is not None:
            return self._kernel.gather(chunk, starts, sizes, centers, contexts, rows)
        from repro.walks._segments import concat_ranges

        chunk_sizes = sizes[chunk]
        pair_idx = concat_ranges(starts[chunk], chunk_sizes)[0]
        return contexts[pair_idx], chunk_sizes, centers[chunk]
