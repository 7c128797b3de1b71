"""The compiled learn kernel against the NumPy reference batch updates.

Both modes train *windows*: a group of input rows with one positive
output row and ``negative`` negatives drawn once for the group. CBOW
averages the group's rows; skip-gram scores each row on its own, which
the reference spells as the per-pair update of ``(row, center)`` pairs
with the group's negatives repeated per row.

What must be **exact** between ``repro.embedding.kernels`` (C) and
``repro.embedding.word2vec.sgns_batch`` / ``cbow_batch`` (reference):
everything integer or RNG-derived — negative indices for every uniform,
batch count, learning rates. What gets a **tolerance**, fixed here from
the dtype before anything was measured: float results, which differ by
summation order (``einsum``/scipy choose their own) and the last ulp of
``exp``/``log``.

* one batch: ``|Δw| <= eps32 * max(dim, n) * max(1, max|w|)``
  (:func:`batch_tol`), ``n`` being the number of contributions summed
  into the busiest row of the batch (:func:`busiest_row`, counted over
  the pairs the reference sums: a skip-gram window's positive and
  negatives once per row of the window). Two sums feed
  a row and each gets its term. A float32 dot product of ``dim`` terms
  carries about ``eps32 * dim * max|w|`` and the final ``w += step``
  rounds to one ulp of ``w``: the ``dim`` term. The row's step is then
  the sum of ``n`` contributions ``coefficient * vector``, one per
  (group, target) pair that names the row; each is a float32 product
  whose coefficient (a sigmoid) differs between reference and kernel in
  the last ulp of ``exp``, so each carries up to ``eps32 * lr * max|w|``
  of its own, and in the worst case those add: ``eps32 * n * max|w|``
  with ``lr <= 1``. The accumulator is float64 on both sides, so the
  *order* of the ``n`` additions costs nothing measurable; the count
  does. The first term is the whole bound when ``n <= dim``; the second
  decides when a tiny vocabulary sends every contribution to one row
  (``vocab=1, dim=1``: 168 of them, 1.5 ulp observed). The two examples
  pinned on the property below are such batches, recorded as failures
  of a bound with the first term only;
* one batch's loss, a float32 mean of k terms in the reference:
  relative ``1e-5`` (eps32 × log2 k ≲ 2e-6);
* a whole fit: cosine of matched rows ≥ 0.9999 and equal micro-F1 to 3
  decimals.

Within the C kernel results are bitwise repeatable, which the full-fit
tests assert, and do not depend on how many threads a call uses or on
how consecutive batches are cut into calls: the run-entry property and
the golden fits at the bottom pin that, the latter against recorded
hashes (CBOW's from the single-threaded per-batch kernel). The thread count is
forced through ``CTrainKernel.run(threads=)``, which only these tests
(and one benchmark row) pass. Tests needing the kernel skip cleanly on
a host without a C compiler; the fallback tests run everywhere.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.embedding.kernels as kernels
import repro.embedding.word2vec as word2vec
from repro.embedding import NegativeSampler, Word2Vec
from repro.embedding.kernels import (
    ACCUM_DTYPE, MAX_THREADS, PANEL_COLUMNS, BatchScratch, cdf_guide, resolve_train_kernel,
)
from repro.embedding.word2vec import cbow_batch, scatter_add_rows, sgns_batch
from repro.errors import TrainingError
from repro.walks.corpus import WalkCorpus

EPS32 = float(np.finfo(np.float32).eps)
LOSS_RTOL = 1e-5


def busiest_row(batch, neg):
    """How many contributions the batch sums into its busiest row: each
    occurrence of an input row receives ``1 + negative`` (one per
    target of its group), an output row one per positive or negative
    hit — in skip-gram once per row of the window that names it."""
    vocab = batch["w_in"].shape[0]
    per_in = np.bincount(batch["in_rows"], minlength=vocab) * (1 + neg.shape[1])
    times = batch["sizes"] if batch["mode"] == "skipgram" else 1
    per_out = np.bincount(np.repeat(batch["out_pos"], times), minlength=vocab) + np.bincount(
        np.repeat(neg, times, axis=0).ravel(), minlength=vocab
    )
    return int(max(per_in.max(initial=0), per_out.max(initial=0)))


def batch_tol(terms, *weights):
    """``terms``: the longer of the two sums behind one weight, the dot
    product (``dim``) and the row's contributions (module docstring)."""
    return EPS32 * terms * max(1.0, max(float(np.abs(w).max()) for w in weights))


@pytest.fixture(scope="module")
def kernel():
    found = resolve_train_kernel()
    if found is None:
        pytest.skip("no C compiler on this host: the learn kernel cannot be built")
    return found


# ---------------------------------------------------------------------------
# batch construction
# ---------------------------------------------------------------------------
#: the most rows a skip-gram window has: both sides of the trainer's
#: default window
MAX_WINDOW = 10


def make_batch(seed, vocab, dim, groups, negative, mode, *, hot=None):
    """Random weights and one batch. ``hot`` restricts the rows a batch
    touches to the first ``hot`` tokens (duplication pressure); a
    skip-gram window has 1 to :data:`MAX_WINDOW` rows, a CBOW group 1
    to 6."""
    rng = np.random.default_rng(seed)
    hot = vocab if hot is None else max(1, min(hot, vocab))
    batch = {
        "w_in": (rng.random((vocab, dim)) - 0.5).astype(np.float32),
        "w_out": (0.4 * rng.standard_normal((vocab, dim))).astype(np.float32),
        "sampler": NegativeSampler(rng.integers(1, 50, vocab)),
        "out_pos": rng.integers(0, hot, groups).astype(np.int32),
        "u": rng.random((groups, negative)),
        "lr": 0.02,
        "mode": mode,
    }
    longest = MAX_WINDOW if mode == "skipgram" else 6
    batch["sizes"] = rng.integers(1, longest + 1, groups).astype(np.int64)
    batch["in_rows"] = rng.integers(0, hot, int(batch["sizes"].sum())).astype(np.int32)
    return batch


def run_reference(batch, max_row_step):
    w_in, w_out = batch["w_in"].copy(), batch["w_out"].copy()
    neg = batch["sampler"].indices(batch["u"])
    update = sgns_batch if batch["mode"] == "skipgram" else cbow_batch
    loss = update(
        w_in, w_out, batch["in_rows"], batch["sizes"], batch["out_pos"], neg,
        batch["lr"], max_row_step,
    )
    return w_in, w_out, loss, neg


def run_kernel(kernel, batch, max_row_step):
    return call_kernel(kernel, batch, max_row_step, batch["w_in"].copy(), batch["w_out"].copy())


def scratch_for(batch):
    vocab, dim = batch["w_in"].shape
    groups, negative = batch["u"].shape
    return BatchScratch(
        vocab, dim, max(batch["in_rows"].size, 1), max(groups, 1), negative, batch["mode"]
    )


def call_kernel(kernel, batch, max_row_step, w_in, w_out, scratch=None):
    groups, negative = batch["u"].shape
    scratch = scratch or scratch_for(batch)
    loss = kernel.batch(
        w_in, w_out, batch["in_rows"], batch["sizes"], batch["out_pos"], batch["u"],
        batch["sampler"].cdf, batch["lr"], max_row_step, scratch,
    )
    return w_in, w_out, loss, scratch.neg[:groups]


def assert_batch_parity(kernel, batch, max_row_step, *, must_move=True):
    ref_in, ref_out, ref_loss, ref_neg = run_reference(batch, max_row_step)
    c_in, c_out, c_loss, c_neg = run_kernel(kernel, batch, max_row_step)
    assert np.array_equal(c_neg, ref_neg)
    dim = batch["w_in"].shape[1]
    tol = batch_tol(max(dim, busiest_row(batch, ref_neg)), ref_in, ref_out)
    assert np.abs(c_in - ref_in).max() <= tol
    assert np.abs(c_out - ref_out).max() <= tol
    assert c_loss == pytest.approx(ref_loss, rel=LOSS_RTOL)
    if must_move:  # parity of two no-ops proves nothing
        assert not np.array_equal(ref_in, batch["w_in"])
        assert not np.array_equal(ref_out, batch["w_out"])


def cut_into_batches(batch, cuts):
    """``(offsets, per-batch input-row offsets, lrs)`` of ``batch`` cut
    into consecutive batches at the group indices ``cuts``."""
    groups = batch["out_pos"].size
    offsets = np.array(sorted({0, groups, *cuts}), dtype=np.int64)
    rows = np.append(0, np.cumsum(batch["sizes"]))[offsets]
    lrs = 0.01 + 0.002 * np.arange(offsets.size - 1, dtype=np.float64)
    return offsets, rows, lrs


def threads_for_work(batch, offsets):
    """The thread count a run of ``batch`` cut at ``offsets`` takes when
    none is forced: one per 2**16 of a mean batch's work
    (``MIN_WORK_PER_THREAD`` in the C source), counted as d times the
    vectors it passes over, up to the column panels and the CPUs of the
    affinity mask."""
    dim = batch["w_in"].shape[1]
    negative = batch["u"].shape[1]
    rows = int(batch["sizes"].sum())
    units = batch["out_pos"].size if batch["mode"] == "cbow" else rows
    work = (units * (1 + negative) + rows) // (offsets.size - 1) * dim >> 16
    panels = -(-dim // PANEL_COLUMNS)
    return min(max(1, min(work, panels, affinity_cpus())), MAX_THREADS)


def affinity_cpus():
    """CPUs the kernel counts when it picks its own thread count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def call_run(kernel, batch, offsets, lrs, max_row_step, scratch=None, **kwargs):
    """The whole of ``batch`` as one run; ``(w_in, w_out, losses)``."""
    w_in, w_out = batch["w_in"].copy(), batch["w_out"].copy()
    losses = kernel.run(
        w_in, w_out, batch["in_rows"], batch["sizes"], batch["out_pos"], batch["u"],
        batch["sampler"].cdf, offsets, lrs, max_row_step, scratch or scratch_for(batch),
        **kwargs,
    )
    return w_in, w_out, losses


@pytest.fixture
def force_threads(monkeypatch):
    """``force_threads(count)`` makes every kernel run of the test use
    ``count`` threads (``None``: the kernel's own choice) and returns the
    list that collects how many each run used. Nothing outside these
    tests passes a count: a trainer cannot."""
    def force(count):
        used = []
        original = kernels.CTrainKernel.run

        def run(self, *args):
            losses = original(self, *args, threads=count)
            used.append(args[-1].threads)
            return losses

        monkeypatch.setattr(kernels.CTrainKernel, "run", run)
        return used
    return force


# ---------------------------------------------------------------------------
# the inverse-CDF map has one definition
# ---------------------------------------------------------------------------
class TestInverseCdf:
    COUNTS = [
        [5, 3, 2],
        [7],  # single-token vocabulary
        [4, 0, 0, 3, 0, 1],  # zero-count tokens: flat runs of the CDF
        [0, 0, 9, 0],  # leading and trailing flat runs
        list(range(1, 300)),
    ]

    @staticmethod
    def skewed(seed, size=16384):
        """Counts of 16k-entry vocabularies whose CDF crowds its guide
        table's buckets: Zipf, one token holding nearly all the mass, and
        long zero-count (flat) runs."""
        rng = np.random.default_rng(seed)
        zipf = np.floor(1e9 / np.arange(1, size + 1) ** 1.5)
        giant = np.ones(size)
        giant[rng.integers(size)] = 1e12
        flat = rng.integers(1, 50, size) * (rng.random(size) < 0.05)
        flat[-1] = 1
        return [zipf, giant, flat]

    @staticmethod
    def adversarial(cdf, rng):
        """Uniforms at every CDF entry and a step either side of it, at
        every guide bucket's edge and a step either side, and at random."""
        buckets = cdf_guide(cdf).size
        edges = np.concatenate([cdf, np.arange(buckets) / buckets])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges, rng.random(500)])
        return np.ascontiguousarray(u[(u >= 0.0) & (u < 1.0)])

    @pytest.mark.parametrize("case", range(3))
    def test_c_search_on_skewed_16k_cdfs(self, kernel, case, rng):
        counts = self.skewed(case)[case]
        sampler = NegativeSampler(counts)
        u = self.adversarial(sampler.cdf, rng)
        expected = np.searchsorted(sampler.cdf, u, side="right")
        assert np.array_equal(kernel.search(sampler.cdf, u), expected)
        assert np.all(counts[expected] > 0)

    @pytest.mark.parametrize("counts", COUNTS)
    def test_guide_table_is_the_count_at_each_bucket_edge(self, counts):
        cdf = NegativeSampler(np.array(counts)).cdf
        guide = cdf_guide(cdf)
        buckets = guide.size
        assert buckets >= cdf.size and buckets & (buckets - 1) == 0
        assert np.array_equal(guide, np.searchsorted(cdf, np.arange(buckets) / buckets, "right"))

    def test_search_refuses_uniforms_outside_the_unit_interval(self, kernel):
        cdf = NegativeSampler(np.array([1.0, 2.0])).cdf
        for bad in (1.0, -0.0 - 1e-300, np.nan):
            with pytest.raises(TrainingError):
                kernel.search(cdf, np.array([0.5, bad]))

    @pytest.mark.parametrize("counts", COUNTS)
    def test_c_search_equals_indices(self, kernel, counts, rng):
        sampler = NegativeSampler(np.array(counts))
        u = self.adversarial(sampler.cdf, rng)
        expected = sampler.indices(u)
        assert np.array_equal(kernel.search(sampler.cdf, u), expected)
        assert np.array_equal(expected, np.searchsorted(sampler.cdf, u, side="right"))
        assert expected.dtype == np.int64
        assert expected.min() >= 0 and expected.max() < len(counts)
        # a zero-count token is never selected
        assert np.all(np.asarray(counts)[expected] > 0)

    def test_draw_is_indices_of_uniforms(self):
        sampler = NegativeSampler(np.array([5.0, 1.0, 0.0, 3.0]))
        drawn = sampler.draw(np.random.default_rng(3), (6, 4))
        u = np.random.default_rng(3).random((6, 4))
        assert np.array_equal(drawn, sampler.indices(u))
        assert np.array_equal(drawn, np.searchsorted(sampler.cdf, u, side="right"))

    def test_cdf_is_read_only(self):
        sampler = NegativeSampler(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            sampler.cdf[0] = 0.0


# ---------------------------------------------------------------------------
# one batch: reference vs C
# ---------------------------------------------------------------------------
class TestOneBatchParity:
    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    @pytest.mark.parametrize("dim", [1, 7, 128, 130])
    @pytest.mark.parametrize("negative", [1, 5])
    @pytest.mark.parametrize("max_row_step", [None, 0.25])
    def test_grid(self, kernel, mode, dim, negative, max_row_step):
        batch = make_batch(dim * 10 + negative, 60, dim, 200, negative, mode)
        assert_batch_parity(kernel, batch, max_row_step)

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_three_token_vocabulary_clip_active(self, kernel, mode):
        # every row is hit hundreds of times, so the summed step is far
        # beyond max_row_step and the clip decides the result
        batch = make_batch(5, 3, 16, 900, 5, mode)
        batch["lr"] = 0.5
        assert_batch_parity(kernel, batch, 0.25)
        c_in, c_out, __, __ = run_kernel(kernel, batch, 0.25)
        for before, after in ((batch["w_in"], c_in), (batch["w_out"], c_out)):
            steps = np.linalg.norm(after.astype(np.float64) - before, axis=1)
            assert np.allclose(steps, 0.25, rtol=1e-4)
        unclipped, __, __, __ = run_kernel(kernel, batch, None)
        assert np.linalg.norm(unclipped - batch["w_in"], axis=1).min() > 1.0

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_empty_batch_is_a_no_op(self, kernel, mode):
        batch = make_batch(6, 10, 8, 0, 5, mode)
        for w_in, w_out, loss, __ in (run_reference(batch, 0.25), run_kernel(kernel, batch, 0.25)):
            assert np.array_equal(w_in, batch["w_in"]) and np.array_equal(w_out, batch["w_out"])
            assert np.isnan(loss)

    @pytest.mark.parametrize("max_row_step", [None, 0.25])
    def test_negatives_hit_their_own_window(self, kernel, max_row_step):
        # two tokens: a window's shared negatives are its own center, or
        # rows of its own context, or both
        batch = make_batch(8, 2, 16, 60, 5, "skipgram")
        neg = batch["sampler"].indices(batch["u"])
        window = np.repeat(np.arange(60), batch["sizes"])
        assert (neg == batch["out_pos"][:, None]).any()
        assert (neg[window] == batch["in_rows"][:, None]).any()
        assert (neg != batch["out_pos"][:, None]).any()
        assert_batch_parity(kernel, batch, max_row_step)

    def test_a_window_is_its_rows_with_shared_negatives(self, kernel):
        # the window form of skip-gram is the per-pair update of its rows,
        # each against the window's center and negatives
        batch = make_batch(9, 30, 12, 40, 5, "skipgram")
        pairs = dict(batch)
        pairs["out_pos"] = np.repeat(batch["out_pos"], batch["sizes"])
        pairs["u"] = np.repeat(batch["u"], batch["sizes"], axis=0)
        pairs["sizes"] = np.ones(batch["in_rows"].size, dtype=np.int64)
        windows, per_pair = run_reference(batch, 0.25), run_reference(pairs, 0.25)
        assert np.array_equal(windows[0], per_pair[0]) and np.array_equal(windows[1], per_pair[1])
        assert windows[2] == per_pair[2]
        c_in, c_out, __, __ = run_kernel(kernel, batch, 0.25)
        tol = batch_tol(max(12, busiest_row(batch, windows[3])), windows[0], windows[1])
        assert np.abs(c_in - per_pair[0]).max() <= tol
        assert np.abs(c_out - per_pair[1]).max() <= tol

    def test_gradients_use_pre_batch_weights(self, kernel):
        # the same pair twice in one batch must step exactly twice as far
        # as once (stale weights), not as two sequential updates would
        batch = make_batch(7, 5, 8, 1, 2, "skipgram")
        once_in, __, __, __ = run_kernel(kernel, batch, None)
        for key in ("in_rows", "sizes", "out_pos", "u"):
            batch[key] = np.concatenate([batch[key], batch[key]])
        twice_in, __, __, __ = run_kernel(kernel, batch, None)
        row = batch["in_rows"][0]
        step = once_in[row].astype(np.float64) - batch["w_in"][row]
        assert np.allclose(twice_in[row] - batch["w_in"][row], 2 * step, rtol=1e-5, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        vocab=st.integers(1, 40),
        # one panel, and several, the last one narrower
        dim=st.one_of(st.integers(1, 40), st.integers(PANEL_COLUMNS - 2, 2 * PANEL_COLUMNS + 20)),
        groups=st.integers(1, 120),
        negative=st.integers(1, 6),
        duplication=st.floats(0.0, 1.0),
        mode=st.sampled_from(["skipgram", "cbow"]),
        clip=st.sampled_from([None, 0.25]),
        seed=st.integers(0, 2**16),
    )
    # the two recorded failures of the dim-only bound (module docstring)
    @example(vocab=1, dim=1, groups=42, negative=3, duplication=0.0, mode="skipgram", clip=None, seed=76)
    @example(vocab=1, dim=1, groups=56, negative=5, duplication=0.0, mode="skipgram", clip=None, seed=59)
    def test_property(self, kernel, vocab, dim, groups, negative, duplication, mode, clip, seed):
        hot = round(vocab * (1.0 - duplication))
        batch = make_batch(seed, vocab, dim, groups, negative, mode, hot=hot)
        # a one-token vocabulary can produce steps below one ulp of w
        assert_batch_parity(kernel, batch, clip, must_move=False)


# ---------------------------------------------------------------------------
# preconditions are checked before any pointer is passed
# ---------------------------------------------------------------------------
class TestPreconditions:
    def bad(self, kernel, mode="skipgram", **changes):
        """One input of a valid batch replaced; the call must raise and
        leave both matrices as they were."""
        batch = make_batch(11, 12, 8, 20, 3, mode)
        scratch = scratch_for(batch)  # sized for the valid batch
        weights = {"w_in": batch["w_in"].copy(), "w_out": batch["w_out"].copy()}
        for key, change in changes.items():
            if key in weights:
                weights[key] = change(weights[key])
            else:
                batch[key] = change(batch[key])
        before = {key: np.array(w) for key, w in weights.items()}
        with pytest.raises(TrainingError):
            call_kernel(kernel, batch, 0.25, **weights, scratch=scratch)
        assert all(np.array_equal(weights[key], before[key]) for key in weights)

    @staticmethod
    def poke(index, value):
        def change(arr):
            arr = arr.copy()
            arr.flat[index] = value
            return arr
        return change

    @pytest.mark.parametrize("key", ["in_rows", "out_pos"])
    @pytest.mark.parametrize("value", [-1, 12, 2**31 - 1])
    def test_out_of_range_index(self, kernel, key, value):
        self.bad(kernel, **{key: self.poke(3, value)})

    @pytest.mark.parametrize("key", ["w_in", "w_out"])
    def test_non_contiguous_weights(self, kernel, key):
        self.bad(kernel, **{key: lambda w: np.asfortranarray(w)})
        self.bad(kernel, **{key: lambda w: np.repeat(w, 2, axis=1)[:, ::2]})

    def test_wrong_dtypes(self, kernel):
        self.bad(kernel, w_in=lambda w: w.astype(np.float64))
        self.bad(kernel, in_rows=lambda r: r.astype(np.int64))
        self.bad(kernel, out_pos=lambda r: r.astype(np.int64))
        self.bad(kernel, u=lambda u: u.astype(np.float32))
        for mode in ("skipgram", "cbow"):
            self.bad(kernel, mode, sizes=lambda s: s.astype(np.int32))
            self.bad(kernel, mode, sizes=lambda s: None)
        self.bad(kernel, in_rows=lambda r: r.tolist())

    def test_read_only_weights(self, kernel):
        def frozen(w):
            w = w.copy()
            w.flags.writeable = False
            return w
        self.bad(kernel, w_out=frozen)

    @pytest.mark.parametrize("value", [1.0, -1e-9, np.nan, np.inf])
    def test_uniform_outside_unit_interval(self, kernel, value):
        self.bad(kernel, u=self.poke(5, value))

    def test_shape_mismatches(self, kernel):
        self.bad(kernel, u=lambda u: u[:-1])
        self.bad(kernel, u=lambda u: np.ascontiguousarray(u[:, :-1]))
        self.bad(kernel, in_rows=lambda r: r[:-1])
        self.bad(kernel, w_out=lambda w: np.ascontiguousarray(w[:-1]))
        for mode in ("skipgram", "cbow"):
            self.bad(kernel, mode, sizes=self.poke(0, 0))
            self.bad(kernel, mode, sizes=lambda s: s + 1)

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_scratch_of_another_shape(self, kernel, mode):
        batch = make_batch(12, 12, 8, 20, 3, mode)
        rows = batch["in_rows"].size
        args = (
            batch["w_in"], batch["w_out"], batch["in_rows"], batch["sizes"], batch["out_pos"],
            batch["u"], batch["sampler"].cdf, 0.02, 0.25,
        )
        kernel.batch(*args, BatchScratch(12, 8, rows, 20, 3, mode))
        for scratch in (
            BatchScratch(13, 8, rows, 20, 3, mode),  # another vocabulary
            BatchScratch(12, 9, rows, 20, 3, mode),  # another dimension
            BatchScratch(12, 8, rows, 19, 3, mode),  # sized for fewer groups
            BatchScratch(12, 8, rows - 1, 20, 3, mode),  # sized for fewer rows
            BatchScratch(12, 8, rows, 20, 4, mode),  # another negative count
        ):
            with pytest.raises(TrainingError):
                kernel.batch(*args, scratch)
        other = NegativeSampler(np.ones(11))
        with pytest.raises(TrainingError):
            kernel.batch(*args[:6], other.cdf, 0.02, 0.25, BatchScratch(12, 8, rows, 20, 3, mode))
        with pytest.raises(TrainingError, match="mode"):
            BatchScratch(12, 8, rows, 20, 3, "skip-gram")

    # -- the run entry's own preconditions ---------------------------------
    def bad_run(self, kernel, mode="skipgram", **changes):
        """A valid run of three batches with one argument replaced."""
        batch = make_batch(14, 12, 8, 20, 3, mode)
        offsets, __, lrs = cut_into_batches(batch, [6, 13])
        args = {"offsets": offsets, "lrs": lrs, "threads": None}
        for key, change in changes.items():
            args[key] = change(args[key])
        with pytest.raises(TrainingError):
            call_run(kernel, batch, max_row_step=0.25, **args)

    def test_batch_offsets(self, kernel):
        self.bad_run(kernel, offsets=self.poke(0, 1))  # does not start at 0
        self.bad_run(kernel, offsets=self.poke(-1, 19))  # does not end at the group count
        self.bad_run(kernel, offsets=self.poke(-1, 21))
        self.bad_run(kernel, offsets=self.poke(1, 13))  # an empty batch
        self.bad_run(kernel, offsets=self.poke(1, 14))  # going backwards
        self.bad_run(kernel, offsets=lambda o: o[:0])
        self.bad_run(kernel, offsets=lambda o: o.astype(np.int32))
        self.bad_run(kernel, offsets=lambda o: o.tolist())

    def test_one_learning_rate_per_batch(self, kernel):
        self.bad_run(kernel, lrs=lambda lrs: lrs[:-1])
        self.bad_run(kernel, lrs=lambda lrs: np.append(lrs, 0.01))
        self.bad_run(kernel, lrs=lambda lrs: lrs.astype(np.float32))
        self.bad_run(kernel, lrs=lambda lrs: 0.01)

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_no_batch_larger_than_the_scratch(self, kernel, mode):
        # the run as a whole may exceed the scratch; one batch may not
        batch = make_batch(14, 12, 8, 20, 3, mode)
        offsets, rows, lrs = cut_into_batches(batch, [6, 13])
        groups, in_rows = int(np.diff(offsets).max()), int(np.diff(rows).max())
        call_run(kernel, batch, offsets, lrs, 0.25, BatchScratch(12, 8, in_rows, groups, 3, mode))
        for small in ((in_rows, groups - 1), (in_rows - 1, groups)):
            with pytest.raises(TrainingError):
                call_run(kernel, batch, offsets, lrs, 0.25, BatchScratch(12, 8, *small, 3, mode))

    @pytest.mark.parametrize("threads", [0, -1, MAX_THREADS + 1])
    def test_thread_count_outside_its_range(self, kernel, threads):
        self.bad_run(kernel, threads=lambda __: threads)

    def test_negative_or_nan_max_row_step(self, kernel):
        batch = make_batch(14, 12, 8, 20, 3, "skipgram")
        offsets, __, lrs = cut_into_batches(batch, [])
        for clip in (-1.0, float("nan")):
            with pytest.raises(TrainingError):
                call_run(kernel, batch, offsets, lrs, clip)


# ---------------------------------------------------------------------------
# the run entry: any cut into calls, any number of threads, the same bits
# ---------------------------------------------------------------------------
class TestRunEntry:
    @settings(max_examples=40, deadline=None)
    @given(
        vocab=st.integers(1, 40),
        # one panel, and several, the last one narrower
        dim=st.one_of(st.integers(1, 40), st.integers(PANEL_COLUMNS - 2, 2 * PANEL_COLUMNS + 20)),
        groups=st.integers(1, 120),
        negative=st.integers(1, 6),
        duplication=st.floats(0.0, 1.0),
        mode=st.sampled_from(["skipgram", "cbow"]),
        clip=st.sampled_from([None, 0.25]),
        cuts=st.lists(st.integers(1, 119), max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_property(self, kernel, vocab, dim, groups, negative, duplication, mode, clip, cuts, seed):
        hot = round(vocab * (1.0 - duplication))
        batch = make_batch(seed, vocab, dim, groups, negative, mode, hot=hot)
        offsets, rows, lrs = cut_into_batches(batch, [cut for cut in cuts if cut < groups])
        scratch = scratch_for(batch)
        # the same batches, one call each
        w_in, w_out = batch["w_in"].copy(), batch["w_out"].copy()
        losses = []
        for b, lr in enumerate(lrs):
            one = slice(offsets[b], offsets[b + 1])
            losses.append(kernel.batch(
                w_in, w_out, batch["in_rows"][rows[b] : rows[b + 1]], batch["sizes"][one],
                batch["out_pos"][one], batch["u"][one], batch["sampler"].cdf, lr, clip, scratch,
            ))
        # more threads than groups and than panels, too; None is the
        # kernel's own choice, the work rule's count
        chosen = threads_for_work(batch, offsets)
        for threads in (None, 1, 2, 3, 7, min(groups + 3, MAX_THREADS)):
            got_in, got_out, got_losses = call_run(
                kernel, batch, offsets, lrs, clip, scratch, threads=threads
            )
            assert scratch.threads == (chosen if threads is None else threads)
            assert np.array_equal(got_in, w_in) and np.array_equal(got_out, w_out)
            assert got_losses.tolist() == losses

    def test_a_batch_large_enough_is_shared_unasked(self, kernel):
        batch = make_batch(1, 40, 2 * PANEL_COLUMNS, 120, 6, "skipgram")
        offsets, __, lrs = cut_into_batches(batch, [])
        scratch = scratch_for(batch)
        w_in, w_out, losses = call_run(kernel, batch, offsets, lrs, 0.25, scratch, threads=1)
        got_in, got_out, got_losses = call_run(kernel, batch, offsets, lrs, 0.25, scratch)
        assert scratch.threads == threads_for_work(batch, offsets)
        assert scratch.threads > 1 or affinity_cpus() == 1
        assert np.array_equal(got_in, w_in) and np.array_equal(got_out, w_out)
        assert got_losses.tolist() == losses.tolist()

    def test_an_empty_run(self, kernel):
        batch = make_batch(6, 10, 8, 0, 5, "skipgram")
        w_in, w_out, losses = call_run(
            kernel, batch, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.float64), 0.25
        )
        assert losses.size == 0
        assert np.array_equal(w_in, batch["w_in"]) and np.array_equal(w_out, batch["w_out"])


# ---------------------------------------------------------------------------
# a block's windows and a run's gather, in C, against the NumPy trainer
# ---------------------------------------------------------------------------
@st.composite
def blocks(draw):
    """An encoded block as the trainer builds one: walks of 0..width
    tokens padded with -1 to the block's width (a walk of length 0: every
    token dropped by ``min_count``), and holes where subsampling dropped
    a token."""
    width = draw(st.integers(0, 12))
    lengths = draw(st.lists(st.integers(0, width), max_size=6))
    holes = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    block = np.full((len(lengths), width), -1, dtype=np.int32)
    for row, length in enumerate(lengths):
        block[row, :length] = rng.integers(0, 20, length)
    block[rng.random(block.shape) < holes] = -1
    return block


def compiled_and_reference(window):
    compiled, reference = Word2Vec(4, window=window), Word2Vec(4, window=window)
    reference._kernel = None
    assert (compiled.kernel, reference.kernel) == ("cnative", "numpy")
    return compiled, reference


class TestWindowBuilder:
    @settings(max_examples=150, deadline=None)
    @given(block=blocks(), window=st.integers(1, 14), seed=st.integers(0, 2**16))
    @example(block=np.full((3, 0), -1, dtype=np.int32), window=2, seed=0)  # width 0
    @example(block=np.array([[5, -1, -1], [-1, -1, -1], [2, 3, -1]], dtype=np.int32), window=1, seed=0)
    def test_equals_the_numpy_windows(self, kernel, block, window, seed):
        compiled, reference = compiled_and_reference(window)
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = compiled._windows(block, rngs[0])
        want = reference._windows(block, rngs[1])
        for name, g, w in zip(("centers", "sizes", "contexts"), got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), name
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_every_output_is_exactly_as_long_as_its_windows(self, kernel):
        encoded = np.random.default_rng(3).integers(-1, 30, (50, 20)).astype(np.int32)
        u = np.random.default_rng(4).random(kernels.window_draws(encoded.shape, 5))
        centers, sizes, contexts = kernel.windows(encoded, 5, u)
        assert all(arr.base is None for arr in (centers, sizes, contexts))
        assert centers.size == sizes.size and sizes.sum() == contexts.size and sizes.min() >= 1

    def test_refusals(self, kernel):
        encoded = np.zeros((4, 9), dtype=np.int32)
        u = np.zeros(kernels.window_draws(encoded.shape, 3))
        for bad in (
            (encoded.astype(np.int64), 3, u), (np.asfortranarray(encoded), 3, u),
            (encoded, 3, u[:-1]), (encoded, 3, u.astype(np.float32)), (encoded, 0, u),
        ):
            with pytest.raises(TrainingError):
                kernel.windows(*bad)


class TestRunGather:
    @staticmethod
    def windows(kernel, seed):
        rng = np.random.default_rng(seed)
        encoded = rng.integers(-1, 30, (40, 25)).astype(np.int32)
        windows = kernel.windows(encoded, 5, rng.random(kernels.window_draws(encoded.shape, 5)))
        starts = np.cumsum(windows[1]) - windows[1]
        return rng, starts, windows

    @pytest.mark.parametrize("epochs", [1, 3])
    @pytest.mark.parametrize("per_run", [1, 7, 128, 10**6])
    def test_equals_concat_ranges(self, kernel, per_run, epochs):
        from repro.walks._segments import concat_ranges

        rng, starts, (centers, sizes, contexts) = self.windows(kernel, per_run + epochs)
        # one buffer, run after run, as the trainer holds it
        out = np.empty(min(contexts.size, per_run * 2 * 5), dtype=np.int32)
        short = 0
        for __ in range(epochs):
            perm = rng.permutation(centers.size)
            for s in range(0, centers.size, per_run):
                chunk = perm[s : s + per_run]
                short += chunk.size < per_run
                in_rows, run_sizes, out_pos = kernel.gather(chunk, starts, sizes, centers, contexts, out)
                want = contexts[concat_ranges(starts[chunk], sizes[chunk])[0]]
                assert in_rows.dtype == want.dtype and np.array_equal(in_rows, want)
                assert run_sizes.dtype == sizes.dtype and np.array_equal(run_sizes, sizes[chunk])
                assert out_pos.dtype == centers.dtype and np.array_equal(out_pos, centers[chunk])
        assert short == (epochs if centers.size % per_run else 0)

    def test_refusals(self, kernel):
        __, starts, (centers, sizes, contexts) = self.windows(kernel, 0)
        out = np.empty(contexts.size, dtype=np.int32)
        perm = np.arange(centers.size)
        for change in (
            {"perm": perm - 1}, {"perm": perm + 1}, {"starts": starts + 1},
            {"starts": starts - starts[1]}, {"out": out[:-1]}, {"out": out.astype(np.int64)},
            {"sizes": sizes[:-1]}, {"perm": perm.astype(np.int32)},
        ):
            args = {"perm": perm, "starts": starts, "sizes": sizes, "centers": centers,
                    "contexts": contexts, "out": out, **change}
            with pytest.raises(TrainingError):
                kernel.gather(**args)
        in_rows, __, __ = kernel.gather(perm, starts, sizes, centers, contexts, out)
        assert np.array_equal(in_rows, contexts)

    def test_a_compiled_fit_gathers_in_c(self, kernel, monkeypatch):
        import repro.walks._segments as segments

        def refused(*args):
            raise AssertionError("concat_ranges called on the compiled path")

        monkeypatch.setattr(segments, "concat_ranges", refused)
        corpus = WalkCorpus.from_lists(np.random.default_rng(5).integers(0, 15, (30, 12)).tolist())
        trainer = Word2Vec(8, epochs=2, batch_pairs=64, seed=1)
        assert trainer.kernel == "cnative"
        assert len(trainer.fit(corpus, num_nodes=15)) == 15


# ---------------------------------------------------------------------------
# the threads under ThreadSanitizer
# ---------------------------------------------------------------------------
#: A ``main`` around the kernel source: a generated run of batches (d
#: three panels, the last one narrower; input rows from the first 5, so
#: that every batch meets a row many times; 48 rows, so that skip-gram
#: works on copies of the columns and CBOW in place), trained in both
#: modes with the clip on and off at the thread counts given on the
#: command line.
TSAN_MAIN = r"""
int main(int argc, char **argv) {
    enum { V = 48, D = 2 * PANEL + 7, G = 160, NEG = 3, B = 5, MAXM = 6 };
    static float w_in[V * D], w_out[V * D];
    static int32_t in_rows[G * MAXM], out_pos[G], guide[64];
    static int64_t off[B + 1], row_start[G + 1], negs[G * NEG];
    static double u[G * NEG], cdf[V], lr[B], losses[B];
    uint64_t x = 88172645463325252u;
#define NEXT() (x ^= x << 13, x ^= x >> 7, x ^= x << 17, x)
    double total = 0.0;
    for (int v = 0; v < V; v++) cdf[v] = total += 1.0 + (double)(NEXT() % 9);
    for (int v = 0; v < V; v++) cdf[v] /= total;
    cdf[V - 1] = 1.0;
    for (int k = 0, i = 0; k < 64; k++) {
        while (i < V && cdf[i] <= k / 64.0) i++;
        guide[k] = i;
    }
    for (int g = 0; g < G; g++) {
        row_start[g + 1] = row_start[g] + 1 + (int64_t)(NEXT() % MAXM);
        out_pos[g] = (int32_t)(NEXT() % V);
    }
    for (int64_t k = 0; k < row_start[G]; k++) in_rows[k] = (int32_t)(NEXT() % 5);
    for (int k = 0; k < G * NEG; k++) u[k] = (double)(NEXT() >> 11) * 0x1.0p-53;
    for (int b = 0; b <= B; b++) off[b] = (int64_t)b * G / B;
    for (int b = 0; b < B; b++) lr[b] = 0.05;
    for (int a = 1; a < argc; a++)
        for (int mode = 0; mode < 4; mode++) {
            for (int k = 0; k < V * D; k++) {
                w_in[k] = (float)((int64_t)(NEXT() % 2001) - 1000) / 4000.0f;
                w_out[k] = (float)((int64_t)(NEXT() % 2001) - 1000) / 4000.0f;
            }
            int64_t threads = atoi(argv[a]);
            if (w2v_run(w_in, w_out, V, D, mode & 1, B, off, in_rows, row_start, out_pos, NEG,
                        u, cdf, guide, 64, lr, mode & 2 ? -1.0 : 0.25, losses, threads,
                        negs) != threads)
                return 2;
        }
    return 0;
}
"""


class TestThreadSanitizer:
    """The learn kernel's threads, built with ``-fsanitize=thread``: any
    two of them touching one location without the barrier between them
    is a reported race, and a failure here."""

    def test_no_data_race(self, tmp_path):
        compiler = kernels.find_compiler()
        if compiler is None:
            pytest.skip("no C compiler on this host")
        source = tmp_path / "learn_tsan.c"
        source.write_text(kernels._C_SOURCE + TSAN_MAIN)
        binary = tmp_path / "learn_tsan"
        build = subprocess.run(
            [compiler, "-fsanitize=thread", "-O1", "-g", "-ffp-contract=off", "-o", str(binary),
             str(source), "-lm", "-pthread"],
            capture_output=True, text=True, timeout=120,
        )
        if build.returncode != 0:
            pytest.skip(f"{compiler} cannot build with -fsanitize=thread: {build.stderr[:200]}")
        env = {**os.environ, "TSAN_OPTIONS": "halt_on_error=1 exitcode=66"}
        run = subprocess.run(
            [str(binary), "2", "3", "7"], capture_output=True, text=True, timeout=300, env=env
        )
        if run.returncode != 0 and "FATAL: ThreadSanitizer" in run.stderr:
            pytest.skip(f"ThreadSanitizer cannot run here: {run.stderr[:200]}")
        assert run.returncode == 0, run.stderr[-4000:]
        assert "WARNING: ThreadSanitizer" not in run.stderr


# ---------------------------------------------------------------------------
# whole fits under the C kernel
# ---------------------------------------------------------------------------
def walk_corpus(graph, seed, num_walks=12, walk_length=30):
    from repro.walks.vectorized import VectorizedWalkEngine

    engine = VectorizedWalkEngine(graph, "deepwalk", sampler="mh", seed=seed)
    return engine.generate(num_walks=num_walks, walk_length=walk_length)


def shard(corpus, cuts):
    bounds = [0, *sorted(cuts), corpus.num_walks]
    return [
        WalkCorpus(corpus.walks[a:b], corpus.lengths[a:b])
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]


def row_cosines(a, b):
    num = np.einsum("ij,ij->i", a, b, dtype=np.float64)
    return num / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))


@pytest.fixture(scope="module")
def barbell_corpus():
    from repro.graph import generators

    graph = generators.barbell_graph(10, 3)
    return graph, walk_corpus(graph, seed=1)


class TestFullFitCompiled:
    KW = dict(dimensions=24, epochs=2, batch_pairs=256, block_walks=64)

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_repeats_bitwise(self, kernel, barbell_corpus, mode):
        graph, corpus = barbell_corpus
        fits = [
            Word2Vec(mode=mode, seed=5, **self.KW).fit(corpus, num_nodes=graph.num_nodes)
            for __ in range(2)
        ]
        assert np.array_equal(fits[0].vectors, fits[1].vectors)

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    @pytest.mark.parametrize("cut_seed", range(4))
    def test_streamed_equals_monolithic_for_any_shard_cuts(self, kernel, barbell_corpus, mode, cut_seed):
        graph, corpus = barbell_corpus
        mono = Word2Vec(mode=mode, seed=6, **self.KW)
        expected = mono.fit(corpus, num_nodes=graph.num_nodes)
        assert mono.kernel == "cnative"
        rng = np.random.default_rng(cut_seed)
        cuts = rng.integers(0, corpus.num_walks + 1, int(rng.integers(1, 9))).tolist()
        streamed = Word2Vec(mode=mode, seed=6, **self.KW)
        got = streamed.fit_stream(
            shard(corpus, cuts),
            counts=corpus.node_frequencies(graph.num_nodes),
            total_walks=corpus.num_walks,
        )
        assert np.array_equal(got.vectors, expected.vectors)
        assert streamed.training_loss_ == mono.training_loss_

    def test_expand_vocab_then_partial_fit(self, kernel, barbell_corpus):
        graph, corpus = barbell_corpus
        grown = graph.num_nodes + 4
        rng = np.random.default_rng(9)
        # walks over the grown id space: the new tokens must get trained
        # rows, through scratch re-derived for the larger vocabulary
        extra = WalkCorpus.from_lists(
            rng.integers(0, grown, (40, 12)).tolist()
        )

        def grow_and_continue():
            trainer = Word2Vec(seed=7, **self.KW)
            trainer.build_vocab(corpus.node_frequencies(graph.num_nodes))
            trainer.partial_fit(corpus)
            assert trainer.expand_vocab(extra.node_frequencies(grown) + 1) == 4
            trainer.partial_fit(extra)
            return trainer.finalize()

        first = grow_and_continue()
        assert np.array_equal(grow_and_continue().vectors, first.vectors)
        assert len(first) == grown
        new_rows = first.matrix_for(np.arange(graph.num_nodes, grown))
        assert np.abs(new_rows).max() > 0.5 / self.KW["dimensions"]  # moved off the init

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_agrees_with_reference_on_barbell(self, kernel, barbell_corpus, mode, monkeypatch):
        from repro.evaluation.classification import classification_sweep
        from repro.graph.labels import NodeLabels

        graph, corpus = barbell_corpus
        kwargs = dict(mode=mode, seed=8, **self.KW)
        compiled = Word2Vec(**kwargs)
        got = compiled.fit(corpus, num_nodes=graph.num_nodes)
        monkeypatch.setattr(word2vec, "resolve_train_kernel", lambda: None)
        reference = Word2Vec(**kwargs)
        expected = reference.fit(corpus, num_nodes=graph.num_nodes)
        assert (compiled.kernel, reference.kernel) == ("cnative", "numpy")
        assert np.array_equal(got.keys, expected.keys)
        assert len(compiled.training_loss_) == len(reference.training_loss_)
        assert row_cosines(got.vectors, expected.vectors).min() >= 0.9999
        nodes = np.arange(graph.num_nodes)
        labels = NodeLabels(nodes, (nodes >= graph.num_nodes // 2).astype(int))
        scores = [
            classification_sweep(kv, labels, train_fractions=(0.5,), trials=3, seed=1)[0]
            for kv in (got, expected)
        ]
        assert round(scores[0]["micro_f1_mean"], 3) == round(scores[1]["micro_f1_mean"], 3)

    def test_agrees_with_reference_on_blogcatalog(self, kernel, monkeypatch):
        from repro.evaluation.classification import classification_sweep
        from repro.graph import datasets

        graph, labels = datasets.load("blogcatalog", scale=0.2, seed=3)
        corpus = walk_corpus(graph, seed=3, num_walks=10, walk_length=40)
        kwargs = dict(dimensions=64, batch_pairs=1024, seed=3)
        got = Word2Vec(**kwargs).fit(corpus, num_nodes=graph.num_nodes)
        monkeypatch.setattr(word2vec, "resolve_train_kernel", lambda: None)
        expected = Word2Vec(**kwargs).fit(corpus, num_nodes=graph.num_nodes)
        assert row_cosines(got.vectors, expected.vectors).min() >= 0.9999
        scores = [
            classification_sweep(kv, labels, train_fractions=(0.5,), trials=3, seed=3)[0]
            for kv in (got, expected)
        ]
        assert scores[0]["micro_f1_mean"] > 0.5
        assert round(scores[0]["micro_f1_mean"], 3) == round(scores[1]["micro_f1_mean"], 3)


# ---------------------------------------------------------------------------
# selection, fallback and reporting: these run with or without a compiler
# ---------------------------------------------------------------------------
class TestSelectionAndFallback:
    KW = dict(dimensions=12, epochs=1, batch_pairs=128, seed=4)

    def small_corpus(self):
        rng = np.random.default_rng(2)
        return WalkCorpus.from_lists(rng.integers(0, 15, (30, 12)).tolist())

    def test_no_compiler_trains_through_numpy(self, monkeypatch):
        corpus = self.small_corpus()
        with monkeypatch.context() as patch:
            patch.setattr(word2vec, "resolve_train_kernel", lambda: None)
            forced = Word2Vec(**self.KW)
            expected = forced.fit(corpus, num_nodes=15)
        monkeypatch.setattr(kernels, "find_compiler", lambda: None)
        hidden = Word2Vec(**self.KW)
        assert hidden.kernel == forced.kernel == "numpy"
        assert hidden.compile_seconds == 0.0
        assert np.array_equal(hidden.fit(corpus, num_nodes=15).vectors, expected.vectors)
        assert hidden.training_loss_ == forced.training_loss_

    def test_compile_failure_warns_once_and_falls_back(self, monkeypatch):
        broken = shutil.which("false")
        if broken is None:
            pytest.skip("no `false` executable to stand in for a broken compiler")
        monkeypatch.setattr(kernels, "find_compiler", lambda: broken)
        with pytest.warns(RuntimeWarning, match="exited with") as caught:
            trainer = Word2Vec(**self.KW)
        assert len(caught) == 1
        assert trainer.kernel == "numpy"
        assert len(trainer.fit(self.small_corpus(), num_nodes=15)) == 15

    def test_load_failure_warns_and_falls_back(self, monkeypatch, tmp_path):
        not_a_library = tmp_path / "kernel.so"
        not_a_library.write_text("not an ELF file")
        monkeypatch.setattr(kernels, "find_compiler", lambda: "cc")
        monkeypatch.setattr(kernels, "compile_cached", lambda *a, **k: str(not_a_library))
        with pytest.warns(RuntimeWarning, match="training through numpy"):
            trainer = Word2Vec(**self.KW)
        assert trainer.kernel == "numpy"

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_kernel_depends_on_the_host_alone(self, mode):
        expected = "numpy" if kernels.find_compiler() is None else "cnative"
        assert Word2Vec(mode=mode, **self.KW).kernel == expected
        # and no keyword moves the choice
        with pytest.raises(TypeError, match="negative_sharing"):
            Word2Vec(negative_sharing=True, **self.KW)

    def test_kernel_is_read_only(self):
        with pytest.raises(AttributeError):
            Word2Vec(**self.KW).kernel = "numpy"

    def test_pipeline_and_facade_report_the_kernel(self):
        from repro import UniNet
        from repro.core.config import TrainConfig, WalkConfig
        from repro.core.pipeline import train_pipeline
        from repro.graph import generators

        graph = generators.barbell_graph(6, 2)
        walk = WalkConfig(num_walks=2, walk_length=8)
        result = train_pipeline(graph, "deepwalk", walk, TrainConfig(dimensions=8), seed=1)
        assert result.sampler_stats["learn_kernel"] == result.trainer.kernel
        assert result.sampler_stats["learn_kernel"] in ("cnative", "numpy")
        assert result.sampler_stats["learn_compile_seconds"] == result.trainer.compile_seconds
        assert "backend" in result.sampler_stats  # next to the walk backend
        walked = train_pipeline(graph, "deepwalk", walk, skip_learning=True, seed=1)
        assert "learn_kernel" not in walked.sampler_stats
        streamed = train_pipeline(
            graph, "deepwalk", walk, TrainConfig(dimensions=8), seed=1,
            streaming={"shard_walks": 4},
        )
        assert streamed.sampler_stats["learn_kernel"] == result.sampler_stats["learn_kernel"]

        net = UniNet(graph, model="deepwalk", seed=1)
        trained = net.train(num_walks=2, walk_length=8, dimensions=8)
        assert net.last_stats is trained.sampler_stats
        assert net.last_stats["learn_kernel"] == trained.trainer.kernel


# ---------------------------------------------------------------------------
# both kernels refuse the same trainer arguments, before any work
# ---------------------------------------------------------------------------
class TestTrainerArguments:
    @pytest.fixture(params=["cnative", "numpy"], autouse=True)
    def on_each_kernel(self, request, monkeypatch):
        if request.param == "numpy":
            monkeypatch.setattr(word2vec, "resolve_train_kernel", lambda: None)
        elif kernels.find_compiler() is None:
            pytest.skip("no C compiler on this host")
        self.kernel_name = request.param

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_pairs": 0},  # was a ZeroDivisionError in the first block
            {"batch_pairs": -5},  # trained no batch and returned the initialisation
            {"batch_pairs": 512.0},
            {"batch_pairs": None},
            {"max_row_step": -1.0},  # failed at the first C batch, flipped every numpy step
            {"max_row_step": float("nan")},
            {"min_alpha": float("nan")},  # trained to non-finite vectors, no error
            {"min_alpha": -1.0},
            {"subsample": -1.0},
            {"subsample": float("nan")},
            {"min_count": -3},  # failed at build_vocab, after the walk
            {"min_count": 1.5},
        ],
    )
    def test_refused_at_construction(self, kwargs):
        with pytest.raises(TrainingError, match=next(iter(kwargs))):
            Word2Vec(8, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"batch_pairs": 1}, {"batch_pairs": np.int64(7)}, {"max_row_step": None}, {"max_row_step": 0}],
    )
    def test_accepted(self, kwargs):
        rng = np.random.default_rng(2)
        corpus = WalkCorpus.from_lists(rng.integers(0, 6, (4, 6)).tolist())
        trainer = Word2Vec(4, seed=1, **kwargs)
        assert trainer.kernel == self.kernel_name
        assert len(trainer.fit(corpus, num_nodes=6)) == 6
        assert len(trainer.training_loss_) >= 1 and np.isfinite(trainer.training_loss_).all()


# ---------------------------------------------------------------------------
# the reference's accumulation dtype is a decision, not an accident
# ---------------------------------------------------------------------------
class TestAccumulationDtype:
    def test_scatter_accumulates_float32_updates_in_accum_dtype(self):
        # 1e8 + 1 - 1e8 is 0 when summed in float32 and 1 in float64
        matrix = np.zeros((1, 1), dtype=np.float32)
        updates = np.array([[1e8], [1.0], [-1e8]], dtype=np.float32)
        scatter_add_rows(matrix, np.zeros(3, dtype=np.int64), updates)
        assert ACCUM_DTYPE == np.float64
        assert matrix[0, 0] == 1.0

    def test_step_dtype_does_not_depend_on_the_scalar_type_of_lr(self):
        grad = np.ones((2, 3), dtype=np.float32)
        for lr in (0.025, np.float64(0.025), np.float32(0.025)):
            assert word2vec._step(grad, lr).dtype == ACCUM_DTYPE

    def test_reference_batch_is_blind_to_the_scalar_type_of_lr(self):
        batch = make_batch(13, 9, 6, 40, 3, "skipgram")
        results = []
        for lr in (0.02, np.float64(0.02)):
            batch["lr"] = lr
            results.append(run_reference(batch, 0.25))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])


# ---------------------------------------------------------------------------
# golden fits: the kernel's absolute output, pinned by hash
# ---------------------------------------------------------------------------
# Every test above compares two results of one source tree. These pin the
# C kernel's output itself: SHA-256 of ``vectors`` and ``training_loss_``
# for fixed fits, recorded in ``tests/data/golden_fits.json`` (CBOW's from
# the single-threaded per-batch kernel the run kernel replaced, skip-gram's
# from the window kernel). They must hold at any thread count. Re-record (only when a change is *meant* to alter
# the kernel's floats) with ``PYTHONPATH=src python tests/test_train_kernels.py``.
GOLDEN_PATH = Path(__file__).parent / "data" / "golden_fits.json"
GOLDEN_KW = dict(dimensions=24, batch_pairs=256, block_walks=64, seed=5)
#: ``tokens``: vocabulary of the corpus (40); ``grow``: ids added by
#: ``expand_vocab`` before a second ``partial_fit``. Every block's last
#: batch is shorter than the rest.
GOLDEN_FITS = {
    "skipgram": {},
    "cbow": {"mode": "cbow"},
    "skipgram-epochs2": {"epochs": 2},
    "cbow-epochs2": {"mode": "cbow", "epochs": 2},
    "skipgram-subsample": {"subsample": 0.002},
    "cbow-subsample": {"mode": "cbow", "subsample": 0.002},
    # every row is hit by a third of each batch: the clip decides the step
    "skipgram-three-tokens": {"tokens": 3, "alpha": 0.5},
    "cbow-three-tokens": {"tokens": 3, "alpha": 0.5, "mode": "cbow"},
    "skipgram-expand-vocab": {"grow": 4},
    "cbow-expand-vocab": {"grow": 4, "mode": "cbow"},
    # enough work per batch that the kernel threads on its own
    "skipgram-wide": {"dimensions": 128, "batch_pairs": 1024, "block_walks": 8192},
    "cbow-wide": {"dimensions": 128, "batch_pairs": 8192, "block_walks": 8192, "mode": "cbow"},
}


def golden_corpus(tokens, walks=150, seed=17):
    rng = np.random.default_rng(seed)
    shape = (walks, 16)
    # the smaller of two draws favours low ids, so a few rows are hot
    ids = np.minimum(rng.integers(0, tokens, shape), rng.integers(0, tokens, shape))
    return WalkCorpus.from_lists(ids.tolist())


def golden_fit(name):
    """``(vectors, per-batch losses)`` of one pinned fit."""
    case = dict(GOLDEN_FITS[name])
    tokens, grow = case.pop("tokens", 40), case.pop("grow", 0)
    corpus = golden_corpus(tokens)
    trainer = Word2Vec(**{**GOLDEN_KW, **case})
    if not grow:
        vectors = trainer.fit(corpus, num_nodes=tokens).vectors
    else:
        trainer.build_vocab(corpus.node_frequencies(tokens))
        trainer.partial_fit(corpus)
        extra = golden_corpus(tokens + grow, walks=70, seed=18)
        assert trainer.expand_vocab(extra.node_frequencies(tokens + grow) + 1) == grow
        trainer.partial_fit(extra)
        vectors = trainer.finalize().vectors
    return vectors, np.asarray(trainer.training_loss_, dtype=np.float64)


def golden_digests(name):
    return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in golden_fit(name)]


GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden(kernel):
    """The recorded digests: the kernel's floats take nothing from the
    platform (its exp and log are its own), so they hold on any."""
    return GOLDEN["fits"]


class TestGoldenFits:
    def test_every_fit_is_recorded(self):
        assert set(GOLDEN["fits"]) == set(GOLDEN_FITS)

    @pytest.mark.parametrize("threads", [None, 1, 2, 3, 7])
    @pytest.mark.parametrize("name", sorted(GOLDEN_FITS))
    def test_at_any_thread_count(self, golden, force_threads, name, threads):
        used = force_threads(threads)
        assert golden_digests(name) == golden[name]
        assert threads is None or set(used) == {threads}

    def test_after_a_fork(self, golden, force_threads):
        # helper threads have been created and joined in this process; a
        # forked child must find nothing of them (no pool, no lock held)
        force_threads(2)
        name = "skipgram-wide"
        assert golden_digests(name) == golden[name]
        child = os.fork()
        if child == 0:
            status = 1
            try:
                status = int(golden_digests(name) != golden[name])
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            done, status = os.waitpid(child, os.WNOHANG)
            if done:
                break
            time.sleep(0.02)
        else:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            pytest.fail("the forked child did not finish its fit")
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    def test_two_trainers_at_once(self, golden, force_threads):
        # the overlapped streaming pipeline's shape: ctypes releases the
        # GIL, so two Python threads can be inside the kernel together
        force_threads(2)
        names = ("skipgram-wide", "cbow-wide")
        together = threading.Barrier(len(names), timeout=60.0)

        def fits(name):
            together.wait()
            return [golden_digests(name) for __ in range(4)]

        with ThreadPoolExecutor(len(names)) as pool:
            results = [pool.submit(fits, name) for name in names]
            for name, result in zip(names, results):
                assert result.result(timeout=120.0) == [golden[name]] * 4

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls here")
    def test_one_cpu_means_one_thread(self, golden, force_threads):
        used = force_threads(None)
        name = "skipgram-wide"
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(allowed)})
        try:
            assert golden_digests(name) == golden[name]
        finally:
            os.sched_setaffinity(0, allowed)
        assert set(used) == {1}  # no helper thread was created
        if len(allowed) > 1:
            # the same fit shares its batches out as soon as it may
            del used[:]
            assert golden_digests(name) == golden[name]
            assert max(used) > 1


def _record() -> None:
    golden = {"fits": {name: golden_digests(name) for name in GOLDEN_FITS}}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden['fits'])} fits to {GOLDEN_PATH}")


if __name__ == "__main__":
    assert resolve_train_kernel() is not None, "recording needs the C kernel"
    _record()
