"""Tests for the embedding subsystem: vocab, negatives, word2vec, vectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.embedding.word2vec as word2vec
from repro.errors import TrainingError, VocabularyError
from repro.embedding import KeyedVectors, NegativeSampler, Vocabulary, Word2Vec
from repro.utils.cbuild import find_compiler
from repro.embedding.word2vec import scatter_add_rows
from repro.tokens import TOKEN_DTYPE
from repro.walks.corpus import WalkCorpus


class TestVocabulary:
    def test_frequency_ordering(self):
        vocab = Vocabulary(np.array([3, 10, 1, 7]))
        assert vocab.tokens.tolist() == [1, 3, 0, 2]
        assert vocab.counts.tolist() == [10, 7, 3, 1]

    def test_min_count_filters(self):
        vocab = Vocabulary(np.array([3, 10, 1, 7]), min_count=3)
        assert 2 not in vocab.tokens
        assert vocab.size == 3

    def test_index_lookup(self):
        vocab = Vocabulary(np.array([3, 10, 1]))
        assert vocab.index(1) == 0
        assert vocab.index(2) == vocab.tokens.tolist().index(2)
        assert vocab.index(99) == -1

    def test_encode_handles_padding_and_dropped(self):
        vocab = Vocabulary(np.array([5, 0, 5]), min_count=2)
        encoded = vocab.encode(np.array([0, 1, 2, -1]))
        assert encoded[1] == -1  # dropped by min_count
        assert encoded[3] == -1  # padding
        assert encoded[0] >= 0 and encoded[2] >= 0

    def test_encode_out_of_range_ids(self):
        vocab = Vocabulary(np.array([5, 3]))
        encoded = vocab.encode(np.array([0, 1, 2, 99]))
        assert encoded[2] == -1 and encoded[3] == -1

    @pytest.mark.parametrize("dtype", [TOKEN_DTYPE, np.int64])
    def test_encode_gives_token_rows_from_any_id(self, dtype):
        """Straight into the trainer's token dtype, the ids at either end of
        the input's range included (an int32 id + 1 wraps, to -1 as well)."""
        vocab = Vocabulary(np.array([5, 0, 3]))
        ids = np.array([[0, 1, 2, 3], [-1, -7, np.iinfo(dtype).max, np.iinfo(dtype).min]], dtype=dtype)
        encoded = vocab.encode(ids)
        assert encoded.dtype == TOKEN_DTYPE and encoded.flags.c_contiguous
        assert encoded.tolist() == [[0, -1, 1, -1], [-1, -1, -1, -1]]
        assert vocab.space == 3 and [vocab.index(t) for t in (0, 1, 2, 3, -1)] == [0, -1, 1, -1, -1]

    def test_from_corpus(self):
        corpus = WalkCorpus.from_lists([[0, 1, 1], [2, 1]])
        vocab = Vocabulary.from_corpus(corpus, 3)
        assert vocab.tokens[0] == 1  # most frequent first
        assert vocab.total_count == 5

    def test_empty_rejected(self):
        with pytest.raises(VocabularyError):
            Vocabulary(np.array([0, 0]))

    def test_subsample_probs(self):
        vocab = Vocabulary(np.array([100000, 10]))
        probs = vocab.subsample_keep_probs(1e-3)
        assert probs[0] < 1.0  # frequent token gets subsampled
        assert probs[1] == 1.0  # rare token always kept
        assert np.all(vocab.subsample_keep_probs(0) == 1.0)


class TestNegativeSampler:
    def test_distribution_follows_power(self, rng):
        counts = np.array([1000.0, 100.0, 10.0])
        sampler = NegativeSampler(counts)
        expected = counts**0.75
        expected /= expected.sum()
        draws = sampler.draw(rng, 200000)
        freq = np.bincount(draws, minlength=3) / 200000
        assert 0.5 * np.abs(freq - expected).sum() < 0.01

    def test_probabilities_sum_to_one(self):
        sampler = NegativeSampler(np.array([5.0, 2.0, 3.0]))
        assert sampler.probabilities().sum() == pytest.approx(1.0)

    def test_shape_passthrough(self, rng):
        sampler = NegativeSampler(np.array([1.0, 1.0]))
        assert sampler.draw(rng, (4, 5)).shape == (4, 5)

    def test_invalid_counts(self):
        with pytest.raises(TrainingError):
            NegativeSampler(np.array([]))
        with pytest.raises(TrainingError):
            NegativeSampler(np.array([-1.0, 2.0]))
        with pytest.raises(TrainingError):
            NegativeSampler(np.array([0.0, 0.0]))


class TestScatterAddRows:
    def test_matches_add_at(self, rng):
        matrix = rng.standard_normal((20, 8)).astype(np.float32)
        reference = matrix.copy()
        rows = rng.integers(0, 20, 100)
        updates = rng.standard_normal((100, 8)).astype(np.float32)
        scatter_add_rows(matrix, rows, updates)
        np.add.at(reference, rows, updates)
        assert np.allclose(matrix, reference, atol=1e-4)

    def test_clip_bounds_row_step(self, rng):
        matrix = np.zeros((4, 8), dtype=np.float32)
        rows = np.zeros(50, dtype=np.int64)
        updates = np.ones((50, 8), dtype=np.float32)
        scatter_add_rows(matrix, rows, updates, clip=1.0)
        assert np.linalg.norm(matrix[0]) == pytest.approx(1.0, rel=1e-5)

    def test_empty_noop(self):
        matrix = np.ones((2, 2), dtype=np.float32)
        scatter_add_rows(matrix, np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.float32))
        assert np.all(matrix == 1.0)


class TestWord2VecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dimensions": 0},
            {"window": 0},
            {"negative": 0},
            {"epochs": 0},
            {"alpha": 0.0},
            {"mode": "glove"},
        ],
    )
    def test_bad_params(self, kwargs):
        base = {"dimensions": 8}
        base.update(kwargs)
        with pytest.raises(TrainingError):
            Word2Vec(**base)

    def test_too_short_walks_rejected(self):
        corpus = WalkCorpus.from_lists([[0], [1]])
        with pytest.raises(TrainingError):
            Word2Vec(dimensions=4).fit(corpus, num_nodes=2)


class TestWord2VecTraining:
    @pytest.fixture
    def barbell_corpus(self, barbell):
        from repro.walks.vectorized import VectorizedWalkEngine

        eng = VectorizedWalkEngine(barbell, "deepwalk", sampler="mh", seed=1)
        return barbell, eng.generate(num_walks=15, walk_length=30)

    def test_loss_decreases(self, barbell_corpus):
        graph, corpus = barbell_corpus
        w2v = Word2Vec(dimensions=24, epochs=3, seed=2)
        w2v.fit(corpus, num_nodes=graph.num_nodes)
        first = np.mean(w2v.training_loss_[:5])
        last = np.mean(w2v.training_loss_[-5:])
        assert last < first

    @pytest.mark.parametrize("mode", ["skipgram", "cbow"])
    def test_learns_community_structure(self, barbell_corpus, mode):
        graph, corpus = barbell_corpus
        kv = Word2Vec(dimensions=24, epochs=4, mode=mode, seed=3).fit(
            corpus, num_nodes=graph.num_nodes
        )
        within = kv.similarity(0, 1)
        across = kv.similarity(0, graph.num_nodes - 1)
        assert within > across + 0.15

    def test_deterministic_given_seed(self, barbell_corpus):
        graph, corpus = barbell_corpus
        kv1 = Word2Vec(dimensions=8, epochs=1, seed=5).fit(corpus, num_nodes=graph.num_nodes)
        kv2 = Word2Vec(dimensions=8, epochs=1, seed=5).fit(corpus, num_nodes=graph.num_nodes)
        assert np.array_equal(kv1.vectors, kv2.vectors)

    def test_all_nodes_embedded(self, barbell_corpus):
        graph, corpus = barbell_corpus
        kv = Word2Vec(dimensions=8, epochs=1, seed=6).fit(corpus, num_nodes=graph.num_nodes)
        assert len(kv) == graph.num_nodes

    def test_min_count_drops_rare(self):
        corpus = WalkCorpus.from_lists([[0, 1, 0, 1, 0, 1, 2]])
        kv = Word2Vec(dimensions=4, epochs=1, min_count=2, seed=7).fit(corpus, num_nodes=3)
        assert 2 not in kv
        assert 0 in kv

    def test_subsample_runs(self, barbell_corpus):
        graph, corpus = barbell_corpus
        kv = Word2Vec(dimensions=8, epochs=1, subsample=1e-2, seed=8).fit(
            corpus, num_nodes=graph.num_nodes
        )
        assert kv.dimensions == 8

    def test_window_context_counts(self, rng):
        w2v = Word2Vec(dimensions=4, window=2, seed=9)
        encoded = np.array([[0, 1, 2, 3]], dtype=TOKEN_DTYPE)
        totals = []
        for __ in range(300):
            centers, sizes, contexts = w2v._windows(encoded, rng)
            assert sizes.min() >= 1 and sizes.sum() == contexts.size
            totals.append(contexts.size)
        # distance-1 pairs always kept (3*2), distance-2 kept w.p. 1/2 (2*2)
        assert abs(np.mean(totals) - (6 + 2)) < 0.5

    def test_windows_come_in_corpus_order_nearest_first(self, rng):
        # window 1 draws nothing; -1 is a padded or subsampled position,
        # which has no window and is no context
        w2v = Word2Vec(dimensions=4, window=1, seed=10)
        encoded = np.array([[4, 5, 6, -1, 7], [8, 9, -1, -1, -1]], dtype=TOKEN_DTYPE)
        centers, sizes, contexts = w2v._windows(encoded, rng)
        assert centers.tolist() == [4, 5, 6, 8, 9]
        assert np.split(contexts, np.cumsum(sizes)[:-1])[1].tolist() == [6, 4]
        assert contexts.tolist() == [5, 6, 4, 5, 9, 8]
        assert centers.dtype == contexts.dtype == np.int32 and sizes.dtype == np.int64
        # window 2 keeps distance 2 with probability 1/2: slots +1, -1, +2, -2
        w2v = Word2Vec(dimensions=4, window=2, seed=10)
        seen = set()
        for __ in range(40):
            centers, sizes, contexts = w2v._windows(np.array([[1, 2, 3, 4, 5]], dtype=TOKEN_DTYPE), rng)
            middle = np.split(contexts, np.cumsum(sizes)[:-1])[2]
            seen.add(tuple(middle.tolist()))
        assert seen == {(4, 2), (4, 2, 5), (4, 2, 1), (4, 2, 5, 1)}


def per_pair_generator(encoded, window, rng, with_positions=False):
    """The pair generator the window builder replaced, as it was: (center,
    context) pairs, both directions of every included pair, distance by
    distance; with ``with_positions`` also the flat corpus position of
    each pair's center, by which CBOW grouped them."""
    rows, length = encoded.shape
    flat_pos = np.arange(rows * length, dtype=np.int64).reshape(rows, length)
    centers, contexts, positions = [], [], []
    for dist in range(1, window + 1):
        left = encoded[:, :-dist].ravel()
        right = encoded[:, dist:].ravel()
        valid = (left >= 0) & (right >= 0)
        p_keep = (window - dist + 1) / window
        if p_keep < 1.0:
            valid &= rng.random(valid.size) < p_keep
        if not valid.any():
            continue
        a, b = left[valid].astype(np.int32), right[valid].astype(np.int32)
        centers += [a, b]
        contexts += [b, a]
        positions += [flat_pos[:, :-dist].ravel()[valid], flat_pos[:, dist:].ravel()[valid]]
    if not centers:
        empty = np.empty(0, dtype=np.int32)
        return (empty, empty, np.empty(0, dtype=np.int64)) if with_positions else (empty, empty)
    out = (np.concatenate(centers), np.concatenate(contexts))
    return (*out, np.concatenate(positions)) if with_positions else out


class TestWindowsArePairs:
    """A block trains the pairs the per-pair generator made, from the same
    draws; only the grouping (and so which pairs share negatives) moved.
    On each kernel: the C builder's windows and the NumPy reference's."""

    @pytest.fixture(params=["cnative", "numpy"], autouse=True)
    def on_each_kernel(self, request, monkeypatch):
        if request.param == "numpy":
            monkeypatch.setattr(word2vec, "resolve_train_kernel", lambda: None)
        elif find_compiler() is None:
            pytest.skip("no C compiler on this host")
        self.kernel_name = request.param

    @staticmethod
    def multiset(first, second):
        return sorted(zip(first.tolist(), second.tolist()))

    @pytest.mark.parametrize("window", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_pairs_from_the_same_draws(self, window, seed):
        encoded = np.random.default_rng(seed).integers(-1, 30, (40, 25)).astype(TOKEN_DTYPE)
        w2v = Word2Vec(dimensions=4, window=window, seed=1)
        assert w2v.kernel == self.kernel_name
        new_rng, old_rng = np.random.default_rng(seed + 50), np.random.default_rng(seed + 50)
        centers, sizes, contexts = w2v._windows(encoded, new_rng)
        old_centers, old_contexts, positions = per_pair_generator(
            encoded, window, old_rng, with_positions=True
        )
        # the generators are left in the same state
        assert new_rng.random() == old_rng.random()
        # skip-gram: the old (input = center, output = context) pairs and the
        # new (input = context, output = window center) are one multiset,
        # since every pair comes in both directions
        assert self.multiset(contexts, np.repeat(centers, sizes)) == self.multiset(
            old_centers, old_contexts
        )
        # CBOW: the windows are the old groups, in the old order, bit for bit
        order = np.argsort(positions, kind="stable")
        starts = np.flatnonzero(np.diff(positions[order], prepend=-1))
        assert np.array_equal(centers, old_centers[order][starts])
        assert np.array_equal(sizes, np.diff(np.append(starts, order.size)))
        assert np.array_equal(contexts, old_contexts[order])

    def test_every_block_of_a_fit(self, barbell, monkeypatch):
        from repro.walks.vectorized import VectorizedWalkEngine

        seen = []
        original = Word2Vec._windows

        def spy(self, encoded, rng):
            state = rng.bit_generator.state
            seen.append((encoded.copy(), state, original(self, encoded, rng)))
            return seen[-1][2]

        monkeypatch.setattr(Word2Vec, "_windows", spy)
        corpus = VectorizedWalkEngine(barbell, "deepwalk", sampler="mh", seed=1).generate(15, 30)
        Word2Vec(dimensions=8, window=3, subsample=1e-2, block_walks=16, seed=3).fit(
            corpus, num_nodes=barbell.num_nodes
        )
        assert len(seen) == -(-corpus.num_walks // 16)
        for encoded, state, (centers, sizes, contexts) in seen:
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            assert (encoded == -1).any()  # subsampling dropped tokens
            assert self.multiset(contexts, np.repeat(centers, sizes)) == self.multiset(
                *per_pair_generator(encoded, 3, rng)
            )


class TestKeyedVectors:
    @pytest.fixture
    def kv(self):
        keys = np.array([3, 7, 9])
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        return KeyedVectors(keys, vectors)

    def test_lookup(self, kv):
        assert np.array_equal(kv[7], [0.0, 1.0])
        assert 7 in kv and 4 not in kv
        with pytest.raises(VocabularyError):
            kv.vector(4)

    def test_similarity(self, kv):
        assert kv.similarity(3, 7) == pytest.approx(0.0)
        assert kv.similarity(3, 9) == pytest.approx(1 / np.sqrt(2))

    def test_most_similar_by_key(self, kv):
        result = kv.most_similar(3, topn=2)
        assert result[0][0] == 9
        assert all(key != 3 for key, __ in result)

    def test_most_similar_by_vector(self, kv):
        result = kv.most_similar(np.array([1.0, 0.0]), topn=1)
        assert result[0][0] == 3

    def test_matrix_for(self, kv):
        mat = kv.matrix_for([9, 3])
        assert np.array_equal(mat, [[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(VocabularyError):
            kv.matrix_for([4])
        zeros = kv.matrix_for([4, 7], missing="zeros")
        assert np.array_equal(zeros[0], [0.0, 0.0])

    def test_save_load(self, kv, tmp_path):
        path = tmp_path / "kv.npz"
        kv.save_npz(path)
        back = KeyedVectors.load_npz(path)
        assert np.array_equal(back.keys, kv.keys)
        assert np.array_equal(back.vectors, kv.vectors)

    def test_save_load_without_npz_suffix(self, kv, tmp_path):
        # numpy appends ".npz" to a suffix-less save path; load_npz must
        # find the file numpy actually wrote
        path = tmp_path / "vectors"
        kv.save_npz(path)
        assert not path.exists() and path.with_suffix(".npz").exists()
        back = KeyedVectors.load_npz(path)
        assert np.array_equal(back.keys, kv.keys)
        assert np.array_equal(back.vectors, kv.vectors)

    def test_load_missing_file_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            KeyedVectors.load_npz(tmp_path / "nothing-here")

    def test_most_similar_excludes_query_key(self, kv):
        for key in (3, 7, 9):
            result = kv.most_similar(key, topn=10)
            assert all(other != key for other, __ in result)

    def test_most_similar_topn_exceeds_size(self, kv):
        # key query: everything except the key itself
        assert len(kv.most_similar(3, topn=100)) == len(kv) - 1
        # vector query: everything (no exclusion)
        assert len(kv.most_similar(np.array([1.0, 0.5]), topn=100)) == len(kv)

    def test_matrix_for_missing_branches(self, kv):
        with pytest.raises(VocabularyError, match="node 4"):
            kv.matrix_for([3, 4], missing="error")
        zeros = kv.matrix_for([4, 9, -1], missing="zeros")
        assert np.array_equal(zeros[0], [0.0, 0.0])
        assert np.array_equal(zeros[1], kv[9])
        assert np.array_equal(zeros[2], [0.0, 0.0])

    def test_matrix_for_empty(self, kv):
        assert kv.matrix_for([]).shape == (0, 2)

    def test_misaligned_rejected(self):
        with pytest.raises(VocabularyError):
            KeyedVectors(np.array([1]), np.zeros((2, 3)))


@settings(max_examples=25, deadline=None)
@given(counts=st.lists(st.integers(1, 500), min_size=2, max_size=40))
def test_property_vocab_total_preserved(counts):
    vocab = Vocabulary(np.array(counts))
    assert vocab.total_count == sum(counts)
    assert np.all(np.diff(vocab.counts) <= 0)  # frequency-sorted
