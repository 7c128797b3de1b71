"""Tests for walk-support machinery: segments, manager, corpus."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WalkError
from repro.tokens import TOKEN_DTYPE, TOKEN_LIMIT
from repro.walks._segments import concat_ranges, race_keys, segment_argmax, segment_race_argmin
from repro.walks.corpus import WalkCorpus
from repro.walks.manager import ChainStore
from repro.walks.models import make_model

DATA = Path(__file__).parent / "data"


class TestSegments:
    def test_concat_ranges_basic(self):
        flat, seg = concat_ranges(np.array([5, 20]), np.array([3, 2]))
        assert flat.tolist() == [5, 6, 7, 20, 21]
        assert seg.tolist() == [0, 0, 0, 1, 1]

    def test_concat_ranges_with_empty_segment(self):
        flat, seg = concat_ranges(np.array([5, 9, 30]), np.array([2, 0, 1]))
        assert flat.tolist() == [5, 6, 30]
        assert seg.tolist() == [0, 0, 2]

    def test_concat_ranges_all_empty(self):
        flat, seg = concat_ranges(np.array([1, 2]), np.array([0, 0]))
        assert flat.size == 0 and seg.size == 0

    @staticmethod
    def race(values, lengths, rng):
        """One exact draw ∝ ``values`` per segment, one uniform per entry."""
        return segment_race_argmin(race_keys(values, rng.random(values.size)), lengths)

    def test_race_is_exact(self, rng):
        counts = np.zeros(2)
        for __ in range(20000):
            pos = self.race(np.array([1.0, 3.0]), np.array([2]), rng)
            counts[pos[0]] += 1
        assert abs(counts[1] / counts.sum() - 0.75) < 0.02

    def test_race_skips_zero_weights(self, rng):
        for __ in range(200):
            pos = self.race(np.array([0.0, 1.0, 0.0]), np.array([3]), rng)
            assert pos[0] == 1

    def test_race_zero_and_empty_segments(self, rng):
        values = np.array([0.0, 0.0, 5.0])
        pos = self.race(values, np.array([2, 0, 1]), rng)
        assert pos.tolist() == [-1, -1, 0]

    def test_segment_argmax(self):
        values = np.array([1.0, 9.0, 2.0, 7.0, 3.0])
        pos = segment_argmax(values, np.array([3, 0, 2]))
        assert pos.tolist() == [1, -1, 0]

    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 6), min_size=1, max_size=8),
        seed=st.integers(0, 1000),
    )
    def test_property_segment_ops_match_loops(self, lengths, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths)
        values = rng.random(int(lengths.sum()))
        arg = segment_argmax(values, lengths)
        cursor = 0
        for i, ln in enumerate(lengths):
            chunk = values[cursor : cursor + ln]
            cursor += ln
            if ln == 0:
                assert arg[i] == -1
            else:
                assert chunk[arg[i]] == pytest.approx(chunk.max())


class TestChainStore:
    def test_size_and_reset(self, small_unweighted_graph):
        g = small_unweighted_graph
        model = make_model("node2vec", g)
        store = ChainStore(g, model)
        assert store.size == g.num_edge_entries
        assert store.num_initialized == 0
        store.last[5] = 7
        assert store.num_initialized == 1
        store.reset()
        assert store.num_initialized == 0

    def test_memory_matches_paper_formula(self, small_unweighted_graph):
        # one int64 LAST_x plus one float64 cached w'(LAST_x) per state
        g = small_unweighted_graph
        model = make_model("node2vec", g)
        assert ChainStore(g, model).memory_bytes() == 16 * g.num_edge_entries


class TestWalkCorpus:
    def test_from_lists(self):
        corpus = WalkCorpus.from_lists([[1, 2, 3], [4, 5]])
        assert corpus.num_walks == 2
        assert corpus.token_count == 5
        walks = list(corpus.iter_walks())
        assert walks[0].tolist() == [1, 2, 3]
        assert walks[1].tolist() == [4, 5]

    def test_empty(self):
        corpus = WalkCorpus.from_lists([])
        assert corpus.num_walks == 0
        assert corpus.token_count == 0

    def test_validation(self):
        with pytest.raises(WalkError):
            WalkCorpus(np.array([1, 2, 3]), np.array([3]))
        with pytest.raises(WalkError):
            WalkCorpus(np.array([[1, 2]]), np.array([5]))

    def test_node_frequencies(self):
        corpus = WalkCorpus.from_lists([[0, 1, 1], [2]])
        freq = corpus.node_frequencies(4)
        assert freq.tolist() == [1, 2, 1, 0]

    def test_nodes_visited(self):
        corpus = WalkCorpus.from_lists([[3, 1], [1, 5]])
        assert corpus.nodes_visited().tolist() == [1, 3, 5]

    def test_merge(self):
        a = WalkCorpus.from_lists([[0, 1, 2]])
        b = WalkCorpus.from_lists([[3]])
        merged = WalkCorpus.merge([a, b])
        assert merged.num_walks == 2
        assert merged.token_count == 4
        assert list(merged.iter_walks())[1].tolist() == [3]

    def test_merge_empty(self):
        assert WalkCorpus.merge([]).num_walks == 0

    def test_save_load(self, tmp_path):
        corpus = WalkCorpus.from_lists([[0, 1], [2, 3, 4]])
        path = tmp_path / "c.npz"
        corpus.save_npz(path)
        back = WalkCorpus.load_npz(path)
        assert np.array_equal(back.walks, corpus.walks)
        assert np.array_equal(back.lengths, corpus.lengths)

    def test_len_and_repr(self):
        corpus = WalkCorpus.from_lists([[0, 1]])
        assert len(corpus) == 1
        assert "tokens=2" in repr(corpus)

    def test_text_round_trip(self, tmp_path):
        corpus = WalkCorpus.from_lists([[0, 1, 2], [5], [3, 4]])
        path = tmp_path / "walks.txt"
        corpus.save_text(path)
        back = WalkCorpus.load_text(path)
        assert [w.tolist() for w in back.iter_walks()] == [[0, 1, 2], [5], [3, 4]]


class TestCorpusTokens:
    """A corpus holds ``TOKEN_DTYPE`` node ids; whatever is not one is refused."""

    def test_engine_matrix_is_kept_as_is(self):
        walks = np.array([[0, 1, -1], [2, 3, 4]], dtype=TOKEN_DTYPE)
        assert WalkCorpus(walks, np.array([2, 3])).walks is walks

    def test_wider_integers_narrow(self):
        corpus = WalkCorpus(np.array([[TOKEN_LIMIT - 1, 0, -1]], dtype=np.int64), [2])
        assert corpus.walks.dtype == TOKEN_DTYPE
        assert corpus.walks.tolist() == [[TOKEN_LIMIT - 1, 0, -1]]

    @pytest.mark.parametrize("walks", [
        np.array([[1.7, 2.0]]),  # would truncate to [[1, 2]]
        np.array([[True, False]]),
        np.array([[-5, 2]]),  # would count two tokens and one frequency
        np.array([[1, -1, 2]]),  # a -1 inside the walk's length
        np.array([[TOKEN_LIMIT, 0]]),  # would wrap in four bytes
    ])
    def test_constructor_refuses(self, walks):
        with pytest.raises(WalkError):
            WalkCorpus(walks, [walks.shape[1]])

    def test_constructor_refuses_float_lengths(self):
        with pytest.raises(WalkError):
            WalkCorpus(np.array([[1, 2]]), np.array([1.5]))

    @pytest.mark.parametrize("sequences", [
        [[1.5, 2]], [np.array([True, False])], [[-5, 2]], [[1, -1, 2]], [[0, TOKEN_LIMIT]],
        [[0], []],
    ])
    def test_from_lists_refuses(self, sequences):
        with pytest.raises(WalkError):
            WalkCorpus.from_lists(sequences)

    @pytest.mark.parametrize("walks, lengths", [
        ([[-5, 2]], [2]),
        ([[1, -1, 2]], [3]),
        ([[1, 2, 3]], [2]),  # a token past the walk's length
        ([[0.5, 2.0]], [2]),
    ])
    def test_load_npz_refuses(self, tmp_path, walks, lengths):
        path = tmp_path / "bad.npz"
        np.savez(path, walks=np.array(walks), lengths=np.array(lengths))
        with pytest.raises(WalkError):
            WalkCorpus.load_npz(path)

    def test_load_npz_checks_token_dtype_files_too(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, walks=np.array([[4, -1, 3]], dtype=TOKEN_DTYPE), lengths=np.array([3]))
        with pytest.raises(WalkError):
            WalkCorpus.load_npz(path)

    @pytest.mark.parametrize("text", ["1 2.5\n", "0 1\n3 x\n", "1 -1 2\n", f"{TOKEN_LIMIT}\n"])
    def test_load_text_refuses(self, tmp_path, text):
        path = tmp_path / "walks.txt"
        path.write_text(text)
        with pytest.raises(WalkError):
            WalkCorpus.load_text(path)

    def test_int64_npz_loads_to_identical_values(self):
        """A file saved when tokens were int64 (``tests/data``) still loads."""
        with np.load(DATA / "corpus_int64.npz") as data:
            walks, lengths = data["walks"], data["lengths"]
        assert walks.dtype == np.int64
        corpus = WalkCorpus.load_npz(DATA / "corpus_int64.npz")
        assert corpus.walks.dtype == TOKEN_DTYPE
        assert np.array_equal(corpus.walks, walks) and np.array_equal(corpus.lengths, lengths)
        assert corpus.walks.max() == TOKEN_LIMIT - 1

    @given(st.lists(
        st.lists(st.integers(0, TOKEN_LIMIT - 1), min_size=1, max_size=6), max_size=5,
    ))
    @settings(max_examples=60, deadline=None)
    def test_formats_round_trip(self, sequences):
        corpus = WalkCorpus.from_lists(sequences)
        with tempfile.TemporaryDirectory() as tmp:
            corpus.save_npz(Path(tmp) / "c.npz")
            corpus.save_text(Path(tmp) / "c.txt")
            npz = WalkCorpus.load_npz(Path(tmp) / "c.npz")
            text = WalkCorpus.load_text(Path(tmp) / "c.txt")
        half = len(sequences) // 2
        merged = WalkCorpus.merge(
            [WalkCorpus.from_lists(sequences[:half]), WalkCorpus.from_lists(sequences[half:])]
        )
        for back in (corpus, npz, text, merged):
            assert back.walks.dtype == TOKEN_DTYPE
            assert [w.tolist() for w in back.iter_walks()] == sequences
        for back in (npz, text):
            assert np.array_equal(back.walks, corpus.walks)
            assert np.array_equal(back.lengths, corpus.lengths)

    def test_statistics(self):
        corpus = WalkCorpus.from_lists([[0, 1, 2], [3, 4]])
        stats = corpus.statistics()
        assert stats["num_walks"] == 2
        assert stats["mean_length"] == 2.5
        assert stats["truncated_walks"] == 1
        assert stats["distinct_nodes"] == 5

    def test_statistics_empty(self):
        assert WalkCorpus.from_lists([]).statistics()["num_walks"] == 0
