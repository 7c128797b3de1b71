"""Streaming shard pipeline: bounded-memory walk→train.

Covers the three layers of streaming:

* trainer — ``build_vocab`` / ``partial_fit`` / ``finalize`` parity with
  monolithic :meth:`Word2Vec.fit` for *any* shard boundaries;
* walks — ``generate_stream`` ≡ ``generate``, corpus memory accounting;
* core — ``StreamingConfig`` plumbing through the pipeline, ``UniNet``,
  ``RunSpec`` and the CLI, the prefetching iterator behind ``overlap``,
  overlap equivalence, bounded peak bytes.
"""

import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import StreamingConfig, TrainConfig, WalkConfig
from repro.core.pipeline import _prefetch, train_pipeline
from repro.embedding import Word2Vec
from repro.errors import TrainingError, WalkError
from repro.tokens import TOKEN_DTYPE
from repro.walks import VectorizedWalkEngine, WalkCorpus
from repro.walks.models import make_model


@pytest.fixture
def graph_and_corpus(small_unweighted_graph):
    engine = VectorizedWalkEngine(small_unweighted_graph, "deepwalk", sampler="mh", seed=11)
    corpus = engine.generate(num_walks=3, walk_length=16)
    return small_unweighted_graph, corpus


def row_slices(corpus, shard_walks):
    """The corpus as zero-copy shards of ``shard_walks`` rows each."""
    return [
        WalkCorpus(corpus.walks[lo : lo + shard_walks], corpus.lengths[lo : lo + shard_walks])
        for lo in range(0, corpus.num_walks, shard_walks)
    ]


def producer_threads():
    return [t for t in threading.enumerate() if t.name == "walk-producer"]


# ---------------------------------------------------------------------------
# trainer: streamed == monolithic, bitwise
# ---------------------------------------------------------------------------
class TestStreamedTrainingParity:
    @pytest.mark.parametrize("shard_walks", [1, 7, 100, 10_000])
    def test_any_shard_count_matches_fit(self, graph_and_corpus, shard_walks):
        graph, corpus = graph_and_corpus
        kv_mono = Word2Vec(dimensions=12, epochs=2, seed=5, block_walks=64).fit(
            corpus, num_nodes=graph.num_nodes
        )
        kv_stream = Word2Vec(dimensions=12, epochs=2, seed=5, block_walks=64).fit_stream(
            row_slices(corpus, shard_walks),
            counts=corpus.node_frequencies(graph.num_nodes),
            total_walks=corpus.num_walks,
        )
        assert np.array_equal(kv_mono.vectors, kv_stream.vectors)
        assert np.array_equal(kv_mono.keys, kv_stream.keys)

    def test_ragged_shard_widths_match_fit(self, graph_and_corpus):
        """Shards re-padded to different widths still train identically."""
        graph, corpus = graph_and_corpus
        kv_mono = Word2Vec(dimensions=8, seed=3, block_walks=50).fit(
            corpus, num_nodes=graph.num_nodes
        )
        shards = []
        for lo in range(0, corpus.num_walks, 83):
            lengths = corpus.lengths[lo : lo + 83]
            width = int(lengths.max())  # trim each shard to its own width
            shards.append(WalkCorpus(corpus.walks[lo : lo + 83, :width], lengths))
        w2v = Word2Vec(dimensions=8, seed=3, block_walks=50)
        w2v.build_vocab(
            corpus.node_frequencies(graph.num_nodes), total_walks=corpus.num_walks
        )
        for shard in shards:
            w2v.partial_fit(shard)
        assert np.array_equal(kv_mono.vectors, w2v.finalize().vectors)

    def test_subsample_and_cbow_parity(self, graph_and_corpus):
        graph, corpus = graph_and_corpus
        kwargs = dict(dimensions=8, seed=9, block_walks=37, subsample=1e-2, mode="cbow")
        kv_mono = Word2Vec(**kwargs).fit(corpus, num_nodes=graph.num_nodes)
        kv_stream = Word2Vec(**kwargs).fit_stream(
            row_slices(corpus, 29),
            counts=corpus.node_frequencies(graph.num_nodes),
            total_walks=corpus.num_walks,
        )
        assert np.array_equal(kv_mono.vectors, kv_stream.vectors)

    def test_partial_fit_requires_build_vocab(self, graph_and_corpus):
        __, corpus = graph_and_corpus
        with pytest.raises(TrainingError):
            Word2Vec(dimensions=4).partial_fit(corpus)
        with pytest.raises(TrainingError):
            Word2Vec(dimensions=4).finalize()

    def test_short_walk_stream_rejected(self):
        corpus = WalkCorpus.from_lists([[0], [1]])
        w2v = Word2Vec(dimensions=4).build_vocab(np.array([1, 1]))
        w2v.partial_fit(corpus)
        with pytest.raises(TrainingError):
            w2v.finalize()

    def test_buffered_bytes_tracks_pending_rows(self, graph_and_corpus):
        __, corpus = graph_and_corpus
        w2v = Word2Vec(dimensions=4, block_walks=10_000).build_vocab(
            corpus.node_frequencies(200), total_walks=corpus.num_walks
        )
        assert w2v.buffered_bytes() == 0
        w2v.partial_fit(corpus)  # smaller than one block: everything buffers
        assert w2v.buffered_bytes() == corpus.nbytes


# ---------------------------------------------------------------------------
# walks: stream generation
# ---------------------------------------------------------------------------
class TestGenerateStream:
    def test_wave_shards_reproduce_generate(self, small_unweighted_graph):
        mono = VectorizedWalkEngine(
            small_unweighted_graph, "deepwalk", sampler="mh", seed=4
        ).generate(num_walks=3, walk_length=10)
        shards = list(
            VectorizedWalkEngine(
                small_unweighted_graph, "deepwalk", sampler="mh", seed=4
            ).generate_stream(num_walks=3, walk_length=10)
        )
        assert len(shards) == 3  # one per wave
        merged = WalkCorpus.merge(shards)
        assert np.array_equal(mono.walks, merged.walks)
        assert np.array_equal(mono.lengths, merged.lengths)

    def test_shard_walks_bounds_shard_size(self, small_unweighted_graph):
        shards = list(
            VectorizedWalkEngine(
                small_unweighted_graph, "deepwalk", sampler="mh", seed=4
            ).generate_stream(num_walks=2, walk_length=8, shard_walks=33)
        )
        assert all(s.num_walks <= 33 for s in shards)
        total = sum(s.num_walks for s in shards)
        assert total == 2 * small_unweighted_graph.num_nodes

    def test_invalid_args_rejected(self, small_unweighted_graph):
        engine = VectorizedWalkEngine(small_unweighted_graph, "deepwalk", seed=1)
        with pytest.raises(WalkError):
            list(engine.generate_stream(num_walks=0))
        with pytest.raises(WalkError):
            list(engine.generate_stream(shard_walks=0))

    @pytest.mark.parametrize("shard_walks", [0, -2, True, 2.5, "3"])
    def test_a_shard_size_that_is_no_count_is_refused(self, small_unweighted_graph, shard_walks):
        engine = VectorizedWalkEngine(small_unweighted_graph, "deepwalk", seed=1)
        with pytest.raises(WalkError, match="shard_walks must be an integer >= 1"):
            next(engine.generate_stream(num_walks=1, walk_length=4, shard_walks=shard_walks))


class TestCorpusMemoryAccounting:
    def test_nbytes(self):
        corpus = WalkCorpus.from_lists([[0, 1, 2], [1, 2]])
        assert corpus.nbytes == corpus.walks.nbytes + corpus.lengths.nbytes

    def test_merge_single_is_passthrough(self):
        corpus = WalkCorpus.from_lists([[0, 1, 2]])
        assert WalkCorpus.merge([corpus]) is corpus

    def test_merge_same_width_and_ragged(self):
        a = WalkCorpus.from_lists([[0, 1, 2], [2, 1, 0]])
        b = WalkCorpus.from_lists([[1, 2, 0]])
        c = WalkCorpus.from_lists([[0, 1]])
        same = WalkCorpus.merge([a, b])
        assert same.num_walks == 3 and same.walks.shape[1] == 3
        ragged = WalkCorpus.merge([a, c])
        assert ragged.num_walks == 3 and ragged.walks.shape[1] == 3
        assert ragged.lengths.tolist() == [3, 3, 2]

    def test_walk_result_carries_corpus_bytes(self, small_unweighted_graph):
        from repro.core.pipeline import generate_walk_result

        result = generate_walk_result(
            small_unweighted_graph, "deepwalk", WalkConfig(num_walks=1, walk_length=6),
            seed=3,
        )
        assert result.corpus_bytes == result.corpus.nbytes
        assert result.corpus_bytes > 0


# ---------------------------------------------------------------------------
# core: config, pipeline, spec, CLI
# ---------------------------------------------------------------------------
class TestStreamingConfig:
    def test_validation(self):
        with pytest.raises(WalkError):
            StreamingConfig(shard_walks=0)
        with pytest.raises(WalkError):
            StreamingConfig(vocab="census")
        # the switch, the byte spelling and the queue depth are no knobs
        for gone in ("enabled", "max_corpus_bytes", "queue_shards"):
            with pytest.raises(TypeError, match=gone):
                StreamingConfig(**{gone: 1})

    def test_a_shard_is_shard_walks_walks_or_one_wave(self, small_unweighted_graph, monkeypatch):
        widths = []
        original = Word2Vec.partial_fit

        def recording(self, shard):
            widths.append(shard.num_walks)
            return original(self, shard)

        monkeypatch.setattr(Word2Vec, "partial_fit", recording)
        walk, train = WalkConfig(num_walks=2, walk_length=6), TrainConfig(dimensions=4)
        starts = make_model("deepwalk", small_unweighted_graph).valid_start_nodes().size
        for streaming, width in ((StreamingConfig(shard_walks=7), 7), (StreamingConfig(), starts)):
            widths.clear()
            train_pipeline(small_unweighted_graph, "deepwalk", walk, train, seed=3, streaming=streaming)
            assert sum(widths) == 2 * starts
            assert max(widths) == width == widths[0]


class TestPrefetch:
    """The iterator ``overlap=True`` wraps round the shard source."""

    @pytest.mark.parametrize("depth", [1, 3])
    def test_items_arrive_in_order(self, depth):
        assert list(_prefetch(iter(range(50)), depth)) == list(range(50))
        assert not producer_threads()

    def test_producer_error_follows_the_items_before_it(self):
        def items():
            yield from range(5)
            raise ValueError("producer died")

        got = []
        with pytest.raises(ValueError, match="producer died"):
            for item in _prefetch(items(), 2):
                got.append(item)
        assert got == list(range(5))
        assert not producer_threads()

    def test_closing_mid_stream_reaps_the_thread(self):
        produced = []

        def items():
            for i in range(10_000):
                produced.append(i)
                yield i

        ahead = _prefetch(items(), 2)
        assert [next(ahead), next(ahead)] == [0, 1]
        assert producer_threads()
        ahead.close()
        assert not producer_threads()
        # the producer stopped where the bounded queue held it, not at the end
        assert len(produced) < 10


class TestStreamingPipeline:
    @pytest.fixture
    def configs(self):
        return WalkConfig(num_walks=2, walk_length=12), TrainConfig(dimensions=8, epochs=1)

    def test_peak_bytes_bounded_by_shard(self, small_unweighted_graph, configs):
        walk_cfg, train_cfg = configs
        mono = train_pipeline(small_unweighted_graph, "deepwalk", walk_cfg, train_cfg, seed=21)
        streamed = train_pipeline(
            small_unweighted_graph, "deepwalk", walk_cfg, train_cfg, seed=21,
            streaming=StreamingConfig(shard_walks=25),
        )
        assert streamed.streaming and streamed.corpus is None
        assert streamed.corpus_summary == mono.corpus_summary
        per_walk = TOKEN_DTYPE.itemsize * walk_cfg.walk_length + 8  # tokens + int64 length
        assert mono.peak_corpus_bytes == mono.corpus_summary["num_walks"] * per_walk
        # shard + trainer block, each ~25 walks — far under the full corpus
        assert streamed.peak_corpus_bytes < mono.peak_corpus_bytes / 3
        assert len(streamed.embeddings) == len(mono.embeddings)

    def test_exact_vocab_wave_shards_reproduce_monolithic(
        self, small_unweighted_graph, configs
    ):
        walk_cfg, train_cfg = configs
        mono = train_pipeline(small_unweighted_graph, "deepwalk", walk_cfg, train_cfg, seed=21)
        streamed = train_pipeline(
            small_unweighted_graph, "deepwalk", walk_cfg,
            replace(train_cfg, extra={"block_walks": 8192}), seed=21,
            streaming=StreamingConfig(vocab="exact"),
        )
        assert np.array_equal(mono.embeddings.vectors, streamed.embeddings.vectors)

    def test_overlap_matches_sequential(self, small_unweighted_graph, configs):
        walk_cfg, train_cfg = configs
        results = [
            train_pipeline(
                small_unweighted_graph, "deepwalk", walk_cfg, train_cfg, seed=8,
                streaming=StreamingConfig(shard_walks=30, overlap=overlap),
            )
            for overlap in (False, True)
        ]
        assert np.array_equal(
            results[0].embeddings.vectors, results[1].embeddings.vectors
        )

    def test_consumer_failure_reaps_producer_thread(
        self, small_unweighted_graph, configs, monkeypatch
    ):
        """A mid-stream trainer crash must not strand the walk producer."""
        walk_cfg, train_cfg = configs
        calls = {"n": 0}
        original = Word2Vec.partial_fit

        def failing(self, shard):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("consumer died")
            return original(self, shard)

        monkeypatch.setattr(Word2Vec, "partial_fit", failing)
        with pytest.raises(RuntimeError, match="consumer died"):
            train_pipeline(
                small_unweighted_graph, "deepwalk", walk_cfg, train_cfg, seed=1,
                streaming=StreamingConfig(shard_walks=20, overlap=True),
            )
        assert not producer_threads()

    def test_skip_learning_ignores_streaming(self, small_unweighted_graph, configs):
        walk_cfg, train_cfg = configs
        result = train_pipeline(
            small_unweighted_graph, "deepwalk", walk_cfg, train_cfg, seed=1,
            skip_learning=True, streaming=StreamingConfig(shard_walks=10),
        )
        assert result.corpus is not None and not result.streaming

    def test_uninet_streaming_true_uses_defaults(self, small_unweighted_graph):
        from repro import UniNet

        net = UniNet(small_unweighted_graph, model="deepwalk", seed=3)
        result = net.train(num_walks=1, walk_length=8, dimensions=8, streaming=True)
        assert result.streaming
        assert result.corpus_summary["num_walks"] == small_unweighted_graph.num_nodes


class TestStreamingSpec:
    def test_round_trip(self):
        from repro.core.spec import RunSpec

        spec = RunSpec.from_dict(
            {
                "graph": {"dataset": "amazon", "scale": 0.05, "seed": 1},
                "walk": {"num_walks": 1, "walk_length": 8},
                "streaming": {"shard_walks": 64, "overlap": True},
            }
        )
        assert spec.streaming.shard_walks == 64 and spec.streaming.overlap
        back = RunSpec.from_dict(json.loads(spec.to_json()))
        assert back == spec
        assert RunSpec.from_dict({"graph": {"dataset": "amazon"}}).streaming is None

    def test_unknown_streaming_key_rejected(self):
        from repro.core.spec import RunSpec
        from repro.errors import SpecError

        with pytest.raises(SpecError):
            RunSpec.from_dict({"streaming": {"shards": 3}})

    def test_run_report_surfaces_peak_bytes(self):
        from repro.core.runner import run

        report = run(
            {
                "graph": {"dataset": "amazon", "scale": 0.05, "seed": 1},
                "walk": {"num_walks": 1, "walk_length": 8},
                "train": {"dimensions": 8},
                "streaming": {"shard_walks": 32},
            }
        )
        assert report.corpus_summary["peak_corpus_bytes"] > 0
        assert report.corpus_summary["token_count"] > 0
        assert report.corpus is None


class TestStreamingCli:
    def test_train_stream_flags(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "vec.npz"
        code = main(
            [
                "train", "--dataset", "amazon", "--scale", "0.05", "--seed", "2",
                "--num-walks", "1", "--walk-length", "8", "--dimensions", "8",
                "--stream", "--shard-walks", "32", "--overlap",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "streamed" in capsys.readouterr().out
