"""Tests for the serving subsystem: store, indexes, service, wiring."""

import numpy as np
import pytest

from repro.embedding import KeyedVectors
from repro.errors import ServingError, SpecError
from repro.serving import (
    INDEX_REGISTRY,
    BruteForceIndex,
    EmbeddingStore,
    IVFIndex,
    LRUCache,
    QueryService,
    make_index,
)


@pytest.fixture
def kv(rng):
    n, d = 300, 16
    return KeyedVectors(np.arange(n), rng.standard_normal((n, d)))


@pytest.fixture
def store(kv):
    return EmbeddingStore.from_keyed_vectors(kv)


class TestEmbeddingStore:
    def test_roundtrip_bitwise(self, kv, store, tmp_path):
        path = tmp_path / "kv.embstore"
        store.save(path)
        back = EmbeddingStore.open(path)
        assert np.array_equal(np.asarray(back.keys), kv.keys)
        # the on-disk matrix is the float32 cast of the trained vectors,
        # bit for bit, norms included
        assert np.array_equal(np.asarray(back.vectors), kv.vectors.astype(np.float32))
        assert np.array_equal(np.asarray(back.norms), store.norms)
        assert isinstance(back.vectors, np.memmap)
        assert "mmap" in repr(back) and "memory" in repr(store)

    def test_keyed_vectors_conversion_path(self, kv, tmp_path):
        path = tmp_path / "kv.embstore"
        served = kv.to_store(path)
        assert isinstance(served.vectors, np.memmap)
        back = KeyedVectors.from_store(path)
        assert np.array_equal(back.keys, kv.keys)
        assert np.allclose(back.vectors, kv.vectors, atol=1e-6)
        # in-memory conversion needs no file
        assert kv.to_store().path is None

    def test_lookup_and_missing_keys(self, store):
        assert 0 in store and 299 in store and 300 not in store
        assert np.array_equal(store.rows_for([5, 0]), [5, 0])
        assert store.vector(7).shape == (16,)
        with pytest.raises(ServingError, match="key 300"):
            store.rows_for([0, 300])

    def test_sparse_keys(self):
        keys = np.array([3, 100, 7])
        store = EmbeddingStore(keys, np.eye(3, dtype=np.float32))
        assert np.array_equal(store.rows_for([100, 3]), [1, 0])
        assert 4 not in store

    def test_empty_store_lookup_raises_serving_error(self):
        store = EmbeddingStore(
            np.array([], dtype=np.int64), np.zeros((0, 4), dtype=np.float32)
        )
        assert 0 not in store
        with pytest.raises(ServingError, match="not in the store"):
            store.rows_for([5])

    def test_open_rejects_non_store(self, tmp_path):
        bad = tmp_path / "bad.embstore"
        bad.write_bytes(b"not a store at all, definitely not 64 header bytes....")
        with pytest.raises(ServingError, match="not an embedding store|too short"):
            EmbeddingStore.open(bad)
        with pytest.raises(ServingError, match="cannot open"):
            EmbeddingStore.open(tmp_path / "absent.embstore")

    def test_open_rejects_truncated(self, store, tmp_path):
        path = store.save(tmp_path / "t.embstore")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ServingError, match="truncated"):
            EmbeddingStore.open(path)

    def test_misaligned_rejected(self):
        with pytest.raises(ServingError):
            EmbeddingStore(np.array([1]), np.zeros((2, 3), dtype=np.float32))


class TestBruteForceIndex:
    def test_matches_most_similar_exactly(self, kv, store):
        """Same keys, same order as the existing single-key loop."""
        index = BruteForceIndex(store)
        queries = kv.vectors[:25]
        rows, scores = index.topk(queries, 5)
        for i in range(25):
            expected = kv.most_similar(kv.vectors[i], topn=5)
            got = [int(store.keys[r]) for r in rows[i]]
            assert got == [k for k, __ in expected]
            assert np.allclose(scores[i], [s for __, s in expected], atol=1e-5)

    def test_chunking_invariant(self, kv, store):
        whole = BruteForceIndex(store).topk(kv.vectors[:40], 3)
        chunked = BruteForceIndex(store, query_chunk=7).topk(kv.vectors[:40], 3)
        assert np.array_equal(whole[0], chunked[0])

    def test_k_clamped_to_store(self, store):
        rows, scores = BruteForceIndex(store).topk(np.asarray(store.vectors[0]), 1000)
        assert rows.shape == (1, len(store))
        assert np.all(np.diff(scores[0]) <= 1e-6)  # sorted descending

    def test_single_vector_query(self, store):
        rows, __ = BruteForceIndex(store).topk(np.asarray(store.vectors[3]), 1)
        assert rows[0, 0] == 3  # a vector's nearest neighbour is itself


class TestIVFIndex:
    def test_exhaustive_probe_recall(self, kv, store):
        """recall@10 at nprobe == nlist is exact (>= 0.9 required)."""
        brute_rows, __ = BruteForceIndex(store).topk(kv.vectors[:50], 10)
        ivf = IVFIndex(store, nlist=16, nprobe=16, seed=1)
        ivf_rows, __ = ivf.topk(kv.vectors[:50], 10)
        hits = sum(
            len(set(b.tolist()) & set(i.tolist())) for b, i in zip(brute_rows, ivf_rows)
        )
        recall = hits / brute_rows.size
        assert recall >= 0.9
        assert recall == pytest.approx(1.0)

    def test_recall_grows_with_nprobe(self, kv, store):
        brute_rows, __ = BruteForceIndex(store).topk(kv.vectors[:50], 10)
        ivf = IVFIndex(store, nlist=16, nprobe=1, seed=1)

        def recall(nprobe):
            rows, __ = ivf.topk(kv.vectors[:50], 10, nprobe=nprobe)
            hits = sum(
                len(set(b.tolist()) & set(i.tolist())) for b, i in zip(brute_rows, rows)
            )
            return hits / brute_rows.size

        assert recall(1) <= recall(8) <= recall(16) == pytest.approx(1.0)

    def test_inverted_lists_partition_store(self, store):
        ivf = IVFIndex(store, nlist=8, seed=2)
        assert int(ivf.list_sizes().sum()) == len(store)
        assert np.array_equal(np.sort(ivf._list_rows), np.arange(len(store)))

    def test_small_store_edge_cases(self):
        store = EmbeddingStore(np.arange(3), np.eye(3, dtype=np.float32))
        ivf = IVFIndex(store, nlist=8, nprobe=8, seed=0)  # nlist clamped to n
        assert ivf.nlist <= 3
        rows, scores = ivf.topk(np.eye(3, dtype=np.float32)[0], 5)
        assert rows.shape == (1, 3)
        assert rows[0, 0] == 0

    def test_default_nlist_is_sqrt(self, store):
        assert IVFIndex(store, seed=0).nlist == round(np.sqrt(len(store)))


class TestIndexRegistry:
    def test_builtins_registered(self):
        assert "bruteforce" in INDEX_REGISTRY and "ivf" in INDEX_REGISTRY
        assert INDEX_REGISTRY.canonical("flat") == "bruteforce"
        assert INDEX_REGISTRY.canonical("ivf-flat") == "ivf"

    def test_make_index_unknown_name(self, store):
        with pytest.raises(ServingError, match="registered"):
            make_index("annoy", store)

    def test_third_party_index_plugs_in(self, store):
        from repro.serving import register_index

        @register_index("null-index")
        class NullIndex:
            def __init__(self, store):
                self.store = store

            def topk(self, queries, k):
                m = np.atleast_2d(np.asarray(queries)).shape[0]
                return np.full((m, k), -1, np.int64), np.full((m, k), -np.inf, np.float32)

        try:
            service = QueryService(store, index="null-index", cache_size=0)
            assert service.most_similar_batch([0]) == [[]]
        finally:
            INDEX_REGISTRY.unregister("null-index")


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_capacity_validated(self):
        with pytest.raises(ServingError):
            LRUCache(0)


class TestQueryService:
    def test_matches_most_similar(self, kv, store):
        service = QueryService(store, cache_size=0)
        results = service.most_similar_batch([0, 17, 205], topn=5)
        for key, result in zip([0, 17, 205], results):
            expected = kv.most_similar(key, topn=5)
            assert [k for k, __ in result] == [k for k, __ in expected]
            assert np.allclose(
                [s for __, s in result], [s for __, s in expected], atol=1e-5
            )

    def test_excludes_query_key(self, store):
        results = QueryService(store).most_similar_batch(np.arange(50), topn=10)
        for key, result in zip(range(50), results):
            assert len(result) == 10
            assert all(k != key for k, __ in result)

    def test_topn_larger_than_store(self, store):
        (result,) = QueryService(store).most_similar_batch([4], topn=10_000)
        assert len(result) == len(store) - 1  # everything but the query key

    def test_cache_hits_and_counters(self, store):
        service = QueryService(store, cache_size=8)
        first = service.most_similar_batch([1, 2], topn=3)
        again = service.most_similar_batch([2, 1], topn=3)
        assert again == first[::-1]
        stats = service.stats()
        assert stats["cache_hits"] == 2 and stats["cache_misses"] == 2
        assert stats["queries"] == 4 and stats["batches"] == 2
        assert stats["cache_hit_rate"] == pytest.approx(0.5)
        assert stats["qps"] > 0 and stats["mean_batch_ms"] >= 0
        # different topn is a different cache entry
        service.most_similar_batch([1], topn=4)
        assert service.stats()["cache_misses"] == 3

    def test_caller_mutation_cannot_poison_cache(self, store):
        service = QueryService(store, cache_size=8)
        (first,) = service.most_similar_batch([1], topn=3)
        first.append(("poison", 0.0))
        (hit,) = service.most_similar_batch([1], topn=3)
        assert len(hit) == 3 and ("poison", 0.0) not in hit
        hit.clear()
        (again,) = service.most_similar_batch([1], topn=3)
        assert len(again) == 3

    def test_similarity_batch(self, kv, store):
        service = QueryService(store)
        sims = service.similarity_batch([0, 5], [5, 9])
        assert sims == pytest.approx([kv.similarity(0, 5), kv.similarity(5, 9)], abs=1e-5)
        with pytest.raises(ServingError, match="aligned"):
            service.similarity_batch([0, 1], [2])

    def test_topk_vectors_passthrough(self, kv, store):
        service = QueryService(store)
        (result,) = service.topk_vectors(kv.vectors[12], topn=1)
        assert result[0][0] == 12  # no self-exclusion for raw vectors

    def test_accepts_keyed_vectors_directly(self, kv):
        service = QueryService(kv)
        assert len(service.store) == len(kv)
        with pytest.raises(ServingError, match="EmbeddingStore or KeyedVectors"):
            QueryService(object())

    def test_missing_key_raises(self, store):
        with pytest.raises(ServingError, match="not in the store"):
            QueryService(store).most_similar_batch([999])

    def test_reset_stats(self, store):
        service = QueryService(store)
        service.most_similar_batch([0])
        service.reset_stats()
        assert service.stats()["queries"] == 0


class TestUniNetServe:
    def test_serve_after_train(self, barbell):
        from repro import UniNet

        net = UniNet(barbell, model="deepwalk", seed=3)
        net.train(num_walks=3, walk_length=10, dimensions=8)
        service = net.serve()
        (result,) = service.most_similar_batch([0], topn=3)
        assert len(result) == 3
        assert service.stats()["store_count"] == len(net.last_embeddings)

    def test_serve_before_train_raises(self, barbell):
        from repro import UniNet

        with pytest.raises(ServingError, match="train"):
            UniNet(barbell, seed=1).serve()

    def test_serve_to_store_path(self, barbell, tmp_path):
        from repro import UniNet

        net = UniNet(barbell, model="deepwalk", seed=3)
        net.train(num_walks=3, walk_length=10, dimensions=8)
        service = net.serve(store_path=tmp_path / "net.embstore", index="ivf", nprobe=2)
        assert isinstance(service.store.vectors, np.memmap)
        assert service.index_name == "ivf"


class TestServingSpec:
    def test_round_trip_and_validation(self):
        from repro import RunSpec

        spec = RunSpec.from_dict(
            {
                "graph": {"dataset": "amazon", "scale": 0.05},
                "serving": {"index": "ivf", "index_params": {"nprobe": 2}},
            }
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert spec.serving.index == "ivf"

    def test_unknown_index_rejected(self):
        from repro import RunSpec

        with pytest.raises(ServingError, match="registered"):
            RunSpec.from_dict({"graph": {"dataset": "amazon"}, "serving": {"index": "faiss"}})

    def test_serving_requires_train(self):
        from repro import RunSpec

        with pytest.raises(SpecError, match="train"):
            RunSpec.from_dict({"graph": {"dataset": "amazon"}, "train": None, "serving": {}})

    def test_run_records_serving_metrics(self):
        from repro import run

        report = run(
            {
                "graph": {"dataset": "amazon", "scale": 0.05, "seed": 1},
                "walk": {"num_walks": 1, "walk_length": 8},
                "train": {"dimensions": 8},
                "serving": {"probe_queries": 16, "topn": 3},
            }
        )
        serving = report.metrics["serving"]
        assert serving["queries"] == 16 and serving["topn"] == 3
        assert serving["qps"] > 0
        assert serving["index"] == "bruteforce"


class TestServingCLI:
    def test_export_store_and_query(self, kv, tmp_path, capsys):
        from repro.cli import main

        npz = tmp_path / "vectors.npz"
        kv.save_npz(npz)
        store_path = tmp_path / "vectors.embstore"
        assert main(["export-store", "--vectors", str(npz), "--output", str(store_path)]) == 0
        assert main(
            ["query", "--store", str(store_path), "--keys", "0", "3", "--topn", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "exported 300 x 16" in out
        assert "top-2 via bruteforce" in out and "qps" in out

    def test_query_with_ivf_flags(self, kv, tmp_path, capsys):
        from repro.cli import main

        store_path = tmp_path / "v.embstore"
        kv.to_store(store_path)
        code = main(
            [
                "query", "--store", str(store_path), "--topn", "2",
                "--index", "ivf", "--nlist", "4", "--nprobe", "4",
            ]
        )
        assert code == 0
        assert "via ivf" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "verb, flags, named",
        [
            ("query", ["--index", "ivf", "--nprobe", "0"], "nprobe"),
            ("query", ["--index", "ivf", "--nlist", "0"], "nlist"),
            ("serve", ["--index", "ivf", "--nprobe", "0", "--port", "0"], "nprobe"),
            ("export-store", ["--codec", "pq", "--pq-m", "0"], "pq.m"),
            ("export-store", ["--codec", "int8", "--codec-param", "bogus=1"], "bogus"),
        ],
    )
    def test_a_bad_serving_parameter_is_one_line_and_exit_2(self, kv, tmp_path, capsys, verb, flags, named):
        """Refused by the serving block the verb builds, before a store is
        opened, encoded or served: no ``TypeError`` reaches the user."""
        from repro.cli import main

        npz, store_path = tmp_path / "v.npz", tmp_path / "v.embstore"
        kv.save_npz(npz)
        kv.to_store(store_path)
        given = ["--vectors", str(npz), "--output", str(tmp_path / "out.embstore")]
        if verb != "export-store":
            given = ["--store", str(store_path)]
        assert main([verb, *given, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert named in captured.err and captured.out == ""

    def test_facade_spec_block_and_verb_give_the_same_answers(self, kv, barbell, tmp_path, capsys):
        """One builder: the same settings through ``UniNet.serve``, a
        ``serving:`` RunSpec block and the ``query`` verb."""
        from repro import RunSpec, UniNet
        from repro.cli import main

        keys, settings = [0, 3, 17], {"nlist": 6, "nprobe": 2}
        net = UniNet(barbell, model="deepwalk", seed=3)
        by_facade = net.serve(kv, index="ivf", cache_size=0, **settings).most_similar_batch(
            keys, topn=4
        )
        block = {"index": "ivf", "index_params": settings, "cache_size": 0, "topn": 4}
        spec = RunSpec.from_dict({"graph": {"dataset": "amazon"}, "serving": block}).serving
        assert spec.build(kv).most_similar_batch(keys, topn=spec.topn) == by_facade
        # the verb opens a file and prints a table (scores to ~4 digits)
        store_path = tmp_path / "v.embstore"
        kv.to_store(store_path)
        flags = ["--index", "ivf", "--nlist", "6", "--nprobe", "2", "--topn", "4"]
        assert main(["query", "--store", str(store_path), "--keys", *map(str, keys), *flags]) == 0
        rows = [
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if line.count("|") == 3 and line[0].isdigit()
        ]
        expected = [(key, nkey, score) for key, hits in zip(keys, by_facade) for nkey, score in hits]
        assert [(int(q), int(n)) for q, __, n, __ in rows] == [(q, n) for q, n, __ in expected]
        assert [float(c) for *__, c in rows] == pytest.approx([c for *__, c in expected], abs=1e-3)

    def test_export_store_missing_vectors(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["export-store", "--vectors", str(tmp_path / "no.npz"),
             "--output", str(tmp_path / "out.embstore")]
        )
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

    def test_query_bad_store(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.embstore"
        bad.write_bytes(b"x" * 128)
        assert main(["query", "--store", str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestConcurrencySafety:
    """Regression tests for the serving-layer single-thread assumptions."""

    def test_lru_cache_safe_under_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        cache = LRUCache(32)

        def hammer(seed):
            rng = np.random.default_rng(seed)
            for _ in range(2000):
                key = (int(rng.integers(0, 64)), 10)
                cache.put(key, (seed,))
                cache.get((int(rng.integers(0, 64)), 10))

        # interleaved get/put used to raise KeyError (move_to_end/read
        # pair) or overshoot capacity (insert/evict pair)
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(hammer, range(8)))
        assert len(cache) <= 32

    def test_counters_exact_under_threads(self, store):
        from concurrent.futures import ThreadPoolExecutor

        service = QueryService(store, cache_size=0)

        def work(seed):
            for _ in range(50):
                service.most_similar_batch([seed % 300], topn=3)

        with ThreadPoolExecutor(8) as pool:
            list(pool.map(work, range(8)))
        assert service.counters["queries"] == 400
        assert service.counters["batches"] == 400


class TestDuplicateKeyDedup:
    """most_similar_batch must scan one row per *unique* miss key."""

    class CountingIndex:
        name = "counting"

        def __init__(self, inner):
            self.inner = inner
            self.scan_rows = []

        def topk(self, queries, k):
            self.scan_rows.append(int(np.atleast_2d(np.asarray(queries)).shape[0]))
            return self.inner.topk(queries, k)

    def test_one_scan_row_per_unique_key(self, store):
        index = self.CountingIndex(BruteForceIndex(store))
        service = QueryService(store, index=index, cache_size=0)
        results = service.most_similar_batch([5, 9, 5, 5, 9], topn=4)
        assert index.scan_rows == [2]
        assert results[0] == results[2] == results[3]
        assert results[1] == results[4]
        # each position owns an independent list: caller mutation of one
        # duplicate must not leak into the others
        results[0].append("sentinel")
        assert results[2][-1] != "sentinel"

    def test_duplicates_write_cache_once(self, store):
        service = QueryService(store, cache_size=8)
        first = service.most_similar_batch([3, 3, 3], topn=2)
        assert len(service.cache) == 1
        assert service.counters["cache_misses"] == 3
        again = service.most_similar_batch([3], topn=2)
        assert service.counters["cache_hits"] == 1
        assert again[0] == first[0]


class TestUpsertReadOnlyGuard:
    """upsert must validate every buffer before the first write."""

    def _store(self):
        rng = np.random.default_rng(5)
        kv = KeyedVectors(np.arange(20), rng.standard_normal((20, 8)))
        return EmbeddingStore.from_keyed_vectors(kv)

    @pytest.mark.parametrize("buffer", ["keys", "codes", "norms"])
    def test_any_readonly_buffer_refuses_cleanly(self, buffer):
        store = self._store()
        getattr(store, buffer).flags.writeable = False
        before_codes = np.array(store.codes)
        before_norms = np.array(store.norms)
        with pytest.raises(ServingError, match="read-only"):
            store.upsert([0], np.ones(8, dtype=np.float32))
        # nothing was partially applied
        assert np.array_equal(np.asarray(store.codes), before_codes)
        assert np.array_equal(np.asarray(store.norms), before_norms)


class TestServerWiring:
    def test_serve_server_kwarg_returns_query_server(self, barbell):
        import asyncio

        from repro import UniNet
        from repro.serving import InProcessClient, QueryServer

        net = UniNet(barbell, model="deepwalk", seed=3)
        net.train(num_walks=2, walk_length=8, dimensions=8)
        server = net.serve(server={"max_batch": 8, "queue_size": 64})
        assert isinstance(server, QueryServer)
        assert server.max_batch == 8 and server.queue_size == 64

        async def main():
            await server.start()
            rows = await InProcessClient(server).most_similar(0, topn=2)
            await server.stop()
            return rows

        assert len(asyncio.run(main())[0]) == 2

    def test_serving_spec_server_block_validation(self):
        from repro import ServingSpec

        from repro.serving import ServerConfig

        assert ServingSpec(server={"max_batch": 8}).server == ServerConfig(max_batch=8)
        assert ServingSpec(server=True).server == ServingSpec(server={}).server == ServerConfig()
        assert ServingSpec().server is None
        with pytest.raises(SpecError, match="unknown serving.server knobs"):
            ServingSpec(server={"bogus": 1})
        with pytest.raises(SpecError, match="mapping"):
            ServingSpec(server="yes")
