"""Randomized correctness/recall harness for the serving codec layer.

Three layers of certification, mirroring the chi-square suite's
philosophy of fixed seeds + generous thresholds (deterministic draws, so
a failure is a decisive defect, never sampling noise):

* *property tests* — int8 reconstruction error is bounded by the stored
  per-dimension scale, PQ encoding is idempotent on its own
  reconstructions, and store files round-trip bitwise through
  save/open/save, across random shapes and degenerate inputs (constant
  rows, zero vectors, a single row);
* *recall regressions* — on a clustered 5k x 64 synthetic store, the
  quantized read path keeps fixed floors of the exact float32 top-10;
* *contract tests* — PR-3-era (version 1) store files open as float32,
  and ``upsert`` on a quantized store re-encodes through the trained
  codec (with the read-only mmap guard intact).
"""

import struct

from pathlib import Path

import numpy as np
import pytest

from repro.embedding import KeyedVectors
from repro.errors import ServingError
from repro.serving import (
    CODEC_REGISTRY,
    EmbeddingStore,
    Float32Codec,
    Int8Codec,
    IVFIndex,
    PQCodec,
    QueryService,
    SnapshotManager,
    make_codec,
    register_codec,
    topk_overlap,
)

DATA_DIR = Path(__file__).resolve().parent / "data"

#: (n, dim) shapes the round-trip properties are checked across.
SHAPES = [(1, 8), (17, 3), (100, 16), (64, 64), (5, 160)]


def _random_matrix(shape, seed, scale=3.0):
    rng = np.random.default_rng(seed)
    return (scale * rng.standard_normal(shape)).astype(np.float32)


def _clustered_matrix(n, dim, seed, clusters=500, spread=0.25):
    """Balanced Gaussian mixture — the geometry of trained embeddings.

    ~``n/clusters`` points per center with a real margin between
    clusters, so each point's top-10 is a well-separated set (the
    regime recall@10 measures); a broken codebook or ADC path craters
    the overlap instead of shuffling near-ties.
    """
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((clusters, dim)).astype(np.float32)
    assign = rng.permutation(np.arange(n) % clusters)
    noise = spread * rng.standard_normal((n, dim)).astype(np.float32)
    return centers[assign] + noise


_recall = topk_overlap


class TestCodecRegistry:
    def test_builtins_registered(self):
        assert {"float32", "int8", "pq"} <= set(CODEC_REGISTRY)
        assert CODEC_REGISTRY.canonical("fp32") == "float32"
        assert CODEC_REGISTRY.canonical("sq8") == "int8"
        assert CODEC_REGISTRY.canonical("product-quantization") == "pq"

    def test_unknown_codec_raises(self):
        with pytest.raises(ServingError, match="registered"):
            make_codec("zstd")

    def test_third_party_codec_plugs_in(self, tmp_path):
        @register_codec("half-dim")
        class HalfDimCodec(Float32Codec):
            """Keeps only the first half of each vector (lossy, silly)."""

            name = "half-dim"

            @property
            def is_identity(self):
                return False

            @property
            def code_width(self):
                self._require_trained()
                return max(self.dim // 2, 1)

            def encode(self, vectors):
                return np.asarray(vectors, dtype=np.float32)[:, : self.code_width].copy()

            def decode(self, codes):
                out = np.zeros((codes.shape[0], self.dim), dtype=np.float32)
                out[:, : self.code_width] = codes
                return out

        try:
            kv = KeyedVectors(np.arange(20), _random_matrix((20, 8), 0))
            store = EmbeddingStore.from_keyed_vectors(kv, codec="half-dim")
            assert store.is_quantized and store.codes.shape == (20, 4)
            path = store.save(tmp_path / "half.embstore")
            back = EmbeddingStore.open(path)
            assert back.codec.name == "half-dim"
            assert np.array_equal(np.asarray(back.codes), store.codes)
        finally:
            CODEC_REGISTRY.unregister("half-dim")

    def test_untrained_codec_refuses_encode(self):
        with pytest.raises(ServingError, match="not trained"):
            Int8Codec().encode(np.zeros((2, 4), dtype=np.float32))

    def test_trained_dim_enforced_on_identity_fast_path(self):
        codec = Float32Codec().fit(np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(ServingError, match="dim=4"):
            codec.encode(np.zeros((3, 8), dtype=np.float32))

    def test_instance_with_params_rejected(self):
        codec = Int8Codec().fit(np.eye(4, dtype=np.float32))
        with pytest.raises(ServingError, match="registry name"):
            EmbeddingStore.from_keyed_vectors(
                KeyedVectors(np.arange(4), np.eye(4)), codec=codec, m=2
            )


class TestInt8Properties:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction_error_bounded_by_half_scale(self, shape, seed):
        x = _random_matrix(shape, seed)
        codec = Int8Codec().fit(x)
        err = np.abs(codec.decode(codec.encode(x)) - x)
        # nearest-level rounding: at most scale/2 per dimension, plus
        # float32 arithmetic slack
        bound = codec.scale / 2 + 1e-4 * (np.abs(codec.offset) + 255 * codec.scale)
        assert np.all(err <= bound[None, :])

    def test_constant_rows_exact(self):
        x = np.full((6, 5), 2.5, dtype=np.float32)
        codec = Int8Codec().fit(x)
        assert np.array_equal(codec.decode(codec.encode(x)), x)

    def test_zero_matrix_exact(self):
        x = np.zeros((4, 7), dtype=np.float32)
        codec = Int8Codec().fit(x)
        assert np.array_equal(codec.encode(x), np.zeros((4, 7), dtype=np.uint8))
        assert np.array_equal(codec.decode(codec.encode(x)), x)

    def test_single_row_exact(self):
        x = _random_matrix((1, 12), 5)
        codec = Int8Codec().fit(x)
        assert np.allclose(codec.decode(codec.encode(x)), x, atol=1e-6)

    def test_adc_matches_decoded_dot(self):
        x = _random_matrix((50, 16), 3)
        codec = Int8Codec().fit(x)
        codes = codec.encode(x)
        q = _random_matrix((4, 16), 9)
        sims = codec.make_adc(q)(codes)
        assert sims.shape == (4, 50)
        assert np.allclose(sims, q @ codec.decode(codes).T, atol=1e-3)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ServingError, match="empty"):
            Int8Codec().fit(np.zeros((0, 4), dtype=np.float32))

    def test_bytes_per_vector(self):
        codec = Int8Codec().fit(_random_matrix((10, 32), 0))
        assert codec.bytes_per_vector() == 32  # d bytes vs 4d for float32


class TestPQProperties:
    @pytest.mark.parametrize("shape,m", [((128, 16), 4), ((200, 64), 16), ((64, 24), 8)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_encode_of_decode_is_idempotent(self, shape, m, seed):
        x = _random_matrix(shape, seed)
        codec = PQCodec(m=m, k=32, seed=seed).fit(x)
        codes = codec.encode(x)
        assert codes.dtype == np.uint8 and codes.shape == (shape[0], codec.m)
        assert np.array_equal(codec.encode(codec.decode(codes)), codes)

    def test_m_lowered_to_divisor(self):
        x = _random_matrix((30, 10), 0)
        codec = PQCodec(m=16, k=8).fit(x)  # 16 does not divide 10
        assert codec.m == 10 and codec.subdim == 1

    def test_k_clamped_to_sample(self):
        x = _random_matrix((5, 8), 1)
        codec = PQCodec(m=2, k=256).fit(x)
        assert codec.k == 5
        assert np.all(codec.encode(x) < 5)

    def test_single_row_reconstructs_exactly(self):
        x = _random_matrix((1, 8), 2)
        codec = PQCodec(m=4, k=16).fit(x)
        assert np.allclose(codec.decode(codec.encode(x)), x, atol=1e-6)

    def test_zero_matrix(self):
        x = np.zeros((10, 8), dtype=np.float32)
        codec = PQCodec(m=4, k=4).fit(x)
        assert np.array_equal(codec.decode(codec.encode(x)), x)

    def test_adc_lut_and_gemm_paths_agree(self):
        x = _random_matrix((80, 16), 4)
        codec = PQCodec(m=4, k=16, seed=0).fit(x)
        codes = codec.encode(x)
        q = _random_matrix((20, 16), 11)
        # small batch -> lookup tables; large batch -> chunk-decode GEMM
        lut = codec.make_adc(q[:2])(codes)
        gemm = codec.make_adc(q)(codes)
        assert lut.shape == (2, 80) and gemm.shape == (20, 80)
        assert np.allclose(lut, gemm[:2], atol=1e-3)
        assert np.allclose(gemm, q @ codec.decode(codes).T, atol=1e-3)

    def test_bad_params_rejected(self):
        with pytest.raises(ServingError, match="pq.m must be an integer >= 1"):
            PQCodec(m=0)
        with pytest.raises(ServingError, match="one byte"):
            PQCodec(k=512)
        with pytest.raises(ServingError, match="train_sample"):
            PQCodec(train_sample=0)
        with pytest.raises(ServingError, match="empty"):
            PQCodec().fit(np.zeros((0, 8), dtype=np.float32))

    def test_training_is_deterministic(self):
        x = _random_matrix((100, 16), 6)
        a = PQCodec(m=4, k=16, seed=3).fit(x)
        b = PQCodec(m=4, k=16, seed=3).fit(x)
        assert np.array_equal(a.codebooks, b.codebooks)
        assert np.array_equal(a.encode(x), b.encode(x))


class TestStoreRoundTrip:
    @pytest.mark.parametrize("codec_name,params", [
        ("float32", {}),
        ("int8", {}),
        ("pq", {"m": 4, "k": 16}),
    ])
    @pytest.mark.parametrize("shape", [(1, 8), (57, 16), (200, 12)])
    def test_save_open_bitwise(self, tmp_path, codec_name, params, shape):
        kv = KeyedVectors(np.arange(shape[0]) * 2, _random_matrix(shape, 13))
        store = EmbeddingStore.from_keyed_vectors(kv, codec=codec_name, **params)
        path = store.save(tmp_path / "rt.embstore")
        back = EmbeddingStore.open(path)
        assert back.codec.name == codec_name
        assert np.array_equal(np.asarray(back.keys), np.asarray(store.keys))
        assert np.array_equal(np.asarray(back.codes), np.asarray(store.codes))
        assert np.array_equal(np.asarray(back.norms), np.asarray(store.norms))
        # and the reopened store re-serialises to the identical bytes
        again = back.save(tmp_path / "rt2.embstore")
        assert again.read_bytes() == path.read_bytes()

    def test_quantized_store_survives_reopen_without_mmap(self, tmp_path):
        kv = KeyedVectors(np.arange(40), _random_matrix((40, 8), 21))
        path = EmbeddingStore.from_keyed_vectors(kv, codec="int8").save(
            tmp_path / "q.embstore"
        )
        back = EmbeddingStore.open(path, mmap=False)
        assert back.is_quantized and not isinstance(back.codes, np.memmap)
        assert back.codes.dtype == np.uint8

    def test_quantized_store_vectors_attribute_raises(self):
        kv = KeyedVectors(np.arange(10), _random_matrix((10, 8), 2))
        store = EmbeddingStore.from_keyed_vectors(kv, codec="int8")
        with pytest.raises(ServingError, match="decode_rows"):
            store.vectors
        assert store.decode_rows([0, 3]).shape == (2, 8)
        assert store.decode_all().shape == (10, 8)

    def test_recode_preserves_keys_and_norms(self):
        kv = KeyedVectors(np.arange(30) * 5, _random_matrix((30, 16), 8))
        base = EmbeddingStore.from_keyed_vectors(kv)
        pq = base.recode("pq", m=4, k=16)
        assert pq.is_quantized
        assert np.array_equal(np.asarray(pq.keys), np.asarray(base.keys))
        assert np.array_equal(np.asarray(pq.norms), np.asarray(base.norms))
        assert pq.codes.nbytes < base.codes.nbytes / 8

    def test_constructor_rejects_ambiguous_inputs(self):
        x = _random_matrix((4, 8), 0)
        with pytest.raises(ServingError, match="exactly one"):
            EmbeddingStore(np.arange(4))
        with pytest.raises(ServingError, match="trained"):
            EmbeddingStore(np.arange(4), codes=np.zeros((4, 8), np.uint8), codec="int8")
        codec = Int8Codec().fit(x)
        with pytest.raises(ServingError, match="exactly one"):
            EmbeddingStore(np.arange(4), x, codes=codec.encode(x), codec=codec)


class TestRecallRegression:
    """Quantized recall floors on a clustered 5k x 64 store (fixed seed).

    The thresholds carry slack below typical observed recall so the
    suite is not flaky: int8 usually lands > 0.98 (floor 0.95) and PQ
    m=16 > 0.90 on clustered geometry (floor 0.85).
    """

    N, DIM, TOPK, QUERIES = 5000, 64, 10, 200

    @pytest.fixture(scope="class")
    def stores(self):
        vectors = _clustered_matrix(self.N, self.DIM, seed=77)
        base = EmbeddingStore(np.arange(self.N), vectors)
        query_keys = np.random.default_rng(5).choice(self.N, self.QUERIES, replace=False)
        exact = QueryService(base, cache_size=0).most_similar_batch(
            query_keys, topn=self.TOPK
        )
        return base, query_keys, exact

    def test_int8_recall_floor(self, stores):
        base, query_keys, exact = stores
        got = QueryService(base.recode("int8"), cache_size=0).most_similar_batch(
            query_keys, topn=self.TOPK
        )
        assert _recall(exact, got) >= 0.95

    def test_pq_recall_floor(self, stores):
        base, query_keys, exact = stores
        pq = base.recode("pq", m=16, seed=0)
        got = QueryService(pq, cache_size=0).most_similar_batch(
            query_keys, topn=self.TOPK
        )
        assert _recall(exact, got) >= 0.85

    def test_ivf_composes_with_pq(self, stores):
        base, query_keys, exact = stores
        pq = base.recode("pq", m=16, seed=0)
        nlist = 16
        index = IVFIndex(pq, nlist=nlist, nprobe=nlist // 2, seed=1)
        got = QueryService(pq, index=index, cache_size=0).most_similar_batch(
            query_keys, topn=self.TOPK
        )
        assert _recall(exact, got) >= 0.8


class TestBackwardCompat:
    """PR-3-era (version 1) files keep opening under the v2 reader."""

    def _v1_expected(self):
        keys = np.arange(8, dtype=np.int64) * 3
        vectors = (np.arange(40, dtype=np.float32).reshape(8, 5) - 20.0) / 7.0
        return keys, vectors

    def test_committed_v1_fixture_opens_as_float32(self):
        store = EmbeddingStore.open(DATA_DIR / "store_v1.embstore")
        keys, vectors = self._v1_expected()
        assert not store.is_quantized and store.codec.name == "float32"
        assert np.array_equal(np.asarray(store.keys), keys)
        assert np.array_equal(np.asarray(store.vectors), vectors)
        assert np.allclose(
            np.asarray(store.norms), np.linalg.norm(vectors, axis=1), atol=1e-6
        )
        # the old public surface still works on the old file
        (result,) = QueryService(store, cache_size=0).most_similar_batch([0], topn=3)
        assert len(result) == 3

    def test_handrolled_v1_bytes_open(self, tmp_path):
        # the v1 writer, inlined: header + keys + float32 matrix + norms
        keys, vectors = self._v1_expected()
        norms = np.linalg.norm(vectors, axis=1).astype(np.float32)
        count, dim = vectors.shape
        keys_off = 64
        vec_off = (keys_off + 8 * count + 63) // 64 * 64
        norm_off = (vec_off + 4 * count * dim + 63) // 64 * 64
        path = tmp_path / "v1.embstore"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<8sIIQ", b"UNINETES", 1, dim, count).ljust(64, b"\0"))
            fh.seek(keys_off)
            keys.tofile(fh)
            fh.seek(vec_off)
            vectors.tofile(fh)
            fh.seek(norm_off)
            norms.tofile(fh)
            fh.truncate(norm_off + 4 * count)
        store = EmbeddingStore.open(path)
        assert np.array_equal(np.asarray(store.vectors), vectors)

    def test_resaving_v1_store_upgrades_to_v2(self, tmp_path):
        v1 = EmbeddingStore.open(DATA_DIR / "store_v1.embstore")
        path = v1.save(tmp_path / "upgraded.embstore")
        version = struct.unpack_from("<8sI", path.read_bytes())[1]
        assert version == 2
        back = EmbeddingStore.open(path)
        assert np.array_equal(np.asarray(back.vectors), np.asarray(v1.vectors))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.embstore"
        path.write_bytes(struct.pack("<8sIIQQ", b"UNINETES", 9, 4, 0, 0).ljust(256, b"\0"))
        with pytest.raises(ServingError, match="version 9"):
            EmbeddingStore.open(path)

    @pytest.mark.parametrize("blob", [
        b"\x02\x00\x00\x00[]",                      # manifest is not an object
        b"\x02\x00\x00\x00{}",                      # no codec name
        b"\xff\xff\xff\xff{}",                      # head length overruns
        b'\x10\x00\x00\x00{"codec": "pq"}x',        # no arrays entry
    ])
    def test_corrupt_codec_section_raises_serving_error(self, tmp_path, blob):
        path = tmp_path / "corrupt.embstore"
        header = struct.pack("<8sIIQQ", b"UNINETES", 2, 4, 0, len(blob))
        path.write_bytes(header.ljust(64, b"\0") + blob)
        with pytest.raises(ServingError, match="corrupt codec section"):
            EmbeddingStore.open(path)

    def test_huge_meta_len_rejected_before_read(self, tmp_path):
        # a corrupt header demanding a multi-GB codec section must fail
        # the size check, not attempt the read
        path = tmp_path / "huge.embstore"
        header = struct.pack("<8sIIQQ", b"UNINETES", 2, 4, 0, 1 << 40)
        path.write_bytes(header.ljust(64, b"\0"))
        with pytest.raises(ServingError, match="truncated"):
            EmbeddingStore.open(path)


class TestQuantizedUpsert:
    """The chosen contract: upsert re-encodes through the trained codec."""

    def _quantized(self, n=60, dim=8, codec="int8"):
        kv = KeyedVectors(np.arange(n), _random_matrix((n, dim), 31))
        return EmbeddingStore.from_keyed_vectors(kv, codec=codec)

    def test_upsert_reencodes_known_key(self):
        store = self._quantized()
        replacement = np.full(8, 0.5, dtype=np.float32)
        report = store.upsert([7], replacement)
        assert report == {"updated": 1, "inserted": 0}
        # the row now holds the codec's encoding of the new vector
        expected = store.codec.decode(store.codec.encode(replacement[None, :]))[0]
        assert np.array_equal(store.decode_rows([7])[0], expected)
        # norms come from the raw vector, not the reconstruction
        assert store.norms[7] == pytest.approx(np.linalg.norm(replacement), abs=1e-6)

    def test_upsert_appends_new_key_encoded(self):
        store = self._quantized(codec="pq")
        before = len(store)
        vec = _random_matrix((1, 8), 99)[0]
        report = store.upsert([500], vec)
        assert report == {"updated": 0, "inserted": 1}
        assert len(store) == before + 1
        assert store.codes.shape == (before + 1, store.codec.code_width)
        assert 500 in store
        # the appended row round-trips through the codec like any other
        assert np.array_equal(
            store.codes[-1], store.codec.encode(vec[None, :])[0]
        )

    def test_save_onto_own_backing_file(self, tmp_path):
        # the open(mmap) -> save(same path) shape must not truncate the
        # file the store's own sections are mapped from
        store = self._quantized()
        path = store.save(tmp_path / "self.embstore")
        reopened = EmbeddingStore.open(path)
        again = reopened.save(path)
        back = EmbeddingStore.open(again)
        assert np.array_equal(np.asarray(back.codes), np.asarray(store.codes))
        assert np.array_equal(np.asarray(back.norms), np.asarray(store.norms))

    def test_readonly_mmap_guard(self, tmp_path):
        store = self._quantized()
        path = store.save(tmp_path / "ro.embstore")
        served = EmbeddingStore.open(path)  # mmap mode="r"
        with pytest.raises(ServingError, match="read-only"):
            served.upsert([0], np.zeros(8, dtype=np.float32))
        # the documented escape hatch: reopen in-memory, upsert, re-save
        writable = EmbeddingStore.open(path, mmap=False)
        writable.upsert([0], np.ones(8, dtype=np.float32))
        writable.save(path)
        assert np.array_equal(
            EmbeddingStore.open(path).codes[0],
            writable.codec.encode(np.ones((1, 8), dtype=np.float32))[0],
        )

    def test_publish_after_quantized_upsert(self):
        store = self._quantized()
        snapshots = SnapshotManager(store, cache_size=4)
        snapshots.current.service.most_similar_batch([0], topn=3)
        store.upsert([0], np.full(8, 2.0, dtype=np.float32))
        (result,) = snapshots.publish(store).service.most_similar_batch([0], topn=3)
        assert len(result) == 3


class TestQuantizedServingWiring:
    def test_uninet_serve_codec(self, barbell):
        from repro import UniNet

        net = UniNet(barbell, model="deepwalk", seed=3)
        net.train(num_walks=3, walk_length=10, dimensions=8)
        service = net.serve(codec="pq", codec_params={"m": 4, "k": 16}, cache_size=0)
        assert service.store.is_quantized
        assert service.stats()["codec"] == "pq"
        (result,) = service.most_similar_batch([0], topn=3)
        assert len(result) == 3

    def test_serve_to_path_round_trips_codec(self, barbell, tmp_path):
        from repro import UniNet

        net = UniNet(barbell, model="deepwalk", seed=3)
        net.train(num_walks=3, walk_length=10, dimensions=8)
        path = tmp_path / "net.pq.embstore"
        service = net.serve(store_path=path, codec="int8")
        assert isinstance(service.store.codes, np.memmap)
        assert service.store.codes.dtype == np.uint8
        assert EmbeddingStore.open(path).codec.name == "int8"

    def test_runspec_serving_codec_metrics(self):
        from repro import RunSpec, run

        report = run(
            {
                "graph": {"dataset": "amazon", "scale": 0.05, "seed": 1},
                "walk": {"num_walks": 1, "walk_length": 8},
                "train": {"dimensions": 8},
                "serving": {
                    "codec": "int8",
                    "probe_queries": 16,
                    "topn": 3,
                },
            }
        )
        serving = report.metrics["serving"]
        assert serving["codec"] == "int8"
        assert serving["compression_ratio"] == pytest.approx(4.0)
        assert 0.0 <= serving["recall_probe"] <= 1.0
        assert serving["recall_probe"] >= 0.5  # int8 at d=8 is near-exact
        # the spec round-trips with the codec block
        spec = RunSpec.from_dict(
            {"graph": {"dataset": "amazon"}, "serving": {"codec": "pq", "codec_params": {"m": 4}}}
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_runspec_float32_approximate_index_probe_measured(self):
        from repro import run

        report = run(
            {
                "graph": {"dataset": "amazon", "scale": 0.05, "seed": 1},
                "walk": {"num_walks": 1, "walk_length": 8},
                "train": {"dimensions": 8},
                "serving": {
                    "index": "ivf",
                    "index_params": {"nprobe": 1},
                    "probe_queries": 32,
                    "topn": 5,
                },
            }
        )
        probe = report.metrics["serving"]["recall_probe"]
        # float32 through a 1-cell IVF probe is genuinely lossy; the
        # metric must be the measured overlap, not a hard-coded 1.0
        assert 0.0 < probe < 1.0

    def test_runspec_unknown_codec_rejected(self):
        from repro import RunSpec

        with pytest.raises(ServingError, match="registered"):
            RunSpec.from_dict({"graph": {"dataset": "amazon"}, "serving": {"codec": "zstd"}})

    def test_cli_export_query_quantized(self, tmp_path, capsys):
        from repro.cli import main

        rng = np.random.default_rng(4)
        kv = KeyedVectors(np.arange(120), rng.standard_normal((120, 16)))
        npz = tmp_path / "v.npz"
        kv.save_npz(npz)
        out_pq = tmp_path / "v.pq.embstore"
        assert main(
            [
                "export-store", "--vectors", str(npz), "--output", str(out_pq),
                "--codec", "pq", "--pq-m", "4", "--pq-k", "16",
            ]
        ) == 0
        assert main(["query", "--store", str(out_pq), "--keys", "0", "5", "--topn", "3"]) == 0
        out = capsys.readouterr().out
        assert "codec pq" in out
        assert "16.0x vs float32" in out  # 4 bytes/vector vs 64

    def test_cli_codec_alias_and_generic_params(self, tmp_path, capsys):
        from repro.cli import main

        kv = KeyedVectors(np.arange(60), _random_matrix((60, 8), 7))
        npz = tmp_path / "v.npz"
        kv.save_npz(npz)
        out = tmp_path / "v.embstore"
        # a registry alias resolves AND --codec-param overrides the sugar flags
        assert main(
            [
                "export-store", "--vectors", str(npz), "--output", str(out),
                "--codec", "product-quantization", "--pq-m", "2",
                "--codec-param", "m=4", "--codec-param", "k=16",
            ]
        ) == 0
        store = EmbeddingStore.open(out)
        assert store.codec.name == "pq" and store.codec.m == 4 and store.codec.k == 16
        # a parameter the codec does not accept is a clean error
        assert main(
            [
                "export-store", "--vectors", str(npz), "--output", str(out),
                "--codec", "int8", "--codec-param", "bogus=1",
            ]
        ) == 2
        assert "unexpected keyword argument 'bogus'" in capsys.readouterr().err

    def test_cli_export_unknown_codec(self, tmp_path, capsys):
        from repro.cli import main

        kv = KeyedVectors(np.arange(4), np.eye(4))
        npz = tmp_path / "v.npz"
        kv.save_npz(npz)
        code = main(
            ["export-store", "--vectors", str(npz), "--output",
             str(tmp_path / "x.embstore"), "--codec", "lz4"]
        )
        assert code == 2
        assert "registered" in capsys.readouterr().err
