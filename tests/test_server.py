"""Concurrency suite for the asyncio query server and snapshot manager.

The load-bearing test is the torn-snapshot check: N async clients
hammer the server while a publisher swaps embedding versions under
them, and every single response must be consistent with exactly one
published store — a mix of two versions inside one response proves the
swap tore an in-flight batch.
"""

import asyncio
import json
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.embedding.keyed_vectors import KeyedVectors
from repro.errors import (
    ConfigError,
    OverloadError,
    ProtocolError,
    ServerError,
    ServingError,
)
from repro.serving import (
    EmbeddingStore,
    InProcessClient,
    LatencyHistogram,
    QueryClient,
    QueryServer,
    QueryService,
    SnapshotManager,
)
from repro.serving.server import MAX_FRAME_BYTES, MAX_KEYS_PER_REQUEST, encode_frame

NUM_KEYS = 300
DIM = 16


def make_store(seed: int) -> EmbeddingStore:
    rng = np.random.default_rng(seed)
    kv = KeyedVectors(np.arange(NUM_KEYS), rng.standard_normal((NUM_KEYS, DIM)))
    return EmbeddingStore.from_keyed_vectors(kv)


@pytest.fixture
def store_a():
    return make_store(11)


@pytest.fixture
def store_b():
    return make_store(22)


def exact_answers(store, topn=5) -> dict:
    service = QueryService(store, index="bruteforce", cache_size=0)
    results = service.most_similar_batch(np.asarray(store.keys), topn=topn)
    return {int(k): row for k, row in zip(store.keys, results)}


def assert_rows(got, want):
    """Same neighbours in the same order; scores to float32 rounding, since
    BLAS rounds a key's scores differently in batches of other shapes."""
    assert [[int(k) for k, __ in row] for row in got] == [[k for k, __ in row] for row in want]
    assert np.allclose([[s for __, s in row] for row in got], [[s for __, s in row] for row in want])


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0

    def test_quantiles_within_bucket_error(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.record(0.001)
        hist.record(0.1)
        assert hist.count == 100
        assert 0.0008 <= hist.quantile(0.5) <= 0.0013
        assert 0.08 <= hist.quantile(1.0) <= 0.13
        assert hist.mean == pytest.approx((99 * 0.001 + 0.1) / 100)


class TestSnapshotManager:
    def test_publish_bumps_version(self, store_a, store_b):
        manager = SnapshotManager(store_a)
        assert manager.version == 0
        snap = manager.publish(store_b)
        assert snap.version == 1 and manager.version == 1
        assert manager.current.store is store_b

    def test_lease_pins_old_version_until_drained(self, store_a, store_b):
        manager = SnapshotManager(store_a)
        with manager.lease() as snap:
            manager.publish(store_b)
            assert snap.retired and snap.version == 0
            assert manager.version == 1
            assert manager.stats()["retired_pending"] == 1
            # the leased snapshot still answers from the old store
            assert snap.store is store_a
        stats = manager.stats()
        assert stats["retired_pending"] == 0
        assert stats["retired_drained"] >= 1

    def test_rejects_index_instance(self, store_a):
        from repro.serving import BruteForceIndex

        with pytest.raises(ServingError, match="index"):
            SnapshotManager(store_a, index=BruteForceIndex(store_a))

    def test_upsert_is_copy_on_write(self, store_a):
        manager = SnapshotManager(store_a)
        old = manager.current
        vec = np.ones(DIM, dtype=np.float32)
        report = manager.upsert([NUM_KEYS + 7], vec)
        assert report["inserted"] == 1 and report["version"] == 1
        assert NUM_KEYS + 7 in manager.current.store
        # the superseded snapshot was never written to
        assert NUM_KEYS + 7 not in old.store
        assert len(old.store) == NUM_KEYS

    def test_upsert_works_on_readonly_mmap_store(self, store_a, tmp_path):
        path = store_a.save(tmp_path / "a.embstore")
        mapped = EmbeddingStore.open(path)
        with pytest.raises(ServingError, match="read-only"):
            mapped.upsert([0], np.ones(DIM, dtype=np.float32))
        manager = SnapshotManager(mapped)
        report = manager.upsert([0], np.ones(DIM, dtype=np.float32))
        assert report["updated"] == 1
        assert np.allclose(manager.current.store.vector(0), np.ones(DIM))
        # the mmap file itself was never touched
        assert not np.allclose(EmbeddingStore.open(path).vector(0), np.ones(DIM))


class TestQueryServerBasics:
    def test_submit_before_start_raises(self, store_a):
        server = QueryServer(store_a)
        with pytest.raises(ServerError, match="not running"):
            asyncio.run(server.submit({"op": "ping"}))

    def test_knob_validation(self, store_a):
        with pytest.raises(ConfigError):
            QueryServer(store_a, max_batch=0)
        with pytest.raises(ConfigError):
            QueryServer(store_a, queue_size=0)
        with pytest.raises(ConfigError):
            QueryServer(store_a, max_wait_us=-1)
        with pytest.raises(ConfigError, match="index_params"):
            QueryServer(SnapshotManager(store_a), nlist=4)

    def test_most_similar_matches_direct_service(self, store_a):
        expected = exact_answers(store_a, topn=5)

        async def main():
            server = await QueryServer(store_a, cache_size=0).start()
            client = InProcessClient(server)
            got = await client.most_similar([3, 250], topn=5)
            await server.stop()
            return got

        got = asyncio.run(main())
        assert got[0] == expected[3]
        assert got[1] == expected[250]

    def test_similarity_and_ping(self, store_a):
        service = QueryService(store_a, cache_size=0)
        direct = service.similarity_batch([1, 2], [3, 4])

        async def main():
            server = await QueryServer(store_a).start()
            client = InProcessClient(server)
            sims = await client.similarity([1, 2], [3, 4])
            pong = await client.ping()
            await server.stop()
            return sims, pong

        sims, pong = asyncio.run(main())
        assert pong == "pong"
        assert np.allclose(sims, direct, atol=1e-6)

    def test_stats_has_latency_percentiles(self, store_a):
        async def main():
            server = await QueryServer(store_a).start()
            client = InProcessClient(server)
            await asyncio.gather(*(client.most_similar(k) for k in range(32)))
            stats = await client.stats()
            await server.stop()
            return stats

        stats = asyncio.run(main())
        for field in ("p50_ms", "p99_ms", "mean_ms", "qps", "mean_batch", "queue_depth"):
            assert field in stats, field
        assert stats["p50_ms"] > 0 and stats["p99_ms"] >= stats["p50_ms"]
        assert stats["qps"] > 0
        # the stats request itself is not yet counted when the snapshot is taken
        assert stats["answered"] >= 32
        assert stats["snapshot"]["version"] == 0

    def test_concurrent_requests_are_coalesced(self, store_a):
        async def main():
            server = await QueryServer(store_a, max_batch=64, max_wait_us=5000).start()
            client = InProcessClient(server)
            await asyncio.gather(*(client.most_similar(k % NUM_KEYS) for k in range(64)))
            stats = server.stats()
            await server.stop()
            return stats

        stats = asyncio.run(main())
        assert stats["batches"] < stats["answered"]
        assert stats["mean_batch"] > 1.0

    def test_protocol_errors(self, store_a):
        async def main():
            server = await QueryServer(store_a).start()
            responses = {}
            responses["unknown_op"] = await server.submit({"op": "nope"})
            responses["no_keys"] = await server.submit({"op": "most_similar", "keys": []})
            responses["bad_topn"] = await server.submit(
                {"op": "most_similar", "keys": [1], "topn": 0}
            )
            responses["bad_keys"] = await server.submit(
                {"op": "most_similar", "keys": ["x"]}
            )
            # 1.7, True, False and "3" used to be cast to node ids
            for name, request in (
                ("float_key", {"op": "most_similar", "keys": [1.7]}),
                ("bool_key", {"op": "most_similar", "keys": [True]}),
                ("digits_key", {"op": "most_similar", "keys": ["3"]}),
                ("huge_key", {"op": "most_similar", "keys": [2**64]}),
                ("float_a", {"op": "similarity", "a": [1.5], "b": [2]}),
                ("bool_b", {"op": "similarity", "a": [1], "b": [False]}),
            ):
                responses[name] = await server.submit(request)
            responses["too_many"] = await server.submit(
                {"op": "most_similar", "keys": list(range(MAX_KEYS_PER_REQUEST + 1))}
            )
            responses["not_dict"] = await server.submit([1, 2])
            responses["misaligned"] = await server.submit(
                {"op": "similarity", "a": [1], "b": [1, 2]}
            )
            await server.stop()
            return responses

        responses = asyncio.run(main())
        for name, resp in responses.items():
            assert resp["ok"] is False, name
            assert resp["error"]["code"] == "bad-request", name

    def test_integer_typed_numpy_keys_are_accepted(self, store_a):
        expected = exact_answers(store_a, topn=3)

        async def main():
            server = await QueryServer(store_a, cache_size=0).start()
            replies = [
                await server.submit({"op": "most_similar", "keys": keys, "topn": 3})
                for keys in (np.array([4, 9], dtype=np.int32), np.array([4, 9], dtype=np.uint16),
                             np.int64(4))
            ]
            await server.stop()
            return replies

        replies = asyncio.run(main())
        assert all(r["ok"] for r in replies), replies
        for reply, keys in zip(replies, ([4, 9], [4, 9], [4])):
            assert_rows(reply["result"], [expected[k] for k in keys])

    def test_missing_key_fails_only_that_request(self, store_a):
        async def main():
            server = await QueryServer(store_a, max_wait_us=5000).start()
            client = InProcessClient(server)
            good, bad = await asyncio.gather(
                client.most_similar(5, topn=3),
                client.most_similar(10_000, topn=3),
                return_exceptions=True,
            )
            await server.stop()
            return good, bad

        good, bad = asyncio.run(main())
        assert len(good[0]) == 3
        assert isinstance(bad, ServingError)
        assert "10000" in str(bad)

    def test_request_id_is_echoed(self, store_a):
        async def main():
            server = await QueryServer(store_a).start()
            resp = await server.submit({"op": "ping", "id": "req-42"})
            await server.stop()
            return resp

        resp = asyncio.run(main())
        assert resp["ok"] and resp["id"] == "req-42"


class TestLoadShed:
    def test_overload_sheds_with_typed_error(self, store_a):
        async def main():
            server = await QueryServer(store_a, queue_size=4, max_batch=2).start()
            responses = await asyncio.gather(
                *(server.submit({"op": "most_similar", "keys": [k % NUM_KEYS]}) for k in range(64))
            )
            # the server must keep answering after shedding
            after = await InProcessClient(server).most_similar(0, topn=3)
            stats = server.stats()
            await server.stop()
            return responses, after, stats

        responses, after, stats = asyncio.run(main())
        ok = [r for r in responses if r["ok"]]
        shed = [r for r in responses if not r["ok"]]
        assert ok and shed, "expected both served and shed requests"
        assert all(r["error"]["code"] == "overloaded" for r in shed)
        assert all(r["error"]["type"] == "OverloadError" for r in shed)
        assert stats["shed"] == len(shed)
        assert len(after[0]) == 3

    def test_client_raises_overload_error(self, store_a):
        async def main():
            server = await QueryServer(store_a, queue_size=2, max_batch=2).start()
            client = InProcessClient(server)
            results = await asyncio.gather(
                *(client.most_similar(k % NUM_KEYS) for k in range(64)),
                return_exceptions=True,
            )
            await server.stop()
            return results

        results = asyncio.run(main())
        assert any(isinstance(r, OverloadError) for r in results)
        assert any(isinstance(r, list) for r in results)


def _is_id(value) -> bool:
    return type(value) is int and -(2**63) <= value < 2**63  # bools are not


def _node_ids(value):
    """The keys a decoded ``keys`` value names, or None when it is not an
    integer or a non-empty list of integers an int64 holds."""
    ids = [value] if _is_id(value) else value
    if not isinstance(ids, list) or not 1 <= len(ids) <= MAX_KEYS_PER_REQUEST:
        return None
    return ids if all(map(_is_id, ids)) else None


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_store_keys = st.integers(-2, NUM_KEYS + 2)


@pytest.fixture(scope="module")
def served():
    store = make_store(11)
    return QueryServer(store, cache_size=0), exact_answers(store, topn=3)


@settings(max_examples=200, deadline=None)
@given(keys=_json_values | _store_keys | st.lists(_store_keys | _json_values, min_size=1, max_size=5))
@example(keys=[1.7]).via("answered as key 1 before")
@example(keys=[True]).via("answered as key 1 before")
@example(keys=["3"]).via("answered as key 3 before")
def test_keys_are_answered_exactly_or_refused(served, keys):
    """Whatever JSON ``keys`` holds, the reply answers exactly the integer
    keys it names (or names the first one not in the store), or is a
    ``bad-request``: nothing is cast to a key."""
    server, expected = served

    async def main():
        await server.start()
        try:
            request = json.loads(json.dumps({"op": "most_similar", "keys": keys, "topn": 3}))
            return request["keys"], await server.submit(request)
        finally:
            await server.stop()

    sent, reply = asyncio.run(main())
    ids = _node_ids(sent)
    if ids is None:
        assert not reply["ok"] and reply["error"]["code"] == "bad-request", (sent, reply)
    elif all(0 <= k < NUM_KEYS for k in ids):
        assert reply["ok"], (sent, reply)
        assert_rows(reply["result"], [expected[k] for k in ids])
    else:
        missing = next(k for k in ids if not 0 <= k < NUM_KEYS)
        assert reply["error"]["code"] == "serving", (sent, reply)
        assert f"key {missing} is not in the store" in reply["error"]["message"]


async def relay(server, count=None, until=None) -> list:
    """Pings that reach the queue one event-loop pass apart: each request's
    task starts the next one's before it submits. ``count`` of them, or
    until the event ``until`` is set; returns every reply (``None``: not sent)."""
    tasks: list = []

    async def send(i):
        if until is not None and until.is_set():
            return None
        if count is None or i + 1 < count:
            tasks.append(asyncio.create_task(send(i + 1)))
        return await server.submit({"op": "ping", "id": i})

    tasks.append(asyncio.create_task(send(0)))
    awaited = 0
    while awaited < len(tasks):
        awaited = len(tasks)
        await asyncio.gather(*tasks)
    return [task.result() for task in tasks]


class TestRoundPolicy:
    """A round takes what is queued, then one loop pass at a time while each
    pass brings a request; ``max_wait_us`` caps that, it is never slept."""

    def test_lone_request_is_not_held_for_max_wait(self, store_a):
        async def main():
            server = await QueryServer(store_a, max_wait_us=50_000).start()
            took = []
            for __ in range(5):
                t0 = time.perf_counter()
                assert (await server.submit({"op": "ping"}))["ok"]
                took.append(time.perf_counter() - t0)
            await server.stop()
            return took

        assert sorted(asyncio.run(main()))[2] < 0.025

    def test_requests_of_one_pass_share_one_round(self, store_a):
        async def main():
            server = await QueryServer(store_a, max_wait_us=0).start()
            replies = await asyncio.gather(
                *(server.submit({"op": "most_similar", "keys": [k]}) for k in range(8))
            )
            stats = server.stats()
            await server.stop()
            return replies, stats

        replies, stats = asyncio.run(main())
        assert all(r["ok"] for r in replies)
        assert (stats["batches"], stats["batched_requests"]) == (1, 8)

    def test_a_full_queue_gives_full_rounds_and_starves_no_task(self, store_a):
        async def main():
            server = await QueryServer(store_a, max_batch=4, max_wait_us=50_000).start()
            pending = [asyncio.create_task(server.submit({"op": "ping"})) for __ in range(64)]
            rounds_seen = []

            async def bystander():
                while not all(task.done() for task in pending):
                    rounds_seen.append(server.counters["batches"])
                    await asyncio.sleep(0)

            await asyncio.wait_for(asyncio.gather(bystander(), *pending), timeout=10)
            stats = server.stats()
            await server.stop()
            return rounds_seen, stats

        rounds_seen, stats = asyncio.run(main())
        assert (stats["batches"], stats["batched_requests"]) == (16, 64)
        # the bystander ran between every two rounds
        assert max(np.diff(rounds_seen)) <= 1
        assert rounds_seen[-1] >= 15

    def test_max_wait_caps_how_long_arrivals_extend_a_round(self, store_a):
        """40 requests reach the queue one pass apart: a wide cap keeps one
        round collecting them all, ``0`` takes only what each round finds queued."""

        async def rounds(max_wait_us):
            server = await QueryServer(store_a, max_batch=1024, max_wait_us=max_wait_us).start()
            replies = await asyncio.wait_for(relay(server, 40), timeout=10)
            await server.stop()
            assert all(r["ok"] for r in replies) and server.counters["batched_requests"] == 40
            return server.counters["batches"]

        assert asyncio.run(rounds(200_000)) <= 2
        assert asyncio.run(rounds(0)) >= 20

    @pytest.mark.parametrize("stream", [False, True], ids=["lone", "stream"])
    def test_stop_answers_every_request_the_dispatcher_holds(self, store_a, stream):
        """``lone``: one request, then stop() 10 ms later, which used to
        drop the round a timer held. ``stream``: requests arrive every
        pass until stop(), which cancels a round that is still collecting."""

        async def main():
            server = await QueryServer(store_a, max_batch=100_000, max_wait_us=200_000).start()
            stopping = asyncio.Event()
            feed = asyncio.create_task(relay(server, None if stream else 1, stopping))
            await asyncio.sleep(0.01)
            held = server.counters["received"] - server.counters["answered"]

            async def stop():
                # one task: the feed ends in the pass stop() cancels the round in
                stopping.set()
                await server.stop()

            await asyncio.wait_for(stop(), timeout=5)
            return held, await asyncio.wait_for(feed, timeout=5), server.stats()

        held, replies, stats = asyncio.run(main())
        replies = [r for r in replies if r is not None]
        assert stats["answered"] == stats["received"] == len(replies)
        assert all(r["ok"] or r["error"]["code"] == "server" for r in replies), replies
        if stream:
            assert held > 1, "the round was dispatched before stop(): nothing was held"
            assert not any(r["ok"] for r in replies)


class TestSnapshotSwapUnderLoad:
    """The acceptance-criteria test: zero failed, zero torn requests."""

    NUM_CLIENTS = 16
    REQUESTS_PER_CLIENT = 25
    SWAPS = 6
    TOPN = 5

    def test_no_torn_snapshots(self, store_a, store_b):
        expected = {"a": exact_answers(store_a, self.TOPN), "b": exact_answers(store_b, self.TOPN)}
        # the check has teeth only if the two versions disagree
        differing = [k for k in range(NUM_KEYS) if expected["a"][k] != expected["b"][k]]
        assert len(differing) > NUM_KEYS // 2
        # publish order: version 0 = A, 1 = B, 2 = A, ... even -> A, odd -> B
        store_of_version = lambda v: "a" if v % 2 == 0 else "b"  # noqa: E731

        async def client_loop(server, client_id, failures, versions_seen):
            rng = np.random.default_rng(1000 + client_id)
            for _ in range(self.REQUESTS_PER_CLIENT):
                k1, k2 = (int(k) for k in rng.choice(differing, size=2))
                resp = await server.submit(
                    {"op": "most_similar", "keys": [k1, k2], "topn": self.TOPN}
                )
                if not resp["ok"]:
                    failures.append(resp)
                    continue
                which = store_of_version(resp["version"])
                versions_seen.add(resp["version"])
                want = [expected[which][k1], expected[which][k2]]
                got = [
                    [(int(k), float(s)) for k, s in row] for row in resp["result"]
                ]
                if got != want:
                    failures.append(
                        {"client": client_id, "version": resp["version"], "keys": (k1, k2)}
                    )
                await asyncio.sleep(0)

        async def main():
            server = await QueryServer(
                store_a, max_batch=32, max_wait_us=500, queue_size=4096
            ).start()
            failures: list = []
            versions_seen: set = set()

            async def publisher():
                for i in range(self.SWAPS):
                    await asyncio.sleep(0.01)
                    server.publish(store_b if i % 2 == 0 else store_a)

            await asyncio.gather(
                publisher(),
                *(
                    client_loop(server, c, failures, versions_seen)
                    for c in range(self.NUM_CLIENTS)
                ),
            )
            stats = server.stats()
            await server.stop()
            return failures, versions_seen, stats

        failures, versions_seen, stats = asyncio.run(main())
        assert failures == [], f"torn or failed requests: {failures[:3]}"
        assert len(versions_seen) >= 2, "swap never happened under load"
        assert stats["errors"] == 0 and stats["shed"] == 0
        assert stats["answered"] >= self.NUM_CLIENTS * self.REQUESTS_PER_CLIENT
        assert stats["snapshot"]["version"] == self.SWAPS
        assert stats["snapshot"]["retired_pending"] == 0

    def test_upsert_under_load_serves_old_then_new(self, store_a):
        """COW upserts mid-traffic: every response is internally consistent."""

        async def main():
            server = await QueryServer(store_a, max_batch=16, max_wait_us=200).start()
            client = InProcessClient(server)
            new_key = NUM_KEYS + 50
            rng = np.random.default_rng(7)

            async def writer():
                for _ in range(3):
                    await asyncio.sleep(0.005)
                    server.upsert([new_key], rng.standard_normal((1, DIM)))

            async def reader():
                good = 0
                for _ in range(40):
                    rows = await client.most_similar(5, topn=3)
                    assert len(rows[0]) == 3
                    good += 1
                return good

            results = await asyncio.gather(writer(), reader(), reader())
            found = await client.most_similar(new_key, topn=3)
            stats = server.stats()
            await server.stop()
            return results, found, stats

        results, found, stats = asyncio.run(main())
        assert results[1] == results[2] == 40
        assert len(found[0]) == 3
        assert stats["snapshot"]["version"] == 3


class TestTCP:
    def test_roundtrip_matches_in_process(self, store_a):
        expected = exact_answers(store_a, topn=4)

        async def main():
            server = QueryServer(store_a, cache_size=0)
            host, port = await server.start_tcp()
            client = await QueryClient.connect(host, port)
            got = await client.most_similar([7, 42], topn=4)
            stats = await client.stats()
            await client.close()
            await server.stop()
            return got, stats

        got, stats = asyncio.run(main())
        assert got[0] == expected[7] and got[1] == expected[42]
        assert stats["p99_ms"] >= 0

    def test_malformed_json_then_recovery(self, store_a):
        async def main():
            server = QueryServer(store_a)
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            bad = b"this is not json"
            writer.write(struct.pack("!I", len(bad)) + bad)
            await writer.drain()
            head = await reader.readexactly(4)
            (length,) = struct.unpack("!I", head)
            first = json.loads(await reader.readexactly(length))
            # framing is intact, the same connection keeps working
            writer.write(encode_frame({"op": "ping"}))
            await writer.drain()
            head = await reader.readexactly(4)
            (length,) = struct.unpack("!I", head)
            second = json.loads(await reader.readexactly(length))
            writer.close()
            await server.stop()
            return first, second

        first, second = asyncio.run(main())
        assert first["ok"] is False and first["error"]["code"] == "bad-request"
        assert second["ok"] is True and second["result"] == "pong"

    def test_oversized_frame_closes_connection(self, store_a):
        async def main():
            server = QueryServer(store_a)
            host, port = await server.start_tcp()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(struct.pack("!I", MAX_FRAME_BYTES + 1))
            await writer.drain()
            head = await reader.readexactly(4)
            (length,) = struct.unpack("!I", head)
            resp = json.loads(await reader.readexactly(length))
            trailing = await reader.read()
            writer.close()
            await server.stop()
            return resp, trailing

        resp, trailing = asyncio.run(main())
        assert resp["ok"] is False and resp["error"]["code"] == "bad-request"
        assert trailing == b""

    def test_oversized_reply_is_a_typed_error_and_the_connection_survives(
        self, store_a, monkeypatch
    ):
        """A *valid* request whose reply would not fit a frame: the real
        case is 64 keys x topn=19999 on a 20k-key store (35 MB); a lowered
        ceiling reaches the same branch at toy scale."""
        monkeypatch.setattr("repro.serving.server.MAX_FRAME_BYTES", 4096)

        async def main():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context)
            )
            server = QueryServer(store_a)
            host, port = await server.start_tcp()
            client = await QueryClient.connect(host, port)
            before = server.stats()["errors"]
            with pytest.raises(ProtocolError, match="reply .* exceeds .* lower topn"):
                await client.most_similar(list(range(32)), topn=NUM_KEYS - 1)
            pong = await client.ping()
            small = await client.most_similar([7], topn=3)
            errors = server.stats()["errors"] - before
            await client.close()
            await server.stop()
            return pong, small, errors, unhandled

        pong, small, errors, unhandled = asyncio.run(main())
        assert pong == "pong" and len(small[0]) == 3
        assert errors == 1
        assert unhandled == []

    def test_client_refuses_an_oversized_reply_header(self):
        async def main():
            release = asyncio.Event()

            async def lying_server(reader, writer):
                await reader.readexactly(4)
                writer.write(struct.pack("!I", MAX_FRAME_BYTES + 1))
                await writer.drain()
                await release.wait()  # the body never comes, nor does EOF
                writer.close()

            fake = await asyncio.start_server(lying_server, "127.0.0.1", 0)
            client = await QueryClient.connect(*fake.sockets[0].getsockname()[:2])
            try:
                with pytest.raises(ProtocolError, match="exceeds"):
                    await asyncio.wait_for(client.ping(), timeout=5)
            finally:
                release.set()
                await client.close()
                fake.close()
                await fake.wait_closed()

        asyncio.run(main())


class TestServeCLI:
    def test_serve_smoke_over_tcp(self, store_a, tmp_path):
        path = store_a.save(tmp_path / "toy.embstore")
        repo_src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=repo_src)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", str(path), "--port", "0", "--max-requests", "3",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
            assert match, f"no address banner in {banner!r}"
            port = int(match.group(1))

            async def main():
                client = await QueryClient.connect("127.0.0.1", port)
                assert await client.ping() == "pong"
                rows = await client.most_similar([0, 1], topn=3)
                stats = await client.stats()
                await client.close()
                return rows, stats

            rows, stats = asyncio.run(main())
            assert [len(r) for r in rows] == [3, 3]
            assert stats["p99_ms"] >= 0
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "served 3 requests" in out
