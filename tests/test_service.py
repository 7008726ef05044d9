"""The result service: hot tier, HTTP semantics, two-tier client.

Covers the seams the networked cache tier adds: LRU eviction against
the byte budget, conditional-GET/304 and Cache-Control headers,
concurrent PUTs of one key (last writer wins, never a torn read), the
warn-once fallback when the service is unreachable, and the headline
differential — suite/sweep output bytes are identical with and without
``--cache-url``.
"""

from __future__ import annotations

import json
import threading
import urllib.request
import warnings

import pytest

from repro.core import ResultCache, RunConfig, RunResult
from repro.errors import ConfigError
from repro.service import (
    CacheClient,
    HotTier,
    RemoteCacheBackend,
    ResultService,
    make_server,
)

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64
KEY_D = "d" * 64


def entry_body(tag: str, pad: int = 0) -> bytes:
    """A valid JSON entry body of a controllable size."""
    return json.dumps({"tag": tag, "pad": "x" * pad}).encode("utf-8")


@pytest.fixture
def server(tmp_path):
    """A live service over a fresh store, on an ephemeral port."""
    srv = make_server(str(tmp_path / "store"), port=0)
    # A short poll keeps shutdown() from waiting out the default 0.5 s.
    thread = threading.Thread(target=srv.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def base_url(srv) -> str:
    return f"http://127.0.0.1:{srv.server_address[1]}"


# ----------------------------------------------------------------------
# (a) Hot tier: LRU eviction under the byte budget


class TestHotTier:
    def test_lru_eviction_order_under_byte_budget(self):
        tier = HotTier(max_bytes=100)
        tier.put(KEY_A, b"x" * 40, "a")
        tier.put(KEY_B, b"y" * 40, "b")
        assert tier.keys() == [KEY_A, KEY_B]
        # A third 40-byte entry busts the budget: A (least recent) goes.
        tier.put(KEY_C, b"z" * 40, "c")
        assert tier.keys() == [KEY_B, KEY_C]
        assert tier.evictions == 1
        assert tier.current_bytes == 80
        # A hit promotes B, so the next eviction takes C instead.
        assert tier.get(KEY_B) == (b"y" * 40, "b")
        tier.put(KEY_D, b"w" * 40, "d")
        assert tier.keys() == [KEY_B, KEY_D]
        assert tier.evictions == 2

    def test_refresh_replaces_without_double_counting(self):
        tier = HotTier(max_bytes=100)
        tier.put(KEY_A, b"x" * 60, "a1")
        tier.put(KEY_A, b"y" * 30, "a2")
        assert tier.current_bytes == 30
        assert tier.get(KEY_A) == (b"y" * 30, "a2")
        assert tier.evictions == 0

    def test_oversized_body_never_admitted(self):
        tier = HotTier(max_bytes=10)
        tier.put(KEY_A, b"x" * 5, "a")
        tier.put(KEY_B, b"y" * 11, "b")
        # The oversized body is skipped; the resident entry survives.
        assert tier.keys() == [KEY_A]
        assert tier.get(KEY_B) is None
        assert tier.current_bytes == 5

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            HotTier(max_bytes=-1)


# ----------------------------------------------------------------------
# (b) Service mechanics (no HTTP): tier promotion + stats


class TestResultService:
    def test_store_read_promotes_to_hot_tier(self, tmp_path):
        svc = ResultService(str(tmp_path))
        # An entry already on disk (e.g. written by a --cache run).
        with open(svc._path(KEY_A), "wb") as fh:
            fh.write(entry_body("warm"))
        body, etag = svc.fetch(KEY_A)
        assert body == entry_body("warm")
        assert svc.store_hits == 1 and svc.hot_hits == 0
        # Second fetch never touches disk.
        assert svc.fetch(KEY_A) == (body, etag)
        assert svc.hot_hits == 1
        assert svc.fetch(KEY_B) is None
        assert svc.misses == 1

    def test_publish_rejects_non_json(self, tmp_path):
        svc = ResultService(str(tmp_path))
        with pytest.raises(ValueError):
            svc.publish(KEY_A, b"{torn")
        assert svc.fetch(KEY_A) is None

    def test_eviction_falls_back_to_store(self, tmp_path):
        body = entry_body("fits", pad=40)
        svc = ResultService(str(tmp_path), hot_bytes=2 * len(body) + 1)
        for key, tag in ((KEY_A, "a"), (KEY_B, "b"), (KEY_C, "c")):
            svc.publish(key, entry_body(tag, pad=40))
        assert svc.hot.evictions >= 1
        assert KEY_A not in svc.hot
        # The evicted entry is still served — from the backing store.
        fetched, _ = svc.fetch(KEY_A)
        assert fetched == entry_body("a", pad=40)
        assert svc.store_hits == 1


# ----------------------------------------------------------------------
# (c) HTTP semantics: conditional GET, headers, error paths


class TestHttp:
    def test_roundtrip_with_cache_headers(self, server):
        client = CacheClient(base_url(server))
        client.put_entry(KEY_A, entry_body("one"))
        response = urllib.request.urlopen(
            f"{base_url(server)}/result/{KEY_A}", timeout=5
        )
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/json"
        assert response.headers["Cache-Control"] == "max-age=86400"
        etag = response.headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')
        assert response.read() == entry_body("one")

    def test_conditional_get_304_semantics(self, server):
        client = CacheClient(base_url(server))
        client.put_entry(KEY_A, entry_body("one"))
        status, body, etag = client.get_entry(KEY_A)
        assert (status, body) == (200, entry_body("one"))
        # Matching validator: 304, no body, ETag still present.
        status, body, etag_back = client.get_entry(KEY_A, etag=etag)
        assert (status, body, etag_back) == (304, None, etag)
        # A stale validator (the entry changed) gets the new bytes.
        client.put_entry(KEY_A, entry_body("two"))
        status, body, _ = client.get_entry(KEY_A, etag=etag)
        assert (status, body) == (200, entry_body("two"))

    def test_missing_and_malformed_paths_404(self, server):
        client = CacheClient(base_url(server))
        assert client.get_entry(KEY_A)[0] == 404
        for path in ("/result/not-a-key", "/result/../escape", "/nope"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base_url(server) + path, timeout=5)
            assert err.value.code == 404

    def test_put_invalid_json_400(self, server):
        client = CacheClient(base_url(server))
        with pytest.raises(urllib.error.HTTPError) as err:
            client.put_entry(KEY_A, b"{torn")
        assert err.value.code == 400
        assert client.get_entry(KEY_A)[0] == 404

    def test_stats_endpoint_counts(self, server):
        client = CacheClient(base_url(server))
        client.put_entry(KEY_A, entry_body("one"))
        client.get_entry(KEY_A)
        client.get_entry(KEY_B)
        stats = client.stats()
        assert stats["puts"] == 1
        assert stats["hot_hits"] == 1
        assert stats["misses"] == 1
        assert stats["hot_entries"] == 1

    def test_concurrent_puts_last_writer_wins_never_torn(self, server):
        client_url = base_url(server)
        bodies = [entry_body(f"writer-{i}", pad=200) for i in range(8)]
        barrier = threading.Barrier(len(bodies))
        errors: "list[Exception]" = []

        def publish(body: bytes) -> None:
            try:
                barrier.wait(timeout=10)
                CacheClient(client_url).put_entry(KEY_A, body)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=publish, args=(body,)) for body in bodies
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        status, body, _ = CacheClient(client_url).get_entry(KEY_A)
        # Whatever the interleaving, the served entry is exactly one
        # writer's complete body — never a splice of two.
        assert status == 200
        assert body in bodies
        # And the backing store holds the same intact bytes.
        with open(server.service._path(KEY_A), "rb") as fh:
            assert fh.read() in bodies


# ----------------------------------------------------------------------
# (d) The two-tier client backend


def make_run(tag: str = "x") -> RunResult:
    return RunResult(
        bench_id=tag,
        benchmark_comm=tag,
        duration_ticks=100,
        seed=1,
        instr_by_region={"region": 5},
    )


class TestRemoteCacheBackend:
    CFG = RunConfig(duration_ticks=100, settle_ticks=0)

    def test_put_publishes_and_get_writes_through(self, server, tmp_path):
        client = CacheClient(base_url(server))
        run = make_run()
        writer = RemoteCacheBackend(
            client, local=ResultCache(str(tmp_path / "w"))
        )
        writer.put("x", self.CFG, run)
        # A different host (fresh local tier) sees the published result
        # and writes it through to its own local directory.
        local = ResultCache(str(tmp_path / "r"))
        reader = RemoteCacheBackend(client, local=local)
        assert reader.get("x", self.CFG) == run
        assert reader.remote_hits == 1
        assert local.get("x", self.CFG) == run
        # The next lookup is a pure local hit: no new remote traffic.
        assert reader.get("x", self.CFG) == run
        assert reader.remote_hits == 1

    def test_remote_only_mode(self, server):
        client = CacheClient(base_url(server))
        backend = RemoteCacheBackend(client)
        assert backend.get("x", self.CFG) is None
        assert backend.remote_misses == 1
        backend.put("x", self.CFG, make_run())
        assert backend.get("x", self.CFG) == make_run()

    def test_corrupt_remote_entry_is_a_miss(self, server):
        client = CacheClient(base_url(server))
        key = ResultCache.key("x", self.CFG)
        client.put_entry(key, b'{"valid json": "but not a RunResult"}')
        backend = RemoteCacheBackend(client)
        with pytest.warns(RuntimeWarning, match="corrupt remote"):
            assert backend.get("x", self.CFG) is None
        assert backend.remote_misses == 1

    def test_unreachable_service_warns_once_and_degrades(
        self, tmp_path, monkeypatch
    ):
        from repro.service.client import ENV_WARNED

        monkeypatch.delenv(ENV_WARNED, raising=False)
        # A port nothing listens on: connection refused immediately.
        local = ResultCache(str(tmp_path))
        backend = RemoteCacheBackend(
            CacheClient("http://127.0.0.1:9", timeout=0.5), local=local
        )
        run = make_run()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert backend.get("x", self.CFG) is None
            backend.put("x", self.CFG, run)       # local still written
            assert backend.get("x", self.CFG) == run
            backend.put("y", self.CFG, make_run("y"))
        unreachable = [
            w for w in caught if "unreachable" in str(w.message)
        ]
        assert len(unreachable) == 1
        assert local.get("x", self.CFG) == run

    def test_unreachable_warning_deduped_across_workers(self, monkeypatch):
        """``--jobs N`` rebuilds this backend once per pool worker; the
        env-flag handshake means only the first process to find the URL
        down warns, while later backends go quiet but still degrade.  A
        *different* down URL is fresh news and warns again."""
        from repro.service.client import ENV_WARNED

        monkeypatch.delenv(ENV_WARNED, raising=False)

        def probe(url):
            backend = RemoteCacheBackend(CacheClient(url, timeout=0.5))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert backend.get("x", self.CFG) is None
            assert backend._down
            return [w for w in caught if "unreachable" in str(w.message)]

        assert len(probe("http://127.0.0.1:9")) == 1
        import os

        assert os.environ[ENV_WARNED] == "http://127.0.0.1:9"
        # A second worker hitting the same dead URL inherits the flag.
        assert probe("http://127.0.0.1:9") == []
        # A different dead URL still gets its one warning.
        assert len(probe("http://127.0.0.1:19")) == 1

    def test_rejects_non_http_url(self):
        with pytest.raises(ConfigError):
            CacheClient("cachehost:8750")


# ----------------------------------------------------------------------
# (e) Differential: CLI outputs byte-identical with and without the tier


class TestCliDifferential:
    ARGS = ["--duration", "0.25", "--settle-ms", "150"]

    def test_sweep_bytes_identical_through_cache_url(self, server, tmp_path):
        from repro.__main__ import main

        url = base_url(server)
        sweep = self.ARGS + ["sweep", "--axis", "jit=on,off",
                             "--bench", "countdown.main"]
        paths = {name: str(tmp_path / f"{name}.json")
                 for name in ("plain", "cold", "warm", "remote_only")}
        assert main(sweep + ["--out", paths["plain"]]) == 0
        assert main(sweep + ["--out", paths["cold"],
                             "--cache", str(tmp_path / "l1"),
                             "--cache-url", url]) == 0
        # Fresh local tier: every cell must come from the service.
        assert main(sweep + ["--out", paths["warm"],
                             "--cache", str(tmp_path / "l2"),
                             "--cache-url", url]) == 0
        assert main(sweep + ["--out", paths["remote_only"],
                             "--cache-url", url]) == 0
        blobs = {name: open(path, "rb").read()
                 for name, path in paths.items()}
        assert blobs["plain"] == blobs["cold"] == blobs["warm"] \
            == blobs["remote_only"]
        stats = server.service.stats_payload()
        assert stats["puts"] == 2
        # The two warm replays each served both cells remotely.
        assert stats["hot_hits"] + stats["store_hits"] >= 4

    def test_suite_bytes_identical_through_cache_url(self, server, tmp_path):
        from repro.__main__ import main

        url = base_url(server)
        suite = self.ARGS + ["suite", "--bench", "999.specrand"]
        plain = str(tmp_path / "plain.json")
        published = str(tmp_path / "published.json")
        replayed = str(tmp_path / "replayed.json")
        assert main(suite + ["--out", plain]) == 0
        assert main(suite + ["--out", published, "--cache-url", url]) == 0
        assert main(suite + ["--out", replayed, "--cache-url", url]) == 0
        blob = open(plain, "rb").read()
        assert blob == open(published, "rb").read()
        assert blob == open(replayed, "rb").read()


# ----------------------------------------------------------------------
# (f) CLI surface


def test_serve_parser_defaults():
    from repro.__main__ import make_parser

    args = make_parser().parse_args(["serve", "storedir"])
    assert args.dir == "storedir"
    assert args.host == "127.0.0.1"
    assert args.port == 8750
    assert args.hot_bytes == 64 * 1024 * 1024
    assert args.max_age == 86400
    assert args.func.__name__ == "cmd_serve"


def test_exec_flags_accept_cache_url():
    from repro.__main__ import make_parser

    args = make_parser().parse_args(
        ["sweep", "--axis", "seed=1,2", "--cache-url", "http://h:1"]
    )
    assert args.cache_url == "http://h:1"
