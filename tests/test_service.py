"""The result service: HTTP semantics, store hygiene, two-tier client.

Covers the seams the networked cache tier adds: PUT input checks
(malformed ``Content-Length``, bodies no reader could use), concurrent
PUTs of one key (last writer wins, never a torn read) and concurrent
GETs (never a failed read), the sweep of dead writers' tmp files, the
warn-once fallback when the service is unreachable, and the headline
differential — suite/sweep/fleet output bytes are identical with and
without ``--cache-url``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import urllib.request
import warnings

import pytest

from repro.core import ResultCache, RunConfig, RunResult
from repro.errors import ConfigError
from repro.service import (
    CacheClient,
    RemoteCacheBackend,
    ResultService,
    make_server,
)

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

KEY_A = "a" * 64
KEY_B = "b" * 64


def make_run(tag: str = "x", pad: int = 0) -> RunResult:
    return RunResult(
        bench_id=tag,
        benchmark_comm=tag,
        duration_ticks=100,
        seed=1,
        instr_by_region={"region": 5},
        meta={"pad": "x" * pad} if pad else {},
    )


def entry_body(tag: str, pad: int = 0) -> bytes:
    """A valid RunResult entry body of a controllable size."""
    return json.dumps(make_run(tag, pad).to_json_dict()).encode("utf-8")


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
# (a) Service mechanics (no HTTP): store checks and hygiene


class TestResultService:
    def test_store_read_serves_local_cache_entries(self, tmp_path):
        """A directory a ``--cache`` run filled is a service store as is:
        its entries are served byte for byte, and counted."""
        cfg = RunConfig(duration_ticks=100, settle_ticks=0, seed=3)
        local = ResultCache(str(tmp_path))
        local.put("warm", cfg, make_run("warm"))
        key = ResultCache.key("warm", cfg)
        svc = ResultService(str(tmp_path))
        body = svc.fetch(key)
        assert body == local.read_entry(key)
        assert RunResult.from_json_dict(json.loads(body)) == make_run("warm")
        assert svc.fetch(KEY_B) is None
        assert svc.stats_payload() == {
            "hot_hits": 0, "store_hits": 1, "misses": 1, "puts": 0,
        }

    def test_publish_rejects_non_json(self, tmp_path):
        svc = ResultService(str(tmp_path))
        with pytest.raises(ValueError):
            svc.publish(KEY_A, b"{torn")
        assert svc.fetch(KEY_A) is None

    def test_start_sweeps_dead_writers_tmp_files(self, tmp_path):
        """A serve killed mid-PUT leaves its tmp file behind; the next
        service over that store removes it (a live writer's stays)."""
        dead = tmp_path / f"{KEY_A}.json.tmp.999999999"
        dead.write_bytes(entry_body("half"))
        alive = tmp_path / f"{KEY_B}.json.tmp.{os.getpid()}"
        alive.write_bytes(entry_body("in-flight"))
        ResultService(str(tmp_path))
        assert not dead.exists()
        assert alive.exists()


# ----------------------------------------------------------------------
# (b) HTTP semantics: bodies, error paths, concurrency


class TestHttp:
    def test_roundtrip_headers_and_body(self, server):
        client = CacheClient(base_url(server))
        client.put_entry(KEY_A, entry_body("one"))
        response = urllib.request.urlopen(
            f"{base_url(server)}/result/{KEY_A}", timeout=5
        )
        assert response.status == 200
        assert response.headers["Content-Type"] == "application/json"
        assert response.read() == entry_body("one")

    def test_missing_and_malformed_paths_404(self, server):
        client = CacheClient(base_url(server))
        assert client.get_entry(KEY_A)[0] == 404
        for path in ("/result/not-a-key", "/result/../escape", "/nope"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base_url(server) + path, timeout=5)
            assert err.value.code == 404

    @pytest.mark.parametrize("body", [b"{torn", b"{}"],
                             ids=["not-json", "not-a-run"])
    def test_put_unusable_body_400(self, server, body):
        client = CacheClient(base_url(server))
        with pytest.raises(urllib.error.HTTPError) as err:
            client.put_entry(KEY_A, body)
        err.value.close()
        assert err.value.code == 400
        assert client.get_entry(KEY_A)[0] == 404

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_put_malformed_content_length_400(self, server, length):
        """Answered at once, on a raw socket (urllib would not send a
        malformed length), rather than dropping the connection or
        reading until the client gives up."""
        request = (f"PUT /result/{KEY_A} HTTP/1.1\r\nHost: x\r\n"
                   f"Content-Length: {length}\r\n\r\n").encode("ascii")
        with socket.create_connection(server.server_address[:2],
                                      timeout=2) as sock:
            sock.sendall(request)
            reply = sock.recv(4096)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert CacheClient(base_url(server)).get_entry(KEY_A)[0] == 404

    def test_stats_endpoint_counts(self, server):
        client = CacheClient(base_url(server))
        client.put_entry(KEY_A, entry_body("one"))
        client.get_entry(KEY_A)
        client.get_entry(KEY_B)
        stats = client.stats()
        assert stats["puts"] == 1
        assert stats["store_hits"] == 1
        assert stats["misses"] == 1

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
        status, body = CacheClient(client_url).get_entry(KEY_A)
        # Whatever the interleaving, the served entry is exactly one
        # writer's complete body — never a splice of two.
        assert status == 200
        assert body in bodies
        # And the store holds the same intact bytes.
        assert server.service.store.read_entry(KEY_A) in bodies

    def test_concurrent_gets_never_fail(self, server):
        """Many clients re-reading a small working set at once (a fleet
        replaying a warm grid) all get the stored bytes."""
        url = base_url(server)
        bodies = {f"{i:064x}": entry_body(str(i), pad=4096) for i in range(4)}
        for key, body in bodies.items():
            CacheClient(url).put_entry(key, body)
        clients, rounds = 8, 10
        barrier = threading.Barrier(clients)
        failures: "list[object]" = []

        def replay() -> None:
            try:
                barrier.wait(timeout=10)
                client = CacheClient(url)
                for _ in range(rounds):
                    for key, body in bodies.items():
                        if client.get_entry(key) != (200, body):
                            failures.append(key)
            except Exception as exc:  # pragma: no cover - diagnostic
                failures.append(exc)

        threads = [threading.Thread(target=replay) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = CacheClient(url).stats()
        assert stats["store_hits"] == clients * rounds * len(bodies)
        assert stats["misses"] == 0


# ----------------------------------------------------------------------
# (c) The two-tier client backend


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
        # Written straight into the store: PUT would refuse it.
        server.service.store.write_entry(
            key, b'{"valid json": "but not a RunResult"}'
        )
        backend = RemoteCacheBackend(client)
        with pytest.warns(RuntimeWarning, match="corrupt remote"):
            assert backend.get("x", self.CFG) is None
        assert backend.remote_misses == 1

    def test_unreachable_service_warns_once_and_degrades(self, tmp_path):
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

    def test_rejects_non_http_url(self):
        with pytest.raises(ConfigError):
            CacheClient("cachehost:8750")


# ----------------------------------------------------------------------
# (d) Differential: CLI outputs byte-identical with and without the tier


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


def test_fleet_with_unreachable_service_warns_once(tmp_path):
    """A pool run against a dead service warns once (only the parent
    process consults the cache), still succeeds, and writes the bytes a
    run without ``--cache-url`` writes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-m", "repro", *TestCliDifferential.ARGS,
            "fleet", "--devices", "8", "--jobs", "2"]
    plain = subprocess.run(argv + ["--out", "plain.json"], env=env,
                           cwd=tmp_path, capture_output=True, text=True)
    assert plain.returncode == 0, plain.stderr
    down = subprocess.run(
        argv + ["--cache-url", "http://127.0.0.1:9", "--out", "down.json"],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert down.returncode == 0, down.stderr
    assert down.stderr.count("unreachable") == 1, down.stderr
    assert (tmp_path / "down.json").read_bytes() \
        == (tmp_path / "plain.json").read_bytes()


# ----------------------------------------------------------------------
# (e) CLI surface


def test_serve_parser_defaults():
    from repro.__main__ import make_parser

    args = make_parser().parse_args(["serve", "storedir"])
    assert args.dir == "storedir"
    assert args.host == "127.0.0.1"
    assert args.port == 8750
    assert args.func.__name__ == "cmd_serve"


def test_exec_flags_accept_cache_url():
    from repro.__main__ import make_parser

    args = make_parser().parse_args(
        ["sweep", "--axis", "seed=1,2", "--cache-url", "http://h:1"]
    )
    assert args.cache_url == "http://h:1"
