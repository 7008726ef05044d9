"""The result service daemon: a cache directory over HTTP.

A long-lived, stdlib-only HTTP server over one
:class:`~repro.core.results.ResultCache` directory, which owns the entry
layout (file names, atomic writes, the sweep of dead writers' tmp
files), so the service can front an existing ``--cache`` directory and
a copy of its store is a local cache:

- ``GET /result/<key>`` serves one content-addressed entry's bytes.
- ``PUT /result/<key>`` publishes a completed run: the body must decode
  as a :class:`~repro.core.results.RunResult` (the check every reader
  applies), and is written atomically to the store.  Concurrent writers
  of one key serialise — last writer wins, a reader never sees a torn
  entry.
- ``GET /stats`` reports hit/miss/publish counters as JSON.

Keys are content hashes of ``(bench, config, version)``, so an entry's
key fixes its body: a stale read is impossible, only a miss.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.core.results import ResultCache, decode_entry

_RESULT_PREFIX = "/result/"


class ResultService:
    """Counted entry reads and checked entry writes over one store.

    Pure mechanism, no HTTP: :meth:`fetch` and :meth:`publish` are what
    the request handler (and in-process tests) call.
    """

    def __init__(self, root: str) -> None:
        self.store = ResultCache(root)
        self.store_hits = 0
        self.misses = 0
        self.puts = 0
        #: Guards the counters.
        self._lock = threading.Lock()
        #: Serialises store writes: every server thread shares one pid,
        #: so concurrent PUTs of one key would share a tmp filename.
        self._store_lock = threading.Lock()

    def fetch(self, key: str) -> "bytes | None":
        """One entry's bytes, or ``None`` on a miss."""
        body = self.store.read_entry(key)
        with self._lock:
            if body is None:
                self.misses += 1
            else:
                self.store_hits += 1
        return body

    def publish(self, key: str, body: bytes) -> None:
        """Store one entry, last writer wins.

        Raises :class:`ValueError` on a body that is not a RunResult
        entry: the store must never hold an entry a reader would
        discard as corrupt.
        """
        decode_entry(body)
        with self._store_lock:
            self.store.write_entry(key, body)
        with self._lock:
            self.puts += 1

    def stats_payload(self) -> dict:
        """The ``/stats`` JSON body (one consistent snapshot)."""
        with self._lock:
            return {
                # Readers sum hot_hits + store_hits; there is no memory
                # tier any more, so every hit is a store hit.
                "hot_hits": 0,
                "store_hits": self.store_hits,
                "misses": self.misses,
                "puts": self.puts,
            }


class ResultServiceHandler(BaseHTTPRequestHandler):
    """Routes ``/result/<key>`` and ``/stats`` onto the service."""

    server_version = "agave-result-service/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ResultService:
        return self.server.service  # type: ignore[attr-defined]

    # Quiet by default: a load test would otherwise drown stdout in
    # per-request log lines.  ``serve --verbose`` turns them back on.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        path = urlsplit(self.path).path
        if path == "/stats":
            self._send_json(200, self.service.stats_payload())
            return
        key = self._result_key(path)
        if key is None:
            self._send_json(404, {"error": f"unknown path {path!r}"})
            return
        body = self.service.fetch(key)
        if body is None:
            self._send_json(404, {"error": f"no entry for {key}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_PUT(self) -> None:  # noqa: N802
        key = self._result_key(urlsplit(self.path).path)
        if key is None:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        length = self.headers.get("Content-Length")
        if length is None:
            self._send_json(411, {"error": "Content-Length required"})
            return
        try:
            size = int(length)
        except ValueError:
            size = -1
        if size < 0:
            # The body's extent is unknown, so the connection cannot
            # carry another request.
            self.close_connection = True
            self._send_json(400, {"error": f"bad Content-Length {length!r}"})
            return
        body = self.rfile.read(size)
        try:
            self.service.publish(key, body)
        except ValueError as exc:
            self._send_json(400, {"error": f"body is {exc}"})
            return
        self.send_response(204)
        self.end_headers()

    # ------------------------------------------------------------------

    @staticmethod
    def _result_key(path: str) -> "str | None":
        """The entry key named by *path*, or ``None`` if it names none.

        Only exact keys resolve: anything else 404s rather than letting
        a crafted path escape the store directory.
        """
        if not path.startswith(_RESULT_PREFIX):
            return None
        key = path[len(_RESULT_PREFIX):]
        return key if ResultCache.is_key(key) else None

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ResultServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ResultService`."""

    daemon_threads = True

    def __init__(
        self,
        address: "tuple[str, int]",
        service: ResultService,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, ResultServiceHandler)
        self.service = service
        self.verbose = verbose


def make_server(
    root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ResultServer:
    """A ready-to-run server over *root* (``port=0`` picks a free port).

    The caller drives it: ``serve_forever()`` inline (the CLI daemon) or
    on a thread (tests), then ``shutdown()`` + ``server_close()``.
    """
    return ResultServer((host, port), ResultService(root), verbose=verbose)
