"""Client side of the result service: HTTP access plus the two-tier cache.

:class:`CacheClient` is a thin stdlib-``urllib`` wrapper over the wire
protocol (GET, publish PUT, stats).  :class:`RemoteCacheBackend` stacks
it behind an optional local :class:`~repro.core.results.ResultCache` and
duck-types the cache contract :func:`~repro.core.runner.execute_with_cache`
consumes (``get``/``put``/``flush_stats``), so ``--cache-url`` drops
into the suite/sweep/fleet runners without touching orchestration code:

- lookup: a local hit is final (an entry's content-addressed key fixes
  its body, so the service cannot hold a newer one); a local miss tries
  the remote ``GET`` and writes a hit through to the local tier;
- compute: fresh results go to the local tier and are published to the
  service with ``PUT``, so every other worker's next miss becomes a hit.

An unreachable service degrades, never fails: one warning, then the
remote tier is skipped for the rest of the process and the run proceeds
on local cache + simulation alone.
"""

from __future__ import annotations

import contextlib
import json
import threading
import warnings
from typing import TYPE_CHECKING
from urllib.error import HTTPError
from urllib.request import Request, urlopen

from repro.core.results import ResultCache, RunResult, decode_entry
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.core.runner import RunConfig

#: Per-request timeout: a hung service must degrade like a down one.
DEFAULT_TIMEOUT = 10.0


class CacheClient:
    """Speaks the result-service wire protocol for one base URL."""

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ConfigError(
                f"cache url must start with http:// or https://, "
                f"got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _url(self, key: str) -> str:
        return f"{self.base_url}/result/{key}"

    def get_entry(self, key: str) -> "tuple[int, bytes | None]":
        """``(status, body)`` for one entry.

        A 404 comes back as a status with ``body=None`` rather than an
        exception — a miss is a protocol outcome, not a failure.
        """
        try:
            with urlopen(self._url(key), timeout=self.timeout) as response:
                return response.status, response.read()
        except HTTPError as exc:
            with contextlib.closing(exc):
                if exc.code == 404:
                    return 404, None
                raise

    def put_entry(self, key: str, body: bytes) -> None:
        """Publish one entry body (raises on any non-2xx outcome)."""
        request = Request(
            self._url(key),
            data=body,
            method="PUT",
            headers={"Content-Type": "application/json"},
        )
        with urlopen(request, timeout=self.timeout) as response:
            response.read()

    def stats(self) -> dict:
        """The service's ``/stats`` counters."""
        with urlopen(f"{self.base_url}/stats", timeout=self.timeout) as response:
            return json.loads(response.read().decode("utf-8"))


class RemoteCacheBackend:
    """Two-tier result cache: optional local directory, remote service.

    Drop-in for a :class:`~repro.core.results.ResultCache` wherever the
    runners take one.  ``remote_hits``/``remote_misses`` count only
    lookups that actually reached the service (local hits never do).
    """

    def __init__(
        self,
        client: CacheClient,
        local: "ResultCache | None" = None,
    ) -> None:
        self.client = client
        self.local = local
        self.remote_hits = 0
        self.remote_misses = 0
        self._down = False
        #: Lookups (calling thread) and publishes (a pool's completion
        #: thread) can find the service down at the same time.
        self._down_lock = threading.Lock()

    # ------------------------------------------------------------------
    # The cache contract execute_with_cache consumes

    def get(self, bench_id: str, cfg: "RunConfig") -> "RunResult | None":
        if self.local is not None:
            hit = self.local.get(bench_id, cfg)
            if hit is not None:
                return hit
        body = self._remote_get(ResultCache.key(bench_id, cfg))
        if body is None:
            self.remote_misses += 1
            return None
        try:
            result = decode_entry(body)
        except ValueError:
            # A corrupt remote payload is a miss, exactly like a corrupt
            # local entry — recompute and heal it with the PUT.
            self.remote_misses += 1
            warnings.warn(
                f"discarding corrupt remote cache entry for {bench_id}",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        self.remote_hits += 1
        if self.local is not None:
            self.local.put(bench_id, cfg, result)
        return result

    def put(self, bench_id: str, cfg: "RunConfig", result: RunResult) -> None:
        if self.local is not None:
            self.local.put(bench_id, cfg, result)
        body = json.dumps(result.to_json_dict()).encode("utf-8")
        self._remote_put(ResultCache.key(bench_id, cfg), body)

    def flush_stats(self) -> None:
        if self.local is not None:
            self.local.flush_stats()

    # ------------------------------------------------------------------

    def _remote_get(self, key: str) -> "bytes | None":
        if self._down:
            return None
        try:
            status, body = self.client.get_entry(key)
        except OSError as exc:
            self._mark_down(exc)
            return None
        return body if status == 200 else None

    def _remote_put(self, key: str, body: bytes) -> None:
        if self._down:
            return
        try:
            self.client.put_entry(key, body)
        except OSError as exc:
            self._mark_down(exc)

    def _mark_down(self, exc: Exception) -> None:
        """Warn once, then stop trying: computing locally is always a
        correct fallback, and one warning per run beats one per unit.

        Only the parent process builds this backend (pool workers just
        simulate), so once per backend is once per run.
        """
        with self._down_lock:
            if self._down:
                return
            self._down = True
        warnings.warn(
            f"result service at {self.client.base_url} is unreachable "
            f"({exc}); continuing without the remote tier",
            RuntimeWarning,
            stacklevel=4,
        )
