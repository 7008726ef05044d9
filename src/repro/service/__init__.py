"""Networked result tier: an HTTP cache service over ResultCache entries.

The local :class:`~repro.core.results.ResultCache` is a directory; this
package makes it a shared result plane for multi-host fleets.  The
server side (:mod:`repro.service.server`) is a stdlib-only daemon
serving that directory's entries by content hash; the client side
(:mod:`repro.service.client`) is a two-tier cache — optional local
directory front, remote service behind — that plugs into
:func:`~repro.core.runner.execute_with_cache` unchanged, so every
existing backend becomes fleet-ready without touching execution code.
"""

from repro.service.client import CacheClient, RemoteCacheBackend
from repro.service.server import (
    ResultServer,
    ResultService,
    ResultServiceHandler,
    make_server,
)

__all__ = [
    "CacheClient",
    "RemoteCacheBackend",
    "ResultServer",
    "ResultService",
    "ResultServiceHandler",
    "make_server",
]
