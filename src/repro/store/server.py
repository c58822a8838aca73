"""``repro serve`` — a JSON query API over a persistent run store.

A stdlib-only ``ThreadingHTTPServer`` that turns a :class:`RunStore` file
into cheap-to-poll endpoints::

    GET /                endpoint index
    GET /healthz         liveness + store counts
    GET /runs            stored run summaries (?scheme=&case=&model=&system=
                         &limit=&offset=&order=)
    GET /campaigns       stored campaign snapshots
    GET /campaigns/<id>  one snapshot's full canonical payload
    GET /table1          the paper's Table I from a snapshot (?campaign=&case=)
    GET /diff            regression diff of two snapshots (?old=&new=&name=)
    GET /metrics         process telemetry (Prometheus text; ?format=json)
    GET /progress/<name> live progress of a store-backed campaign

Every response carries an ``ETag`` derived from the store's state token and
the request, and ``If-None-Match`` requests answer ``304 Not Modified``
without recomputing — many dashboards can poll the same endpoints for the
price of one computation per store change.  Responses are additionally
memoised per (request, state token), so concurrent cold requests compute a
payload once and share it.  ``/metrics`` and ``/progress`` deliberately
bypass that memo cache: both change without the store generation moving (a
scrape bumps its own counters; progress writes are generation-neutral by
design), so caching them against the token would serve stale telemetry.

Request handling is itself telemetry: every response lands in the
process-local registry (latency histogram per endpoint, status counters,
304-vs-200 split) — which is exactly what ``/metrics`` then serves.
Structured request logging (one JSON line per request: method, path, status,
duration, cache outcome) replaces the stock ``BaseHTTPRequestHandler``
stderr noise and is switchable with ``repro serve --quiet``.

No request pays a first import: this module imports what the routes use to
rebuild reports and Table I, and :class:`StoreServer` loads every system
pack a stored snapshot may name before it binds its address.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, TextIO, Tuple
from urllib.parse import parse_qs, urlparse

from ..analysis import tables  # noqa: F401 - /table1 builds Table I
from ..core import serialization  # noqa: F401 - reports are rebuilt from payloads
from ..faults import matrix  # noqa: F401 - kill-matrix snapshots rebuild their spec
from ..obs import REGISTRY
from ..systems.base import iter_packs
from .diff import diff_snapshots
from .store import RunStore, StoreError

#: Routes listed by the index endpoint.
ENDPOINTS = {
    "/healthz": "liveness and store counts",
    "/runs": "stored run summaries (?scheme=&case=&model=&system=&limit=&offset=&order=)",
    "/campaigns": "stored campaign snapshots",
    "/campaigns/<id>": "one snapshot's full canonical payload",
    "/table1": "Table I from a snapshot (?campaign=<id|latest|prev>&case=)",
    "/diff": "regression diff between snapshots (?old=&new=&name=)",
    "/metrics": "process telemetry (Prometheus text exposition; ?format=json)",
    "/progress/<name>": "live progress of a store-backed campaign",
}

_JSON_TYPE = "application/json; charset=utf-8"
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _BadRequest(Exception):
    """A malformed query (rendered as HTTP 400)."""


def _endpoint_label(path: str) -> str:
    """The metrics label for a request path: dynamic segments collapsed.

    Label values must stay low-cardinality — one series per *route*, never
    one per campaign id or snapshot hash.
    """
    if path.startswith("/campaigns/"):
        return "/campaigns/<id>"
    if path.startswith("/progress/"):
        return "/progress/<name>"
    if path in ("", "/"):
        return "/"
    return path


class StoreRequestHandler(BaseHTTPRequestHandler):
    """Routes GET requests into the attached :class:`RunStore`."""

    server_version = "repro-store/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        # The stock handler logs an unstructured line per request to stderr;
        # the structured JSON log in do_GET replaces it entirely.
        return None

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        started = time.perf_counter()
        parsed = urlparse(self.path)
        query = {name: values[-1] for name, values in parse_qs(parsed.query).items()}
        status, body, etag, content_type = self.server.respond(parsed.path, query)
        not_modified = status == 200 and self.headers.get("If-None-Match") == etag
        sent_status = 304 if not_modified else status
        # The request is counted and logged before the first response byte
        # goes out: a client that has read its response, then scrapes
        # /metrics or stops the server, must find it counted and logged.  The
        # latency is therefore the time to a ready response, not including
        # the socket write.
        duration = time.perf_counter() - started
        REGISTRY.histogram(
            "http_request_seconds",
            labels={"endpoint": _endpoint_label(parsed.path)},
            help="serve request latency by endpoint",
        ).observe(duration)
        REGISTRY.counter(
            "http_responses_total",
            labels={"status": str(sent_status)},
            help="serve responses by status code",
        ).inc()
        self.server.log_request_line(
            method="GET",
            path=self.path,
            status=sent_status,
            duration_s=duration,
            cached=not_modified,
        )
        if not_modified:
            self.send_response(304)
            self.send_header("ETag", etag)
            self.send_header("Content-Length", "0")
            self.end_headers()
        else:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("ETag", etag)
            self.end_headers()
            self.wfile.write(body)


class StoreHTTPServer(ThreadingHTTPServer):
    """The threading HTTP server bound to one run store."""

    daemon_threads = True

    #: Hard bound on cached responses; query strings are client-controlled,
    #: so the cache must not grow with the number of distinct URLs seen.
    MAX_CACHED_RESPONSES = 256

    def __init__(
        self,
        store: RunStore,
        address: Tuple[str, int],
        *,
        verbose: bool = False,
        log_stream: Optional[TextIO] = None,
    ) -> None:
        super().__init__(address, StoreRequestHandler)
        self.store = store
        #: When true, every request emits one structured JSON log line.
        self.verbose = verbose
        self._log_stream = log_stream
        self._log_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        #: normalized (path, sorted query) -> (state token, body, etag).
        self._response_cache: Dict[str, Tuple[str, bytes, str]] = {}

    # ------------------------------------------------------------------
    # Structured request logging
    # ------------------------------------------------------------------
    def log_request_line(
        self, *, method: str, path: str, status: int, duration_s: float, cached: bool
    ) -> None:
        """One JSON line per request: who asked what, how it went, how long."""
        if not self.verbose:
            return
        stream = self._log_stream if self._log_stream is not None else sys.stderr
        line = json.dumps(
            {
                "method": method,
                "path": path,
                "status": status,
                "duration_ms": round(duration_s * 1000.0, 3),
                "cache": "304" if cached else "200",
            },
            sort_keys=True,
        )
        with self._log_lock:
            print(line, file=stream, flush=True)

    # ------------------------------------------------------------------
    # Response construction (cached per store state)
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(payload: Dict[str, Any]) -> Tuple[bytes, str]:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        etag = '"' + hashlib.sha256(body).hexdigest()[:32] + '"'
        return body, etag

    def respond(self, path: str, query: Dict[str, str]) -> Tuple[int, bytes, str, str]:
        """The (status, encoded body, ETag, content type) for one request.

        Successful responses are cached under the normalized request and the
        store's current state token; a cache hit returns the already-encoded
        bytes.  Error responses are computed fresh (they are cheap and should
        not occupy cache slots).  The telemetry endpoints skip the cache —
        their content moves independently of the store generation.
        """
        if path == "/metrics":
            return self._metrics(query)
        if path.startswith("/progress/"):
            return self._progress(path[len("/progress/"):])
        token = self.store.state_token()
        cache_key = path + "?" + json.dumps(query, sort_keys=True)
        with self._cache_lock:
            cached = self._response_cache.get(cache_key)
            if cached is not None and cached[0] == token:
                return 200, cached[1], cached[2], _JSON_TYPE
        try:
            payload = self._route(path, query)
        except _BadRequest as error:
            body, etag = self._encode({"error": str(error)})
            return 400, body, etag, _JSON_TYPE
        except (StoreError, LookupError) as error:
            body, etag = self._encode({"error": str(error)})
            return 404, body, etag, _JSON_TYPE
        body, etag = self._encode(payload)
        with self._cache_lock:
            if len(self._response_cache) >= self.MAX_CACHED_RESPONSES:
                stale = [
                    key for key, entry in self._response_cache.items() if entry[0] != token
                ]
                for key in stale:
                    del self._response_cache[key]
                while len(self._response_cache) >= self.MAX_CACHED_RESPONSES:
                    # Still full of current-token entries: drop the oldest.
                    self._response_cache.pop(next(iter(self._response_cache)))
            self._response_cache[cache_key] = (token, body, etag)
        return 200, body, etag, _JSON_TYPE

    # ------------------------------------------------------------------
    # Telemetry endpoints (never memoised)
    # ------------------------------------------------------------------
    def _metrics(self, query: Dict[str, str]) -> Tuple[int, bytes, str, str]:
        format_name = query.get("format", "prometheus")
        if format_name == "json":
            body, etag = self._encode(REGISTRY.to_dict())
            return 200, body, etag, _JSON_TYPE
        if format_name != "prometheus":
            body, etag = self._encode(
                {"error": f"unknown metrics format {format_name!r} (prometheus|json)"}
            )
            return 400, body, etag, _JSON_TYPE
        body = REGISTRY.render_prometheus().encode("utf-8")
        etag = '"' + hashlib.sha256(body).hexdigest()[:32] + '"'
        return 200, body, etag, _PROMETHEUS_TYPE

    def _progress(self, name: str) -> Tuple[int, bytes, str, str]:
        if not name:
            body, etag = self._encode({"error": "progress needs a campaign name"})
            return 400, body, etag, _JSON_TYPE
        snapshot = self.store.load_progress(name)
        if snapshot is None:
            body, etag = self._encode(
                {"error": f"no progress recorded for campaign {name!r}"}
            )
            return 404, body, etag, _JSON_TYPE
        body, etag = self._encode(snapshot)
        return 200, body, etag, _JSON_TYPE

    # ------------------------------------------------------------------
    def _route(self, path: str, query: Dict[str, str]) -> Dict[str, Any]:
        if path in ("", "/"):
            return {"service": "repro store", "endpoints": ENDPOINTS}
        if path == "/healthz":
            return {"status": "ok", "counts": self.store.counts()}
        if path == "/runs":
            return self._runs(query)
        if path == "/campaigns":
            return {"campaigns": self.store.campaign_rows(name=query.get("name"))}
        if path.startswith("/campaigns/"):
            campaign_id = path[len("/campaigns/"):]
            result = self.store.load_campaign(campaign_id)
            return {"campaign_id": campaign_id, "result": result.to_dict()}
        if path == "/table1":
            return self._table1(query)
        if path == "/diff":
            return self._diff(query)
        raise StoreError(f"unknown endpoint {path!r} (see / for the index)")

    def _runs(self, query: Dict[str, str]) -> Dict[str, Any]:
        scheme: Optional[int] = None
        limit: Optional[int] = None
        offset = 0
        try:
            if "scheme" in query:
                scheme = int(query["scheme"])
            if "limit" in query:
                limit = int(query["limit"])
            if "offset" in query:
                offset = int(query["offset"])
        except ValueError as error:
            raise _BadRequest(f"bad integer parameter: {error}") from None
        order = query.get("order", "newest")
        filters = {
            "scheme": scheme,
            "case": query.get("case"),
            "model": query.get("model"),
            "system": query.get("system"),
        }
        try:
            rows = self.store.run_rows(limit=limit, offset=offset, order=order, **filters)
        except ValueError as error:
            raise _BadRequest(str(error)) from None
        # ``total`` counts every match (ignoring the page window), so pagers
        # know when to stop; ``count`` is this page's size.
        return {
            "count": len(rows),
            "total": self.store.run_count(**filters),
            "offset": offset,
            "runs": rows,
        }

    def _table1(self, query: Dict[str, str]) -> Dict[str, Any]:
        campaign_id = self.store.resolve_campaign_id(
            query.get("campaign", "latest"), name=query.get("name")
        )
        result = self.store.load_campaign(campaign_id)
        case = query.get("case", "bolus-request")
        table = result.table_one(case)
        return {
            "campaign_id": campaign_id,
            "case": case,
            "schemes": table.summary_rows(),
            "rows": table.rows(),
            "render": table.render(),
        }

    def _diff(self, query: Dict[str, str]) -> Dict[str, Any]:
        if "old" not in query or "new" not in query:
            raise _BadRequest("diff needs ?old=<id|latest|prev>&new=<id|latest|prev>")
        diff = diff_snapshots(self.store, query["old"], query["new"], name=query.get("name"))
        payload = diff.to_dict()
        payload["render"] = diff.render()
        return payload


class StoreServer:
    """Lifecycle wrapper: serve a store file on a background thread.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port` after
    construction) — the test suite and the examples use that to avoid
    clashing with anything else on the machine.
    """

    def __init__(
        self,
        store: RunStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        log_stream: Optional[TextIO] = None,
    ) -> None:
        for _ in iter_packs():  # imports each pack a snapshot may name
            pass
        self._server = StoreHTTPServer(
            store, (host, port), verbose=verbose, log_stream=log_stream
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "StoreServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:  # pragma: no cover - interactive serving
        self._server.serve_forever()

    def shutdown(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "StoreServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
