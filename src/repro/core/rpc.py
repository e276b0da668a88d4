"""HTTP RPC front-end for the SCAN platform and its service plane.

The paper's prototype scheduler "is implemented in Python, using the
CherryPy web framework to process HTTP requests.  Its interface is realized
using HTTP RPCs" (Section III-B).  This module provides that surface with
only the standard library: a threaded :mod:`http.server` exposing the
platform's verbs as JSON-over-HTTP endpoints.

Endpoints
---------
``GET  /health``            liveness probe
``GET  /metrics``           platform metrics snapshot (JSON); with an
                            ``Accept: text/plain`` header and a service
                            plane attached, the tenant-labelled
                            Prometheus exposition instead
``GET  /requests``          all analysis requests (id, status, latency)
``GET  /requests/<id>``     one request's detail
``GET  /workers``           worker-pool population
``POST /submit``            body {"name", "size_gb", "format"} -> request id
``POST /advance``           body {"until": t} or {} -> run the simulation
``POST /kb/query``          body {"sparql": "..."} -> result rows

Service-plane endpoints (when a :class:`~repro.service.plane.ServicePlane`
is attached):

``POST /tenants/<id>/jobs`` submit a job to a tenant's priority queue;
                            202 on admission, 429 when the queue is full,
                            503 while the tenant's breaker is open,
                            409 on a duplicate uid
``GET  /tenants``           every tenant with queue depth and breaker state
``GET  /tenants/<id>/queue``one tenant's queue in pop order
``POST /pop``               body {"tenant": ...?} -> lease the best job
``POST /finish``            body {"uid", "outcome"?} -> resolve a lease
``POST /drain``             body {"max_jobs"?, "until"?} -> pump + run +
                            reconcile
``GET  /service/state``     global accounting (the recovery invariant)

Error contract (RPC hardening): every error body is structured JSON --
``{"error": {"code": <stable string>, "message": <human text>}}`` -- with
``bad_json`` (400), ``bad_request`` (400), ``bad_route`` (400),
``payload_too_large`` (413), ``length_required`` (411), ``queue_full``
(429), ``tenant_suspended`` (503), ``duplicate`` (409), ``not_found``
(404 on service routes) and ``internal`` (500).  Request bodies are read
*bounded*: an oversize ``Content-Length`` is refused before a byte is
read, and a socket read timeout frees the handler thread from clients
that declare more bytes than they send.

The simulated platform is single-threaded; a lock serialises handler
access so concurrent HTTP clients cannot interleave simulation steps.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Optional

from repro.core.errors import SCANError
from repro.core.platform import AnalysisRequest, SCANPlatform
from repro.genomics.datasets import DataFormat, DatasetDescriptor
from repro.ontology.sparql import SparqlError
from repro.ontology.triples import IRI

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, hints only
    from repro.service.plane import ServicePlane

__all__ = ["ScanRpcServer", "RpcError", "DEFAULT_MAX_BODY_BYTES"]

#: Default request-body ceiling (bytes); ServiceConfig can override.
DEFAULT_MAX_BODY_BYTES = 1_048_576


class RpcError(SCANError):
    """An RPC-layer failure with an HTTP status and a stable error code."""

    def __init__(
        self, message: str, status: int = 400, code: str = "bad_request"
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _jsonable(value: Any) -> Any:
    """Coerce platform values (IRIs, enums) into JSON-encodable ones."""
    if isinstance(value, IRI):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "value") and not isinstance(value, (int, float)):
        return value.value  # enums
    return value


def _finite_field(name: str, value: Any) -> float:
    """*value* as a finite float; anything else (``NaN`` included) is a 400."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise RpcError(f"bad {name}: {exc}") from exc
    if not math.isfinite(number):
        raise RpcError(f"{name} must be finite, got {number}")
    return number


#: Admission-decision reason -> (HTTP status, error code).
_ADMISSION_STATUS = {
    "queue_full": (429, "queue_full"),
    "duplicate": (409, "duplicate"),
    "tenant_suspended": (503, "tenant_suspended"),
}


class ScanRpcServer:
    """A threaded HTTP JSON-RPC wrapper around one :class:`SCANPlatform`.

    Usage::

        server = ScanRpcServer(platform, port=0)   # 0 = ephemeral port
        server.start()
        ... urllib / curl against http://127.0.0.1:{server.port} ...
        server.stop()

    Attaching a service plane (``plane=ServicePlane(platform, ...)``)
    adds the tenant-scoped queue endpoints.
    """

    def __init__(
        self,
        platform: SCANPlatform,
        host: str = "127.0.0.1",
        port: int = 0,
        plane: "Optional[ServicePlane]" = None,
        max_body_bytes: Optional[int] = None,
        read_timeout_s: Optional[float] = None,
    ):
        self.platform = platform
        self.plane = plane
        if max_body_bytes is None:
            max_body_bytes = (
                plane.config.max_body_bytes
                if plane is not None
                else DEFAULT_MAX_BODY_BYTES
            )
        if read_timeout_s is None:
            read_timeout_s = (
                plane.config.read_timeout_s if plane is not None else 10.0
            )
        self.max_body_bytes = max_body_bytes
        self.read_timeout_s = read_timeout_s
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port), self._make_handler())
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve requests on a background thread."""
        if self._thread is not None:
            raise RpcError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="scan-rpc", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self.plane is not None:
            self.plane.close()

    # -- RPC verbs (called under the lock) -----------------------------------
    def _rpc_health(self) -> dict:
        payload = {"status": "ok", "now": self.platform.env.now}
        if self.plane is not None:
            payload["service"] = True
            payload["queued"] = self.plane.queue.depth()
        return payload

    def _rpc_metrics(self) -> dict:
        metrics = _jsonable(self.platform.metrics())
        if self.plane is not None:
            stats = self.plane.queue.stats()
            metrics["service"] = _jsonable(stats)
        return metrics

    def _rpc_requests(self) -> list:
        return [self._request_summary(r) for r in self.platform.requests]

    def _rpc_request_detail(self, uid: int) -> dict:
        for request in self.platform.requests:
            if request.uid == uid:
                detail = self._request_summary(request)
                detail["shards"] = [
                    {"name": s.name, "size_gb": s.size_gb, "path": s.path}
                    for s in request.brokered.plan
                ]
                detail["jobs"] = [
                    {
                        "name": job.name,
                        "state": job.state.value,
                        "stage": job.current_stage,
                        "n_stages": job.n_stages,
                    }
                    for job in request.jobs
                ]
                return detail
        raise RpcError(f"no request with id {uid}")

    def _rpc_workers(self) -> dict:
        pools = self.platform.scheduler.pools
        return {
            "idle": [
                {"uid": w.uid, "class": w.worker_class, "cores": w.cores,
                 "tier": w.tier}
                for w in pools.idle_workers
            ],
            "busy": [
                {"uid": w.uid, "class": w.worker_class, "cores": w.cores,
                 "tier": w.tier}
                for w in sorted(pools.busy_workers, key=lambda w: w.uid)
            ],
            "booting": sum(pools.booting_for_stage.values()),
            "hires": dict(pools.hires),
            "repools": pools.repools,
        }

    @staticmethod
    def _job_fields(body: dict) -> tuple[str, float, str]:
        try:
            name = str(body["name"])
            size_gb = float(body["size_gb"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RpcError(
                f"submit requires name and size_gb: {exc}"
            ) from exc
        if not (math.isfinite(size_gb) and size_gb > 0):
            raise RpcError(f"size_gb must be positive and finite, got {size_gb}")
        fmt_text = str(body.get("format", "fastq"))
        try:
            DataFormat(fmt_text)
        except ValueError:
            raise RpcError(f"unknown format {fmt_text!r}") from None
        return name, size_gb, fmt_text

    def _rpc_submit(self, body: dict) -> dict:
        name, size_gb, fmt_text = self._job_fields(body)
        dataset = DatasetDescriptor.from_size(
            name, DataFormat(fmt_text), size_gb
        )
        request = self.platform.submit_analysis(dataset)
        return self._request_summary(request)

    def _until(self, body: dict) -> Optional[float]:
        """The optional ``until`` field: finite and not in the sim past."""
        until = body.get("until")
        if until is None:
            return None
        until = _finite_field("until", until)
        if until < self.platform.env.now:
            raise RpcError(
                f"until={until} is in the simulated past "
                f"(now={self.platform.env.now})"
            )
        return until

    def _rpc_advance(self, body: dict) -> dict:
        self.platform.run(until=self._until(body))
        return {"now": self.platform.env.now}

    def _rpc_kb_query(self, body: dict) -> dict:
        sparql = body.get("sparql")
        if not isinstance(sparql, str) or not sparql.strip():
            raise RpcError("kb/query requires a 'sparql' string")
        try:
            rows = self.platform.kb.query(sparql)
        except SparqlError as exc:
            raise RpcError(f"bad SPARQL: {exc}") from exc
        return {"rows": _jsonable(rows)}

    def _request_summary(self, request: AnalysisRequest) -> dict:
        summary = {
            "id": request.uid,
            "dataset": request.dataset.name,
            "size_gb": request.dataset.size_gb,
            "n_subtasks": request.n_subtasks,
            "complete": request.is_complete,
            "advice": str(request.brokered.advice),
        }
        if request.completed_at is not None:
            summary["latency"] = request.latency()
        return summary

    # -- service-plane verbs -------------------------------------------------
    def _require_plane(self) -> "ServicePlane":
        if self.plane is None:
            raise RpcError(
                "no service plane attached (start with scan-sim serve "
                "--service)",
                status=404,
                code="not_found",
            )
        return self.plane

    @staticmethod
    def _job_summary(job) -> dict:
        return {
            "uid": job.uid,
            "tenant": job.tenant,
            "name": job.name,
            "size_gb": job.size_gb,
            "format": job.data_format,
            "weight": job.weight,
            "deadline": job.deadline,
            "seq": job.seq,
            "attempts": job.attempts,
        }

    def _rpc_tenant_submit(self, tenant: str, body: dict) -> tuple[int, dict]:
        plane = self._require_plane()
        name, size_gb, fmt_text = self._job_fields(body)
        weight = _finite_field("weight", body.get("weight", 1.0))
        deadline = body.get("deadline")
        if deadline is not None:
            deadline = _finite_field("deadline", deadline)
        uid = body.get("uid")
        if uid is not None:
            uid = str(uid)
        decision, job = plane.submit(
            tenant,
            name=name,
            size_gb=size_gb,
            data_format=fmt_text,
            weight=weight,
            deadline=deadline,
            uid=uid,
        )
        if not decision.accepted:
            status, code = _ADMISSION_STATUS.get(
                decision.reason, (429, decision.reason)
            )
            raise RpcError(
                f"job rejected for tenant {tenant!r}: {decision.reason}",
                status=status,
                code=code,
            )
        return 202, {
            "accepted": True,
            "job": self._job_summary(job),
            "depth": plane.queue.depth(tenant),
            "shed": None if decision.shed is None else decision.shed.uid,
        }

    def _rpc_tenants(self) -> dict:
        plane = self._require_plane()
        return {
            "tenants": [
                plane.tenant_status(tenant) for tenant in plane.tenants()
            ]
        }

    def _rpc_tenant_queue(self, tenant: str) -> dict:
        plane = self._require_plane()
        status = plane.tenant_status(tenant)
        status["jobs"] = [
            self._job_summary(job)
            for job in plane.queue.snapshot(tenant, limit=100)
        ]
        return status

    def _rpc_pop(self, body: dict) -> dict:
        plane = self._require_plane()
        tenant = body.get("tenant")
        if tenant is not None:
            tenant = str(tenant)
        job = plane.pop(tenant=tenant)
        if job is None:
            return {"job": None}
        return {"job": self._job_summary(job)}

    def _rpc_finish(self, body: dict) -> dict:
        plane = self._require_plane()
        uid = body.get("uid")
        if not isinstance(uid, str) or not uid:
            raise RpcError("finish requires a 'uid' string")
        outcome = str(body.get("outcome", "completed"))
        if outcome not in ("completed", "failed"):
            raise RpcError(
                f"outcome must be completed or failed, got {outcome!r}"
            )
        try:
            job = plane.finish(uid, outcome)
        except SCANError as exc:
            raise RpcError(str(exc), status=404, code="not_found") from exc
        return {"finished": self._job_summary(job), "outcome": outcome}

    def _rpc_drain(self, body: dict) -> dict:
        plane = self._require_plane()
        max_jobs = body.get("max_jobs")
        if max_jobs is not None:
            try:
                max_jobs = int(max_jobs)
            except (TypeError, ValueError) as exc:
                raise RpcError(f"bad max_jobs: {exc}") from exc
            if max_jobs < 1:
                raise RpcError("max_jobs must be >= 1")
        outcomes = plane.drain(max_jobs=max_jobs, until=self._until(body))
        return {
            "outcomes": outcomes,
            "now": self.platform.env.now,
            "queued": plane.queue.depth(),
            "in_flight": len(plane._in_flight),
        }

    def _rpc_service_state(self) -> dict:
        return _jsonable(self._require_plane().state_summary())

    # -- HTTP plumbing -----------------------------------------------------------
    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            # A stalled client (Content-Length larger than what it sends)
            # hits this socket timeout instead of pinning its thread.
            timeout = server.read_timeout_s

            # Silence per-request stderr logging.
            def log_message(self, fmt: str, *args: Any) -> None:
                pass

            def _reply(
                self, status: int, payload: Any, content_type: str = None
            ) -> None:
                if content_type is None:
                    body = json.dumps(payload).encode("utf-8")
                    content_type = "application/json"
                else:
                    body = payload.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _reply_error(self, status: int, code: str, message: str) -> None:
                self._reply(
                    status, {"error": {"code": code, "message": message}}
                )

            def _read_body(self) -> Optional[dict]:
                """Bounded, validated body read; None means already replied."""
                raw_length = self.headers.get("Content-Length")
                if raw_length is None:
                    return {}
                try:
                    length = int(raw_length)
                except ValueError:
                    self._reply_error(
                        400, "bad_request",
                        f"invalid Content-Length {raw_length!r}",
                    )
                    return None
                if length < 0:
                    self._reply_error(
                        400, "bad_request", "negative Content-Length"
                    )
                    return None
                if length > server.max_body_bytes:
                    # Refuse before reading a byte; close the connection
                    # since the unread body would desync keep-alive.
                    self.close_connection = True
                    self._reply_error(
                        413, "payload_too_large",
                        f"body of {length} bytes exceeds the "
                        f"{server.max_body_bytes}-byte limit",
                    )
                    return None
                raw = self.rfile.read(length) if length else b"{}"
                try:
                    body = json.loads(raw or b"{}")
                except json.JSONDecodeError as exc:
                    self._reply_error(400, "bad_json", f"bad JSON: {exc}")
                    return None
                if not isinstance(body, dict):
                    self._reply_error(
                        400, "bad_json",
                        f"body must be a JSON object, got "
                        f"{type(body).__name__}",
                    )
                    return None
                return body

            def _dispatch(self, method: str) -> None:
                path = self.path.split("?", 1)[0].rstrip("/")
                body: dict = {}
                if method == "POST":
                    maybe_body = self._read_body()
                    if maybe_body is None:
                        return
                    body = maybe_body
                try:
                    with server._lock:
                        result = self._route(method, path, body)
                except RpcError as exc:
                    self._reply_error(exc.status, exc.code, str(exc))
                except Exception as exc:  # surface simulation errors as 500
                    self._reply_error(
                        500, "internal", f"{type(exc).__name__}: {exc}"
                    )
                else:
                    if isinstance(result, tuple):
                        status, payload = result
                        self._reply(status, payload)
                    elif isinstance(result, str):
                        self._reply(
                            200, result, content_type="text/plain; version=0.0.4"
                        )
                    else:
                        self._reply(200, result)

            def _route(self, method: str, path: str, body: dict) -> Any:
                if method == "GET":
                    if path == "/health":
                        return server._rpc_health()
                    if path == "/metrics":
                        accept = self.headers.get("Accept", "")
                        if server.plane is not None and (
                            "text/plain" in accept
                        ):
                            return server.plane.metrics_text()
                        return server._rpc_metrics()
                    if path == "/requests":
                        return server._rpc_requests()
                    if path.startswith("/requests/"):
                        tail = path.rsplit("/", 1)[1]
                        try:
                            uid = int(tail)
                        except ValueError:
                            raise RpcError(f"bad request id {tail!r}") from None
                        return server._rpc_request_detail(uid)
                    if path == "/workers":
                        return server._rpc_workers()
                    if path == "/tenants":
                        return server._rpc_tenants()
                    if path.startswith("/tenants/") and path.endswith("/queue"):
                        tenant = path[len("/tenants/"):-len("/queue")]
                        if tenant and "/" not in tenant:
                            return server._rpc_tenant_queue(tenant)
                    if path == "/service/state":
                        return server._rpc_service_state()
                if method == "POST":
                    if path == "/submit":
                        return server._rpc_submit(body)
                    if path == "/advance":
                        return server._rpc_advance(body)
                    if path == "/kb/query":
                        return server._rpc_kb_query(body)
                    if path.startswith("/tenants/") and path.endswith("/jobs"):
                        tenant = path[len("/tenants/"):-len("/jobs")]
                        if tenant and "/" not in tenant:
                            return server._rpc_tenant_submit(tenant, body)
                    if path == "/pop":
                        return server._rpc_pop(body)
                    if path == "/finish":
                        return server._rpc_finish(body)
                    if path == "/drain":
                        return server._rpc_drain(body)
                raise RpcError(
                    f"no route for {method} {path}", code="bad_route"
                )

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                self._dispatch("GET")

            def do_POST(self) -> None:  # noqa: N802
                self._dispatch("POST")

        return Handler
