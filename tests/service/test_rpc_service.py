"""Tenant-scoped RPC endpoints and the hardened HTTP error contract."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.config import PlatformConfig
from repro.core.platform import SCANPlatform
from repro.core.rpc import ScanRpcServer
from repro.service import ServiceConfig, ServicePlane


@pytest.fixture
def server():
    platform = SCANPlatform(PlatformConfig.paper_defaults())
    platform.bootstrap_knowledge()
    plane = ServicePlane(
        platform,
        config=ServiceConfig(
            tenant_capacity=3, max_body_bytes=4096, breaker_threshold=1,
        ),
    )
    rpc = ScanRpcServer(platform, port=0, plane=plane)
    rpc.start()
    yield rpc
    rpc.stop()


def get(server, path, headers=None):
    req = urllib.request.Request(
        f"{server.address}{path}", headers=headers or {}
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        raw = resp.read()
        ctype = resp.headers.get("Content-Type", "")
        body = raw.decode() if "text/plain" in ctype else json.loads(raw)
        return resp.status, body


def post(server, path, payload):
    data = json.dumps(payload).encode()
    req = urllib.request.Request(
        f"{server.address}{path}", data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def error_body(err: urllib.error.HTTPError) -> dict:
    return json.loads(err.read())["error"]


JOB = {"name": "wgs", "size_gb": 2.0, "format": "fastq"}


class TestTenantSubmission:
    def test_submit_returns_202_with_job(self, server):
        status, body = post(server, "/tenants/alice/jobs", JOB)
        assert status == 202
        assert body["accepted"] is True
        assert body["job"]["tenant"] == "alice"
        assert body["depth"] == 1

    def test_queue_full_is_429_with_stable_code(self, server):
        for _ in range(3):
            post(server, "/tenants/alice/jobs", JOB)
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/tenants/alice/jobs", JOB)
        assert err.value.code == 429
        assert error_body(err.value)["code"] == "queue_full"

    def test_duplicate_uid_is_409(self, server):
        post(server, "/tenants/alice/jobs", dict(JOB, uid="j1"))
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/tenants/alice/jobs", dict(JOB, uid="j1"))
        assert err.value.code == 409
        assert error_body(err.value)["code"] == "duplicate"

    def test_suspended_tenant_is_503(self, server):
        # breaker_threshold=1: one failed job opens alice's breaker.
        _, body = post(server, "/tenants/alice/jobs", JOB)
        uid = body["job"]["uid"]
        post(server, "/pop", {"tenant": "alice"})
        post(server, "/finish", {"uid": uid, "outcome": "failed"})
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/tenants/alice/jobs", JOB)
        assert err.value.code == 503
        assert error_body(err.value)["code"] == "tenant_suspended"
        # Other tenants keep flowing.
        status, _ = post(server, "/tenants/bob/jobs", JOB)
        assert status == 202

    def test_validation_errors_are_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/tenants/alice/jobs", {"name": "x"})
        assert err.value.code == 400
        assert error_body(err.value)["code"] == "bad_request"

    @pytest.mark.parametrize("path, raw", [
        ("/tenants/alice/jobs", b'{"name": "x", "size_gb": NaN}'),
        ("/tenants/alice/jobs", b'{"name": "x", "size_gb": Infinity}'),
        ("/tenants/alice/jobs", b'{"name": "x", "size_gb": 1, "weight": NaN}'),
        ("/tenants/alice/jobs", b'{"name": "x", "size_gb": 1, "deadline": NaN}'),
        ("/advance", b'{"until": NaN}'),
        ("/drain", b'{"until": NaN}'),
    ])
    def test_non_finite_number_is_400(self, server, path, raw):
        # Python's json module accepts the non-standard NaN/Infinity
        # tokens; they must stop at the RPC boundary as a 400, never
        # reach the plane or the ledger.
        req = urllib.request.Request(
            f"{server.address}{path}", data=raw,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert error_body(err.value)["code"] == "bad_request"
        assert server.plane.state_summary()["accepted"] == 0


class TestQueueIntrospection:
    def test_tenants_listing_and_queue_view(self, server):
        post(server, "/tenants/alice/jobs", JOB)
        post(server, "/tenants/bob/jobs", JOB)
        _, listing = get(server, "/tenants")
        assert [t["tenant"] for t in listing["tenants"]] == ["alice", "bob"]
        _, queue = get(server, "/tenants/alice/queue")
        assert queue["depth"] == 1
        assert queue["jobs"][0]["tenant"] == "alice"
        assert queue["breaker"] == "closed"

    def test_health_and_metrics_show_service(self, server):
        post(server, "/tenants/alice/jobs", JOB)
        _, health = get(server, "/health")
        assert health["service"] is True and health["queued"] == 1
        _, metrics = get(server, "/metrics")
        assert metrics["service"]["accepted"] == 1

    def test_metrics_content_negotiation(self, server):
        post(server, "/tenants/alice/jobs", JOB)
        _, text = get(server, "/metrics", headers={"Accept": "text/plain"})
        assert isinstance(text, str)
        assert 'scan_service_queue_depth{tenant="alice"}' in text


class TestWorkerApi:
    def test_pop_finish_cycle(self, server):
        _, submitted = post(server, "/tenants/alice/jobs", JOB)
        _, popped = post(server, "/pop", {})
        assert popped["job"]["uid"] == submitted["job"]["uid"]
        _, empty = post(server, "/pop", {})
        assert empty["job"] is None
        _, finished = post(
            server, "/finish", {"uid": popped["job"]["uid"]}
        )
        assert finished["outcome"] == "completed"

    def test_finish_unknown_uid_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/finish", {"uid": "ghost"})
        assert err.value.code == 404
        assert error_body(err.value)["code"] == "not_found"

    def test_drain_runs_jobs_to_completion(self, server):
        _, submitted = post(server, "/tenants/alice/jobs", JOB)
        uid = submitted["job"]["uid"]
        _, drained = post(server, "/drain", {})
        assert drained["outcomes"] == {uid: "completed"}
        assert drained["queued"] == 0 and drained["in_flight"] == 0
        _, state = get(server, "/service/state")
        assert state["finished"] == {"completed": 1}
        assert state["accepted"] == 1

    def test_drain_validation(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/drain", {"max_jobs": 0})
        assert err.value.code == 400
        # A non-numeric "until" is a 400 bad_request, not a 500 internal.
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/drain", {"until": "bogus"})
        assert err.value.code == 400
        assert error_body(err.value)["code"] == "bad_request"


class TestErrorContract:
    def test_unknown_route_stays_400_with_code(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/nope")
        assert err.value.code == 400
        assert error_body(err.value)["code"] == "bad_route"

    def test_bad_json_code(self, server):
        req = urllib.request.Request(
            f"{server.address}/pop", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert error_body(err.value)["code"] == "bad_json"

    def test_non_object_body_rejected(self, server):
        req = urllib.request.Request(
            f"{server.address}/pop", data=b"[1, 2]",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_oversize_body_is_413_without_reading(self, server):
        big = json.dumps({"pad": "x" * 8192}).encode()
        req = urllib.request.Request(
            f"{server.address}/tenants/alice/jobs", data=big,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 413
        assert error_body(err.value)["code"] == "payload_too_large"

    def test_tenant_routes_without_plane_are_404(self):
        platform = SCANPlatform(PlatformConfig.paper_defaults())
        platform.bootstrap_knowledge()
        rpc = ScanRpcServer(platform, port=0)
        rpc.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                post(rpc, "/pop", {})
            assert err.value.code == 404
            assert error_body(err.value)["code"] == "not_found"
        finally:
            rpc.stop()
