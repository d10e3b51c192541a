"""The fabric's HTTP surface: a ``ServiceApp`` backed by a Coordinator.

``repro fabric serve`` runs the same threaded ``ServiceApp`` as the
single-process service, with a :class:`~repro.fabric.coordinator.Coordinator`
as its scheduler.  These tests drive that app over a real socket with
one in-process worker draining the queue: submit/long-poll/SSE, the
fabric worker protocol, the fabric Prometheus series, client
reconnects, malformed requests and connection reuse.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.fabric.coordinator import Coordinator
from repro.fabric.worker import LocalTransport, worker_threads
from repro.faults.retry import RetryPolicy
from repro.service import ServiceApp, ServiceClient, ServiceError

TINY = {
    "kind": "conformance",
    "stacks": ["xquic"],
    "ccas": ["cubic"],
    "duration_s": 3,
    "trials": 2,
    "run": "fabric-http",
}

#: While set, the fixture's resident worker takes no leases.
RESIDENT_IDLE = threading.Event()


class _ResidentTransport(LocalTransport):
    def lease(self, *args, **kwargs):
        if RESIDENT_IDLE.is_set():
            return None
        return super().lease(*args, **kwargs)


@pytest.fixture(scope="module")
def fabric(tmp_path_factory):
    """ServiceApp over a coordinator, one local worker draining the queue."""
    root = tmp_path_factory.mktemp("fabric")
    coordinator = Coordinator(str(root / "store.db"), lease_ttl_s=5.0)
    coordinator.ensure_tenant("teamA", weight=2)
    app = ServiceApp(coordinator.store_path, scheduler=coordinator)
    app.start()
    try:
        with worker_threads(
            coordinator, ["http-worker"], ttl_s=5.0,
            transport=_ResidentTransport,
        ):
            yield app, ServiceClient(app.url, timeout_s=30.0)
    finally:
        app.stop(drain=False)


def test_healthz_and_keepalive(fabric):
    app, client = fabric
    assert client.health()["status"] == "ok"
    # Two requests down one kept-alive connection.
    conn = http.client.HTTPConnection(*app.address, timeout=10.0)
    try:
        for _ in range(2):
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
    finally:
        conn.close()


def test_submit_longpoll_and_wait(fabric):
    _, client = fabric
    accepted = client.submit(TINY, tenant="teamA")
    assert accepted["state"] in ("pending", "running")
    page = client.events(accepted["id"], after=0, timeout_s=5.0)
    assert page["events"], "long-poll returned no events"
    assert page["next"] >= len(page["events"])
    final = client.wait(accepted["id"], timeout_s=120.0)
    assert final["state"] == "done"
    assert final["progress"]["done"] == final["progress"]["total"] > 0
    assert client.metrics("fabric-http")


def test_sse_stream_ends_with_final_snapshot(fabric):
    app, client = fabric
    accepted = client.submit(dict(TINY, note="sse"))
    conn = http.client.HTTPConnection(*app.address, timeout=60.0)
    try:
        conn.request(
            "GET",
            f"/campaigns/{accepted['id']}/events?stream=1",
            headers={"Accept": "text/event-stream"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert "text/event-stream" in response.getheader("Content-Type")
        body = b""
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            chunk = response.read(256)
            if not chunk:
                break
            body += chunk
            tail = body.split(b"event: end")
            if len(tail) > 1 and b"\n\n" in tail[-1]:
                break  # the final frame arrived in full
        text = body.decode()
        assert "event: end" in text
        assert '"state": "done"' in text.split("event: end")[-1]
    finally:
        conn.close()


def test_fabric_worker_protocol_over_http(fabric):
    _, client = fabric
    status = client.fabric_status()
    assert "depth" in status and "tenants" in status
    # Keep the resident worker off the queue so the probe wins the lease.
    RESIDENT_IDLE.set()
    try:
        accepted = client.submit(dict(TINY, note="protocol"))
        lease = client.fabric_lease("http-probe", ttl_s=30.0)
    finally:
        RESIDENT_IDLE.clear()
    assert lease is not None and lease["campaign"] == accepted["id"]
    beat = client.fabric_heartbeat(
        lease["campaign"],
        lease["lease_id"],
        ttl_s=30.0,
        progress=[{"event": "trial", "status": "ok", "done": 1, "total": 4}],
    )
    assert beat["ok"] is True
    # Hand the campaign back; the resident worker finishes it for real.
    outcome = client.fabric_fail(
        lease["campaign"], lease["lease_id"], "probe done", retryable=True
    )
    assert outcome["outcome"] == "retried"
    final = client.wait(accepted["id"], timeout_s=120.0)
    assert final["state"] == "done"


def test_prometheus_exposes_fabric_series(fabric):
    _, client = fabric
    text = client.metrics_text()
    assert "repro_fabric_queue_depth" in text
    assert 'repro_fabric_tenant_backlog{tenant="teamA"}' in text


def test_unknown_routes_and_campaigns_404(fabric):
    _, client = fabric
    with pytest.raises(ServiceError) as err:
        client.request("GET", "/no/such/route")
    assert err.value.status == 404
    with pytest.raises(ServiceError) as err:
        client.status("c9999-missing")
    assert err.value.status == 404


def test_malformed_json_body_is_400(fabric):
    app, _ = fabric
    with socket.create_connection(app.address, timeout=10.0) as sock:
        payload = b"not-json!"
        sock.sendall(
            b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(payload)).encode() + b"\r\n\r\n"
            + payload
        )
        head = sock.recv(4096).decode()
    assert head.startswith("HTTP/1.1 400")


def test_client_reconnects_through_retry_policy(fabric):
    """Dropped long-polls (status 0) reconnect via the unified
    RetryPolicy with the cursor intact — no event lost or doubled."""
    app, _ = fabric
    client = ServiceClient(
        app.url,
        timeout_s=30.0,
        reconnect=RetryPolicy(
            max_attempts=10, backoff_s=0.01, backoff_cap_s=0.01,
            sleep=lambda s: None,
        ),
    )
    accepted = client.submit(dict(TINY, note="reconnect"))
    real_request = client._request
    drops = {"left": 2}

    def flaky(method, path, **kwargs):
        if "/events" in path and drops["left"] > 0:
            drops["left"] -= 1
            raise ServiceError(0, "connection failed: injected reset")
        return real_request(method, path, **kwargs)

    client._request = flaky
    events = list(client.stream(accepted["id"]))
    assert drops["left"] == 0, "the injected drops were never exercised"
    assert any(e.get("event") == "state" for e in events)
    seqs = [e["seq"] for e in events if "seq" in e]
    assert seqs == sorted(set(seqs)), "reconnect lost or duplicated events"
    assert client.status(accepted["id"])["state"] == "done"
