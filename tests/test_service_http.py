"""End-to-end HTTP tests: ServiceApp + ServiceClient over a real socket.

The acceptance test of the service: a campaign submitted through the
HTTP API must produce metrics *bit-identical* to the same campaign run
directly through :func:`repro.harness.matrix.run_matrix`, and a second
identical submission must complete with zero new simulations (every
trial served from the warehouse by its content-addressed key).
"""

import socket
import time

import pytest

from repro.exec import Executor
from repro.harness.cache import ResultCache
from repro.harness.matrix import run_matrix
from repro.service import ServiceApp, ServiceClient, ServiceError
from repro.service.router import MAX_BODY_BYTES
from repro.service.specs import parse_campaign_spec
from repro.store import ResultStore

#: Two stacks, one condition, short protocol: a few seconds of simulation.
E2E_SPEC = {
    "kind": "matrix",
    "stacks": ["quiche", "xquic"],
    "ccas": ["cubic"],
    "conditions": [{"bandwidth_mbps": 8, "rtt_ms": 20, "buffer_bdp": 0.6}],
    "duration_s": 3,
    "trials": 2,
    "run": "svc-e2e",
}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One app + client shared by the module (campaigns accumulate)."""
    root = tmp_path_factory.mktemp("service")
    app = ServiceApp(str(root / "store.db"), workers=1, max_pending=16)
    app.start()
    client = ServiceClient(app.url, timeout_s=30.0)
    try:
        yield app, client
    finally:
        app.stop(drain=False)


def metric_map(rows):
    """(stack, cca, variant, condition, metric) -> value, from JSON rows."""
    out = {}
    for row in rows:
        key = (row["stack"], row["cca"], row["variant"], row["condition"],
               row["metric"])
        assert key not in out, f"duplicate metric row {key}"
        out[key] = row["value"]
    return out


def test_healthz(service):
    _, client = service
    health = client.health()
    assert health["status"] == "ok"
    assert "queue_depth" in health


def test_e2e_metrics_bit_identical_and_second_submission_cached(
    service, tmp_path
):
    app, client = service
    accepted = client.submit(E2E_SPEC)
    assert accepted["state"] in ("pending", "running")
    final = client.wait(accepted["id"], timeout_s=600)
    assert final["state"] == "done"
    assert final["progress"]["done"] == final["progress"]["total"] > 0

    via_service = metric_map(client.metrics("svc-e2e"))
    assert via_service

    # The same campaign, run directly through the harness with a private
    # cache that has never seen the service's results.
    spec = parse_campaign_spec(E2E_SPEC)
    with ResultStore(str(tmp_path / "direct.db")) as direct_store:
        run_matrix(
            conditions=spec.resolved_conditions(),
            implementations=spec.implementations(),
            config=spec.experiment_config(),
            executor=Executor(cache=ResultCache()),
            store=direct_store,
            store_run="direct",
        )
        direct_rows = [
            {
                "stack": r.stack, "cca": r.cca, "variant": r.variant,
                "condition": r.condition, "metric": r.metric,
                "value": r.value,
            }
            for r in direct_store.query(run="direct")
        ]
    direct = metric_map(direct_rows)
    assert via_service == direct  # bit-identical floats, key for key

    # Second identical submission: every trial is served from the
    # warehouse by its content-addressed key — zero new simulations.
    again = client.submit(E2E_SPEC)
    refinal = client.wait(again["id"], timeout_s=600)
    assert refinal["state"] == "done"
    statuses = refinal["trial_statuses"]
    assert statuses.get("ok", 0) == 0
    assert statuses.get("cached", 0) == refinal["progress"]["total"] > 0


def test_event_stream_tells_the_whole_story(service):
    _, client = service
    campaigns = client.campaigns()
    done = [c for c in campaigns if c["state"] == "done"]
    assert done, "expected a finished campaign from the e2e test"
    events = list(client.stream(done[0]["id"]))
    kinds = [e["event"] for e in events]
    assert kinds.count("state") >= 3  # pending -> running -> done
    assert any(e["event"] == "trial" for e in events)
    assert events[-1]["event"] == "state"
    assert events[-1]["state"] == "done"
    # Every event carries a monotonically increasing sequence number.
    assert [e["seq"] for e in events] == list(range(len(events)))


def test_sse_stream(service):
    import urllib.request

    app, client = service
    done = [c for c in client.campaigns() if c["state"] == "done"][0]
    with urllib.request.urlopen(
        f"{app.url}/campaigns/{done['id']}/events?stream=1", timeout=30
    ) as response:
        assert "text/event-stream" in response.headers["Content-Type"]
        body = response.read().decode()
    assert "data: " in body
    assert "event: end" in body  # terminal frame carries the snapshot


def test_run_endpoints(service):
    _, client = service
    runs = {r["name"]: r for r in client.runs()}
    assert "svc-e2e" in runs
    assert runs["svc-e2e"]["metrics"] > 0
    assert runs["svc-e2e"]["trials"] > 0

    csv_text = client.metrics("svc-e2e", fmt="csv")
    header, *rows = csv_text.strip().splitlines()
    assert header.split(",")[:4] == ["run", "stack", "cca", "variant"]
    assert rows

    filtered = client.metrics("svc-e2e", metric="conf", stack="quiche")
    assert filtered and all(
        r["metric"] == "conf" and r["stack"] == "quiche" for r in filtered
    )

    diff = client.diff("svc-e2e", "svc-e2e")
    assert diff["clean"] is True and diff["compared"] > 0

    svg = client.heatmap_svg("svc-e2e")
    assert svg.lstrip().startswith("<")
    assert "svg" in svg[:200]


def test_prometheus_exposition(service):
    _, client = service
    text = client.metrics_text()
    assert "# TYPE repro_queue_depth gauge" in text
    assert "repro_campaigns_running" in text
    assert 'repro_campaigns_total{state="done"}' in text
    assert "repro_trials_per_second" in text
    assert "repro_cache_hit_rate" in text
    assert 'repro_store_rows{table="trials"}' in text


def test_invalid_spec_is_400(service):
    _, client = service
    with pytest.raises(ServiceError) as err:
        client.submit({"kind": "matrix", "stacks": ["nosuch"]})
    assert err.value.status == 400
    assert "unknown stack" in str(err.value)
    with pytest.raises(ServiceError) as err:
        client.submit({"kind": "matrix", "priority": "high"})
    assert err.value.status == 400


def test_unknown_resources_are_404(service):
    _, client = service
    for call in (
        lambda: client.status("nope"),
        lambda: client.events("nope"),
        lambda: client.metrics("no-such-run"),
        lambda: client.diff("no-such-run", "svc-e2e"),
        lambda: client.heatmap_svg("no-such-run"),
        lambda: client.cancel("nope"),
        lambda: client._request("GET", "/not/a/resource"),
    ):
        with pytest.raises(ServiceError) as err:
            call()
        assert err.value.status == 404


def _post_raw(address, length, body=b"", until_close=True):
    """POST /campaigns over a raw socket with a hand-written
    Content-Length; return the reply up to the server closing the
    connection (or only the first read when ``until_close`` is off)."""
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(
            b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + length + b"\r\n\r\n" + body
        )
        chunks = [sock.recv(65536)]
        while until_close and chunks[-1]:
            chunks.append(sock.recv(65536))
    return b"".join(chunks).decode()


def test_malformed_request_bodies(service):
    """Every bad body gets an answer, never a hang or a dropped socket;
    a rejected Content-Length also closes the connection, because the
    body it announced is never read."""
    too_large = str(MAX_BODY_BYTES + 1).encode()
    app, _ = service
    head = _post_raw(app.address, b"9", b"not-json!", until_close=False)
    assert head.startswith("HTTP/1.1 400")
    for length, status in ((b"abc", 400), (b"-1", 400), (too_large, 413)):
        reply = _post_raw(app.address, length)
        assert reply.startswith(f"HTTP/1.1 {status}"), (length, reply)
        assert "Connection: close" in reply


def test_cancel_terminal_campaign_is_409(service):
    _, client = service
    done = [c for c in client.campaigns() if c["state"] == "done"][0]
    with pytest.raises(ServiceError) as err:
        client.cancel(done["id"])
    assert err.value.status == 409


def test_backpressure_429_with_retry_after(tmp_path):
    # workers=0: nothing drains, so the bounded queue fills immediately.
    app = ServiceApp(
        str(tmp_path / "store.db"), workers=0, max_pending=1, resume=False
    )
    app.start()
    try:
        client = ServiceClient(app.url)
        client.submit(E2E_SPEC)
        with pytest.raises(ServiceError) as err:
            client.submit(E2E_SPEC)
        assert err.value.status == 429
        assert err.value.retry_after_s >= 1
        # submit_blocking gives up once the deadline passes.
        start = time.monotonic()
        with pytest.raises(ServiceError):
            client.submit_blocking(E2E_SPEC, give_up_after_s=0.1)
        assert time.monotonic() - start < 30
    finally:
        app.stop(drain=False)
