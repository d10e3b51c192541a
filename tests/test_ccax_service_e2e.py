"""External-CCA peer-conformance campaigns through the full service.

The zero-core-edit acceptance test: a third-party CCA defined in a user
module (registered via ``repro.ccax`` only — no edit to any core
package) runs a complete peer-conformance campaign through submit ->
schedule -> exec -> store -> SSE -> SVG, and an identical resubmission
is served entirely from the warehouse.
"""

import urllib.request

import pytest

from repro.service import ServiceApp, ServiceClient

#: A deliberately lazy NewReno variant: same machinery, half the
#: additive increase — distinct enough to earn its own behaviour, built
#: entirely from public APIs.
EXTERNAL_MODULE = '''\
"""A third-party CCA registered with zero core edits."""

from repro.cca.reno import NewReno
from repro.ccax import CCACapabilities, register_congestion_control


class LazyReno(NewReno):
    name = "lazyreno"

    def on_ack(self, event):
        super().on_ack(event)
        if not self.in_slow_start:
            self._cwnd -= event.bytes_acked * self.mss // (2 * self._cwnd)


def make_lazyreno(mss):
    return LazyReno(mss)


register_congestion_control(
    "lazyreno",
    make_lazyreno,
    CCACapabilities(
        family="loss-based",
        description="NewReno at half additive increase (test fixture)",
    ),
    replace=True,
)
'''


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("ccax-service")
    module_path = root / "lazy_cca.py"
    module_path.write_text(EXTERNAL_MODULE)
    app = ServiceApp(str(root / "store.db"), workers=1, max_pending=16)
    app.start()
    client = ServiceClient(app.url, timeout_s=30.0)
    try:
        yield app, client, module_path
    finally:
        app.stop(drain=False)
        from repro.ccax import registry

        registry.unregister("lazyreno")


def peer_spec(module_path):
    return {
        "kind": "peer_conformance",
        "peers": ["lazyreno", "cubic", "gcc"],
        "cca_modules": [str(module_path)],
        "conditions": [{"bandwidth_mbps": 8, "rtt_ms": 20, "buffer_bdp": 0.6}],
        "duration_s": 4,
        "trials": 2,
        "run": "ext-peer",
    }


def test_external_cca_full_pipeline(service):
    app, client, module_path = service
    accepted = client.submit(peer_spec(module_path))
    final = client.wait(accepted["id"], timeout_s=600)
    assert final["state"] == "done"
    assert final["progress"]["done"] == final["progress"]["total"] > 0

    # Store: pair rows name the external peer on both axes.
    rows = client.metrics("ext-peer")
    pair = [r for r in rows if r["variant"] == "peer"]
    assert {r["stack"] for r in pair} == {"lazyreno", "cubic", "gcc"}
    scores = {
        r["stack"]: r["value"]
        for r in rows
        if r["metric"] == "peer_score"
    }
    assert set(scores) == {"lazyreno", "cubic", "gcc"}
    assert all(0.0 <= v <= 1.0 for v in scores.values())

    # SSE: the event stream tells the whole story, terminal frame last.
    events = list(client.stream(final["id"]))
    assert any(e["event"] == "trial" for e in events)
    assert events[-1]["event"] == "state" and events[-1]["state"] == "done"

    # Viz: the peer-matrix SVG panel renders for the run.
    with urllib.request.urlopen(
        f"{app.url}/runs/ext-peer/peer-matrix.svg", timeout=30
    ) as response:
        assert "image/svg+xml" in response.headers["Content-Type"]
        svg = response.read().decode()
    assert "<svg" in svg[:200]
    assert "lazyreno" in svg


def test_identical_resubmission_fully_cache_served(service):
    _, client, module_path = service
    again = client.submit(peer_spec(module_path))
    refinal = client.wait(again["id"], timeout_s=600)
    assert refinal["state"] == "done"
    statuses = refinal["trial_statuses"]
    assert statuses.get("ok", 0) == 0
    assert statuses.get("cached", 0) == refinal["progress"]["total"] > 0


def test_peer_matrix_svg_missing_run_is_404(service):
    app, _, _ = service
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(
            f"{app.url}/runs/no-such-run/peer-matrix.svg", timeout=30
        )
    assert err.value.code == 404
