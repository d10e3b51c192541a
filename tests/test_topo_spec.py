"""TopologySpec parsing, validation, and fingerprint identity."""

import json

import pytest

from repro.service.specs import SpecError, parse_campaign_spec
from repro.topo.spec import (
    SHAPES,
    FlowEntry,
    LinkEntry,
    TopologySpec,
    TopoSpecError,
    chain,
    dumbbell,
    load_topology_spec,
    parking_lot,
    parse_topology_spec,
)


def two_hop_payload(**overrides):
    payload = {
        "name": "two-hop",
        "links": [
            {"name": "access", "bandwidth_mbps": 24, "delay_ms": 5},
            {"name": "core", "bandwidth_mbps": 12, "delay_ms": 15,
             "queue_discipline": "codel"},
        ],
        "flows": [
            {"label": "f1", "stack": "linux", "cca": "cubic"},
            {"label": "f2", "stack": "quiche", "cca": "reno",
             "route": ["core"]},
        ],
        "start_spread_s": 0.25,
    }
    payload.update(overrides)
    return payload


class TestParsing:
    def test_round_trips_through_canonical(self):
        spec = parse_topology_spec(two_hop_payload())
        again = parse_topology_spec(spec.canonical())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_fingerprint_stable_across_key_order(self):
        payload = two_hop_payload()
        # Same document, every mapping's keys in reverse insertion order.
        def reorder(obj):
            if isinstance(obj, dict):
                return {k: reorder(obj[k]) for k in reversed(list(obj))}
            if isinstance(obj, list):
                return [reorder(v) for v in obj]
            return obj
        reordered = json.loads(json.dumps(reorder(payload)))
        assert list(reordered) != list(payload)
        assert (
            parse_topology_spec(reordered).fingerprint()
            == parse_topology_spec(payload).fingerprint()
        )

    def test_fingerprint_changes_with_content(self):
        base = parse_topology_spec(two_hop_payload())
        bumped = parse_topology_spec(
            two_hop_payload(start_spread_s=0.5)
        )
        assert base.fingerprint() != bumped.fingerprint()

    def test_unknown_fields_rejected(self):
        with pytest.raises(TopoSpecError, match="unknown"):
            parse_topology_spec(two_hop_payload(bogus=1))
        payload = two_hop_payload()
        payload["links"][0]["speed"] = 5
        with pytest.raises(TopoSpecError, match="speed"):
            parse_topology_spec(payload)
        payload = two_hop_payload()
        payload["flows"][0]["cwnd"] = 10
        with pytest.raises(TopoSpecError, match="cwnd"):
            parse_topology_spec(payload)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(two_hop_payload()))
        assert load_topology_spec(str(path)).name == "two-hop"
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(TopoSpecError, match="not valid JSON"):
            load_topology_spec(str(bad))


class TestValidation:
    def test_unroutable_route_rejected(self):
        payload = two_hop_payload()
        payload["flows"][1]["route"] = ["nowhere"]
        with pytest.raises(TopoSpecError, match="unroutable"):
            parse_topology_spec(payload)

    def test_cyclic_route_rejected(self):
        payload = two_hop_payload()
        payload["flows"][1]["route"] = ["core", "core"]
        with pytest.raises(TopoSpecError, match="cyclic"):
            parse_topology_spec(payload)
        payload = two_hop_payload()
        payload["flows"][1]["route"] = ["core", "access"]
        with pytest.raises(TopoSpecError, match="cyclic"):
            parse_topology_spec(payload)

    def test_duplicate_names_rejected(self):
        payload = two_hop_payload()
        payload["links"][1]["name"] = "access"
        with pytest.raises(TopoSpecError, match="duplicate"):
            parse_topology_spec(payload)
        payload = two_hop_payload()
        payload["flows"][1]["label"] = "f1"
        with pytest.raises(TopoSpecError, match="duplicate"):
            parse_topology_spec(payload)

    def test_unknown_implementations_rejected(self):
        with pytest.raises(TopoSpecError, match="unknown stack"):
            FlowEntry(label="f", stack="nope").validate(["l"])
        with pytest.raises(TopoSpecError, match="does not"):
            FlowEntry(label="f", stack="quiche", cca="bbr").validate(["l"])

    def test_unknown_discipline_rejected(self):
        with pytest.raises(TopoSpecError, match="queue discipline"):
            LinkEntry(name="l", queue_discipline="wfq").validate()

    def test_flow_lifetime_rejected(self):
        with pytest.raises(TopoSpecError, match="end_s"):
            FlowEntry(label="f", start_s=2.0, end_s=1.0).validate(["l"])

    def test_end_before_the_jittered_start_rejected(self):
        # With a 0.5 s start spread the flow may start as late as 1.5 s,
        # after its 1.2 s stop, and then it never sends a packet.
        payload = two_hop_payload(start_spread_s=0.5)
        payload["flows"][0].update(start_s=1.0, end_s=1.2)
        with pytest.raises(TopoSpecError, match="start_spread_s"):
            parse_topology_spec(payload)
        payload["flows"][0]["end_s"] = 1.6
        parse_topology_spec(payload)

    def test_empty_topology_rejected(self):
        with pytest.raises(TopoSpecError, match="link"):
            TopologySpec(name="x", links=(), flows=(
                FlowEntry(label="f"),
            )).validate()
        with pytest.raises(TopoSpecError, match="flow"):
            TopologySpec(name="x", links=(LinkEntry(name="l"),),
                         flows=()).validate()


class TestBuiltinShapes:
    def test_all_shapes_validate_and_differ(self):
        prints = set()
        for name, builder in SHAPES.items():
            spec = builder("cubic")
            spec.validate()
            prints.add(spec.fingerprint())
        assert len(prints) == len(SHAPES)

    def test_shapes_pick_stacks_supporting_the_cca(self):
        # quiche has no bbr; the builders must substitute, not explode.
        for builder in (dumbbell, chain, parking_lot):
            spec = builder("bbr")
            spec.validate()
            assert all(f.cca == "bbr" for f in spec.flows)

    def test_parking_lot_routes(self):
        spec = parking_lot("cubic")
        long_flow = spec.flows[0]
        assert long_flow.resolved_route(spec.link_names()) == tuple(
            spec.link_names()
        )
        for cross in spec.flows[1:]:
            assert len(cross.route) == 1


class TestCampaignSpecIntegration:
    def test_topology_kind_requires_topologies(self):
        with pytest.raises(SpecError, match="topologies"):
            parse_campaign_spec({"kind": "topology"})

    def test_topology_kind_rejects_matrix_fields(self):
        with pytest.raises(SpecError, match="must be empty"):
            parse_campaign_spec({
                "kind": "topology",
                "stacks": ["linux"],
                "topologies": [dumbbell("cubic").canonical()],
            })

    def test_topologies_rejected_on_other_kinds(self):
        with pytest.raises(SpecError, match="only valid"):
            parse_campaign_spec({
                "kind": "matrix",
                "topologies": [dumbbell("cubic").canonical()],
            })

    def test_invalid_topology_is_a_spec_error(self):
        doc = dumbbell("cubic").canonical()
        doc["links"][0]["queue_discipline"] = "wfq"
        with pytest.raises(SpecError, match=r"topologies\[0\]"):
            parse_campaign_spec({"kind": "topology", "topologies": [doc]})

    def test_campaign_canonical_round_trips(self):
        # The scheduler journals canonical() and resumes by re-parsing it.
        spec = parse_campaign_spec({
            "kind": "topology",
            "topologies": [dumbbell("cubic").canonical(),
                           chain("reno").canonical()],
            "duration_s": 4.0,
            "trials": 2,
            "run": "t",
        })
        again = parse_campaign_spec(spec.canonical())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_existing_kinds_keep_their_fingerprint(self):
        # The topologies field must not leak into non-topology canonical
        # docs, or every journaled campaign would re-fingerprint.
        spec = parse_campaign_spec({
            "kind": "matrix",
            "stacks": ["quiche"],
            "ccas": ["cubic"],
        })
        assert "topologies" not in spec.canonical()
