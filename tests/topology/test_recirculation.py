"""Tests for the recirculation operator: scalar/array parity, edits."""

import json

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import (
    Position,
    RecirculationEdge,
    RecirculationOperator,
    Topology,
    Zone,
    grid_topology,
)


def room():
    return grid_topology(30, zones=3, machines_per_rack=5)


def random_exhaust(topology, seed=7):
    rng = np.random.default_rng(seed)
    values = 30.0 + 10.0 * rng.random(len(topology.machines))
    mapping = dict(zip(topology.machines, values.tolist()))
    return values, mapping


class TestEvaluation:
    def test_scalar_matches_array_bitwise(self):
        topo = room()
        op = RecirculationOperator(topo)
        arr, mapping = random_exhaust(topo)
        vec = op.inlets_array(arr)
        for i, name in enumerate(topo.machines):
            # Bitwise: both paths add supply first, then edges in
            # topology edge order.
            assert op.inlet(name, mapping) == vec[i]

    def test_convex_mix(self):
        zones = [Zone("z", 20.0)]
        topo = Topology(
            ["a", "b"], zones,
            {"a": Position("z", 0, 0), "b": Position("z", 0, 1)},
            [RecirculationEdge("a", "b", 0.25)],
        )
        op = RecirculationOperator(topo)
        # a sees pure supply; b mixes 75% supply with 25% of a's exhaust.
        assert op.inlet("a", {"a": 40.0, "b": 40.0}) == 20.0
        assert op.inlet("b", {"a": 40.0, "b": 99.0}) == pytest.approx(
            0.75 * 20.0 + 0.25 * 40.0
        )

    def test_no_edges(self):
        topo = grid_topology(5, zones=1, machines_per_rack=5,
                             intra_rack=0.0, cross_rack=0.0)
        op = RecirculationOperator(topo)
        vec = op.inlets_array(np.full(5, 50.0))
        assert np.array_equal(vec, np.full(5, 21.6))


class TestEdits:
    def test_supply_override(self):
        topo = room()
        op = RecirculationOperator(topo)
        arr, mapping = random_exhaust(topo)
        before = op.inlets_array(arr).copy()
        op.set_supply("zone0", 30.0)
        after = op.inlets_array(arr)
        assert op.supply_temperature("zone0") == 30.0
        members = set(topo.zone_members()["zone0"])
        for i, name in enumerate(topo.machines):
            if name in members:
                assert after[i] > before[i]
            else:
                assert after[i] == before[i]
        with pytest.raises(TopologyError, match="unknown zone"):
            op.set_supply("atlantis", 25.0)

    def test_weight_edit(self):
        topo = room()
        op = RecirculationOperator(topo)
        edge = topo.recirculation[0]
        op.set_weight(edge.src, edge.dst, 0.2)
        assert op.weight(edge.src, edge.dst) == 0.2
        arr, mapping = random_exhaust(topo)
        # Scalar and vectorized stay bitwise equal after the edit.
        vec = op.inlets_array(arr)
        i = op.index[edge.dst]
        assert op.inlet(edge.dst, mapping) == vec[i]

    def test_weight_edit_validation(self):
        topo = room()
        op = RecirculationOperator(topo)
        edge = topo.recirculation[0]
        with pytest.raises(TopologyError, match="no recirculation edge"):
            op.set_weight("machine1", "machine1", 0.1)
        with pytest.raises(TopologyError, match=">= 0"):
            op.set_weight(edge.src, edge.dst, -0.5)
        with pytest.raises(TopologyError, match="sum to"):
            op.set_weight(edge.src, edge.dst, 1.5)


class TestCheckpoint:
    def test_round_trip_through_json(self):
        topo = room()
        op = RecirculationOperator(topo)
        edge = topo.recirculation[3]
        op.set_supply("zone1", 27.5)
        op.set_weight(edge.src, edge.dst, 0.11)
        data = json.loads(json.dumps(op.checkpoint()))
        clone = RecirculationOperator(topo)
        clone.restore(data)
        arr, _ = random_exhaust(topo)
        assert np.array_equal(op.inlets_array(arr), clone.inlets_array(arr))

    def test_restore_validates(self):
        topo = room()
        op = RecirculationOperator(topo)
        good = op.checkpoint()
        bad_zone = json.loads(json.dumps(good))
        bad_zone["supply_overrides"]["atlantis"] = 12.0
        with pytest.raises(TopologyError, match="unknown zone"):
            op.restore(bad_zone)
        bad_edge = json.loads(json.dumps(good))
        bad_edge["weights"]["ghost|machine1"] = 0.1
        with pytest.raises(TopologyError, match="unknown recirculation edge"):
            op.restore(bad_edge)
        missing = json.loads(json.dumps(good))
        missing["weights"].popitem()
        with pytest.raises(TopologyError, match="does not match"):
            op.restore(missing)
