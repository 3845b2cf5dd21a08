import random

import pytest

from dcl.graphs import Graph, GraphError, GraphMorphism, compose, identity
from dcl.instances import (
    Delta,
    IndexedSemantics,
    SliceMorphism,
    TypedInstance,
    _canonical_delta,
    canonical_restriction,
    cod_lift,
    compose_delta,
    delta_of,
    deltas_equivalent,
    dom_lift,
    find_instance_isomorphism,
    from_indexed,
    identity_delta,
    iter_slice_morphisms,
    iter_typed_instances,
    restrict,
    to_indexed,
)
from dcl.randgen import random_graph, random_morphism_into, random_typed_instance


def schema():
    return Graph.build(["A", "B"], [("r", "A", "B")])


def small_instance():
    return TypedInstance.build(
        schema(),
        Graph.build(["a1", "a2", "b1"], [("l1", "a1", "b1"), ("l2", "a2", "b1")]),
        {"a1": "A", "a2": "A", "b1": "B"},
        {"l1": "r", "l2": "r"},
    )


class TestTypedInstance:
    def test_fibers(self):
        t = small_instance()
        assert t.typing.node_fibres()["A"] == ["a1", "a2"]
        assert [a.id for a in t.typing.arrow_fibres()["r"]] == ["l1", "l2"]

    def test_typing_must_be_morphism(self):
        with pytest.raises(GraphError):
            TypedInstance.build(
                schema(), Graph.build(["x", "y"], [("e", "x", "y")]),
                {"x": "B", "y": "A"}, {"e": "r"},
            )

    def test_json_roundtrip(self):
        t = small_instance()
        back = TypedInstance.from_json(t.to_json())
        assert back == t


class TestCanonicalInstance:
    def test_iso_invariance_respects_typing(self):
        t = small_instance()
        # relabel elements; same structure
        u = TypedInstance.build(
            schema(),
            Graph.build(["p", "q", "z"], [("m1", "p", "z"), ("m2", "q", "z")]),
            {"p": "A", "q": "A", "z": "B"},
            {"m1": "r", "m2": "r"},
        )
        assert canonical_restriction(t) == canonical_restriction(u)

    def test_distinguishes_different_typing(self):
        s = Graph.build(["A", "B"], [("r", "A", "B"), ("s", "A", "B")])
        c = Graph.build(["a", "b"], [("l", "a", "b")])
        t1 = TypedInstance.build(s, c, {"a": "A", "b": "B"}, {"l": "r"})
        t2 = TypedInstance.build(s, c, {"a": "A", "b": "B"}, {"l": "s"})
        assert canonical_restriction(t1) != canonical_restriction(t2)

    def test_relabeling_commutes_with_typing(self):
        # the renaming `_canonical_delta` takes from the canonical instance
        t = small_instance()
        back = _canonical_delta(identity_delta(t)).left.map
        assert back.is_bijective and back.dom == canonical_restriction(t).carrier
        assert compose(back, t.typing) == canonical_restriction(t).typing

    def test_random_relabel_same_bytes(self):
        rng = random.Random(11)
        for _ in range(20):
            s = random_graph(rng, 3, 3)
            t = random_typed_instance(rng, s)
            perm = list(t.carrier.sorted_nodes)
            rng.shuffle(perm)
            node_map = dict(zip(t.carrier.sorted_nodes, perm))
            arrows = [
                (f"x{a.id}", node_map[a.src], node_map[a.tgt])
                for a in t.carrier.sorted_arrows
            ]
            u = TypedInstance.build(
                s,
                Graph.build(perm, arrows),
                {node_map[n]: t.typing.node_map[n] for n in t.carrier.nodes},
                {f"x{a.id}": t.typing.arrow_map[a.id] for a in t.carrier.sorted_arrows},
            )
            assert canonical_restriction(t) == canonical_restriction(u)


class TestSliceMorphisms:
    def test_must_commute_with_typing(self):
        s = schema()
        t1 = TypedInstance.build(s, Graph.build(["a"]), {"a": "A"}, {})
        t2 = TypedInstance.build(s, Graph.build(["b"]), {"b": "B"}, {})
        with pytest.raises(GraphError):
            SliceMorphism(t1, t2, GraphMorphism(t1.carrier, t2.carrier, {"a": "b"}, {}))

    def test_enumeration_respects_fibers(self):
        t = small_instance()
        single = TypedInstance.build(schema(), Graph.build(["a"]), {"a": "A"}, {})
        maps = list(iter_slice_morphisms(single, t))
        assert sorted(m.map.node_map["a"] for m in maps) == ["a1", "a2"]

    def test_find_instance_isomorphism(self):
        t = small_instance()
        iso = find_instance_isomorphism(t, canonical_restriction(t))
        assert iso is not None and iso.map.is_bijective


class TestRestriction:
    def test_projection_commutes(self):
        t = small_instance()
        m = GraphMorphism(Graph.build(["X"]), schema(), {"X": "A"}, {})
        lift = cod_lift(t, m)
        restricted, p = lift.lifted, lift.carrier_map
        assert compose(p, t.typing) == compose(restricted.typing, m)

    def test_node_inclusion_keeps_fiber(self):
        t = small_instance()
        m = GraphMorphism(Graph.build(["X"]), schema(), {"X": "A"}, {})
        restricted = restrict(t, m)
        assert len(restricted.carrier.nodes) == 2
        assert len(restricted.carrier.arrows) == 0

    def test_restrict_along_identity_preserves_shape(self):
        t = small_instance()
        restricted = restrict(t, identity(schema()))
        assert canonical_restriction(restricted) == canonical_restriction(t)

    def test_pasting(self):
        # restriction along a composite equals iterated restriction, up to iso
        rng = random.Random(12)
        for _ in range(20):
            g2 = random_graph(rng, 4, 4)
            f2 = random_morphism_into(rng, g2, 3, 3)
            f1 = random_morphism_into(rng, f2.dom, 3, 3)
            t = random_typed_instance(rng, g2)
            once = restrict(t, compose(f1, f2))
            twice = restrict(restrict(t, f2), f1)
            assert canonical_restriction(once) == canonical_restriction(twice)


class TestIndexedRoundtrip:
    def test_roundtrip_instance(self):
        rng = random.Random(13)
        for _ in range(30):
            s = random_graph(rng, 3, 4)
            t = random_typed_instance(rng, s)
            back = from_indexed(to_indexed(t))
            iso = find_instance_isomorphism(t, back)
            assert iso is not None

    def test_roundtrip_indexed(self):
        ix = IndexedSemantics(
            schema(),
            {"A": frozenset({"a1"}), "B": frozenset({"b1", "b2"})},
            {"r": frozenset({("l1", "a1", "b1")})},
        )
        assert to_indexed(from_indexed(ix)) == ix

    def test_rejects_dangling_link(self):
        with pytest.raises(GraphError):
            IndexedSemantics(
                schema(),
                {"A": frozenset({"a1"}), "B": frozenset()},
                {"r": frozenset({("l1", "a1", "b9")})},
            )

    def test_rejects_global_id_clash(self):
        with pytest.raises(GraphError):
            IndexedSemantics(
                schema(),
                {"A": frozenset({"e"}), "B": frozenset({"e"})},
                {"r": frozenset()},
            )


class TestDeltas:
    def _random_delta(self, rng, s, target=None):
        apex = random_typed_instance(rng, s, 2, 3)
        # build legs by mapping apex into two instances that extend it
        src = apex
        tgt = target if target is not None else random_typed_instance(rng, s, 2, 3)
        legs_to_tgt = list(iter_slice_morphisms(apex, tgt))
        if not legs_to_tgt:
            return None
        return Delta(SliceMorphism.identity(apex), legs_to_tgt[0])

    def test_identity_units(self):
        rng = random.Random(14)
        for _ in range(10):
            s = random_graph(rng, 3, 3)
            d = self._random_delta(rng, s)
            if d is None:
                continue
            left_unit = compose_delta(identity_delta(d.source), d)
            right_unit = compose_delta(d, identity_delta(d.target))
            assert deltas_equivalent(left_unit, d)
            assert deltas_equivalent(right_unit, d)

    def test_associative_up_to_iso(self):
        rng = random.Random(15)
        checked = 0
        while checked < 10:
            s = random_graph(rng, 3, 3)
            d1 = self._random_delta(rng, s)
            if d1 is None:
                continue
            d2 = self._random_delta(rng, s, target=None)
            if d2 is None or d2.source != d1.target:
                # rebuild d2 starting from d1's target
                apex = d1.target
                tgt = random_typed_instance(rng, s, 2, 3)
                legs = list(iter_slice_morphisms(apex, tgt))
                if not legs:
                    continue
                d2 = Delta(SliceMorphism.identity(apex), legs[0])
            d3 = self._random_delta(rng, s, target=None)
            apex = d2.target
            tgt = random_typed_instance(rng, s, 2, 3)
            legs = list(iter_slice_morphisms(apex, tgt))
            if not legs:
                continue
            d3 = Delta(SliceMorphism.identity(apex), legs[0])
            left = compose_delta(compose_delta(d1, d2), d3)
            right = compose_delta(d1, compose_delta(d2, d3))
            assert deltas_equivalent(left, right)
            checked += 1

    def test_delta_of_directions(self):
        t = small_instance()
        single = TypedInstance.build(schema(), Graph.build(["a"]), {"a": "A"}, {})
        f = next(iter_slice_morphisms(single, t))
        fwd = delta_of(f, "forward")
        bwd = delta_of(f, "backward")
        assert fwd.source == single and fwd.target == t
        assert bwd.source == t and bwd.target == single

    def test_json_roundtrip(self):
        t = small_instance()
        d = identity_delta(t)
        assert deltas_equivalent(Delta.from_json(d.to_json()), d)

    def test_endpoints_are_read_from_the_legs(self):
        t = small_instance()
        single = TypedInstance.build(schema(), Graph.build(["a"]), {"a": "A"}, {})
        f = next(iter_slice_morphisms(single, t))
        d = Delta(SliceMorphism.identity(single), f)
        assert (d.apex, d.source, d.target) == (single, single, t)

    def test_legs_from_different_apexes_refused(self):
        t = small_instance()
        single = TypedInstance.build(schema(), Graph.build(["a"]), {"a": "A"}, {})
        f = next(iter_slice_morphisms(single, t))
        with pytest.raises(GraphError, match="different apexes"):
            Delta(SliceMorphism.identity(t), f)


class TestLifts:
    def test_cod_lift_commutes(self):
        t = small_instance()
        q = GraphMorphism(Graph.build(["X"]), schema(), {"X": "A"}, {})
        lift = cod_lift(t, q)
        assert compose(lift.carrier_map, t.typing) == compose(lift.lifted.typing, q)

    def test_cod_lift_factorization_unique(self):
        # Cartesianness: any commuting competitor factors uniquely through the lift
        t = small_instance()
        q = GraphMorphism(Graph.build(["X"]), schema(), {"X": "A"}, {})
        lift = cod_lift(t, q)
        z = TypedInstance.build(Graph.build(["X"]), Graph.build(["z"]), {"z": "X"}, {})
        for comp in iter_slice_morphisms(z, lift.lifted):
            competitors = [
                u
                for u in iter_slice_morphisms(z, lift.lifted)
                if compose(u.map, lift.carrier_map) == compose(comp.map, lift.carrier_map)
            ]
            assert competitors == [comp] or len(competitors) == 1

    def test_dom_lift(self):
        t = small_instance()
        sub = Graph.build(["a1"])
        p = GraphMorphism(sub, t.carrier, {"a1": "a1"}, {})
        f = dom_lift(t, p)
        assert f.from_.carrier == sub and f.to == t


class TestEnumeration:
    def test_counts_single_arrow(self):
        s = schema()
        n = sum(1 for _ in iter_typed_instances(s, 1, 1))
        # sizes (a,b) in {0,1}^2; links only when a=b=1: 0 or 1 -> 5 total
        assert n == 5

    def test_all_well_typed(self):
        s = Graph.build(["A", "B"], [("r", "A", "B"), ("s", "B", "B")])
        for t in iter_typed_instances(s, 2, 1):
            assert t.schema == s
