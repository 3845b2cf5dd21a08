import pytest

from dcl.fixtures import edge_pair_theory, outgoing_edge_theory
from dcl.graphs import Graph, GraphError, GraphMorphism, compose, identity
from dcl.injlogic import (
    Derivation,
    DerivationError,
    FormulaSet,
    InjTheory,
    as_slice,
    as_slice_morphism,
    axiom,
    bounded_entailment,
    cancel_derivation,
    compose_derivations,
    coproduct_macro,
    formulas_isomorphic,
    identity_formula,
    pushout_derivation,
    semantic_entails,
    slice_pushout,
    terminal_graph,
    verify_derivation,
)
from dcl.instances import SliceMorphism, TypedInstance, iter_slice_morphisms
from dcl.signature import check_injectivity
from dcl.verdicts import Status


def point_into_edge():
    s = Graph.build(["A"])
    q = Graph.build(["A", "B"], [("r", "A", "B")])
    return as_slice_morphism(GraphMorphism(s, q, {"A": "A"}, {}))


class TestInjectivity:
    def test_loop_graph_injective_for_out_edge(self):
        a = as_slice(Graph.build(["n"], [("l", "n", "n")]))
        assert check_injectivity(a, point_into_edge()).is_valid

    def test_sink_node_not_injective(self):
        a = as_slice(Graph.build(["n"]))
        v = check_injectivity(a, point_into_edge())
        assert v.status is Status.INVALID
        assert v.counterexample.offenders

    def test_empty_graph_vacuously_injective(self):
        a = as_slice(Graph.empty())
        assert check_injectivity(a, point_into_edge()).is_valid

    def test_budget_exhaustion_is_unknown(self):
        a = as_slice(
            Graph.build(
                [f"n{i}" for i in range(6)],
                [(f"l{i}", f"n{i}", f"n{i}") for i in range(6)],
            )
        )
        f = point_into_edge()
        assert check_injectivity(a, f).is_valid
        v = check_injectivity(a, f, limit=2)
        assert v.status is Status.UNKNOWN


class TestSemanticEntailment:
    def test_entailed_by_own_axiom(self):
        th = outgoing_edge_theory()
        res = semantic_entails(th, th.formulas["out-edge"], 2)
        assert res.entailed and res.models_checked > 0

    def test_refuted_with_counterexample(self):
        th = InjTheory(terminal_graph(), {})
        res = semantic_entails(th, point_into_edge(), 2)
        assert res.status == "refuted"
        assert check_injectivity(res.counterexample, point_into_edge()).status is Status.INVALID

    def test_coproduct_consequence_entailed(self):
        th = outgoing_edge_theory()
        f = th.formulas["out-edge"]
        macro = coproduct_macro(axiom(th, "out-edge"), axiom(th, "out-edge"))
        res = semantic_entails(th, macro.conclusion, 2)
        assert res.entailed


class TestSlicePushout:
    def test_legs_commute(self):
        th = edge_pair_theory()
        f = th.formulas["out-edge"]
        g = th.formulas["out-edge"]
        apex, il, ir = slice_pushout(f, g)
        assert compose(f.map, il.map) == compose(g.map, ir.map)
        assert apex.schema == th.base

    def test_rejects_non_span(self):
        th = edge_pair_theory()
        with pytest.raises(GraphError):
            slice_pushout(th.formulas["out-edge"], th.formulas["close-cycle"])


class TestDerivations:
    def test_axiom_verifies(self):
        th = outgoing_edge_theory()
        verify_derivation(axiom(th, "out-edge"), th)

    def test_foreign_axiom_rejected(self):
        th = outgoing_edge_theory()
        fake = Derivation(
            as_slice_morphism(identity(Graph.build(["A"]))), "Axiom"
        )
        with pytest.raises(DerivationError):
            verify_derivation(fake, th)

    def test_identity_rule(self):
        a = as_slice(Graph.build(["n"]))
        d = identity_formula(a)
        verify_derivation(d, outgoing_edge_theory())
        bad = Derivation(point_into_edge(), "Identity")
        with pytest.raises(DerivationError):
            verify_derivation(bad, outgoing_edge_theory())

    def test_composition_checks_composite(self):
        th = edge_pair_theory()
        d1 = axiom(th, "out-edge")
        d2 = axiom(th, "close-cycle")
        comp = compose_derivations(d1, d2)
        verify_derivation(comp, th)
        tampered = Derivation(d1.conclusion, "Composition", (d1, d2))
        with pytest.raises(DerivationError):
            verify_derivation(tampered, th)

    def test_cancellation_records_factor(self):
        th = edge_pair_theory()
        d1 = axiom(th, "out-edge")
        d2 = axiom(th, "close-cycle")
        dh = compose_derivations(d1, d2)
        back = cancel_derivation(dh, d1.conclusion, d2.conclusion)
        assert back.rule == "Cancellation" and back.side is d2.conclusion
        verify_derivation(back, th)
        with pytest.raises(GraphError):
            cancel_derivation(dh, d2.conclusion, d2.conclusion)

    def test_cancellation_sound_semantically(self):
        # whatever is injective w.r.t. the composite is injective w.r.t. the
        # first factor
        th = edge_pair_theory()
        h = th.formulas["out-edge"].then(th.formulas["close-cycle"])
        comp_theory = InjTheory(th.base, {"h": h})
        res = semantic_entails(comp_theory, th.formulas["out-edge"], 2)
        assert res.entailed

    def test_pushout_rule(self):
        th = outgoing_edge_theory()
        d = axiom(th, "out-edge")
        dom = d.conclusion.from_
        target = as_slice(Graph.build(["A", "C"], [("e", "A", "C")]))
        g = next(iter_slice_morphisms(dom, target))
        out = pushout_derivation(d, g)
        verify_derivation(out, th)
        assert out.conclusion.from_ == target
        tampered = Derivation(d.conclusion, "Pushout", (d,), side=g)
        with pytest.raises(DerivationError):
            verify_derivation(tampered, th)

    def test_coproduct_macro_script(self):
        th = outgoing_edge_theory()
        macro = coproduct_macro(axiom(th, "out-edge"), axiom(th, "out-edge"))
        assert macro.rules_used() == (
            "CoproductMacro",
            "Composition",
            "Pushout",
            "Axiom",
            "Pushout",
            "Axiom",
        )
        verify_derivation(macro, th)
        # domain is the two-point coproduct
        assert len(macro.conclusion.from_.carrier.nodes) == 2
        assert len(macro.conclusion.to.carrier.nodes) == 4


class TestBoundedEntailment:
    def test_axiom_found_at_depth_zero(self):
        th = outgoing_edge_theory()
        res = bounded_entailment(th, th.formulas["out-edge"], max_depth=0)
        assert res.derivable and res.derivation.rule == "Axiom"

    def test_formula_set_keeps_one_per_isomorphism_class(self):
        # a -> b1 and a -> b2 differ by the automorphism swapping b1 and b2;
        # a key built from the canonical relabelings told them apart
        base = Graph.build(["X"])
        dom = TypedInstance.build(base, Graph.build(["a"]), {"a": "X"}, {})
        cod = TypedInstance.build(
            base, Graph.build(["b1", "b2"]), {"b1": "X", "b2": "X"}, {}
        )
        to_b1 = SliceMorphism(dom, cod, GraphMorphism(dom.carrier, cod.carrier, {"a": "b1"}, {}))
        to_b2 = SliceMorphism(dom, cod, GraphMorphism(dom.carrier, cod.carrier, {"a": "b2"}, {}))
        assert formulas_isomorphic(to_b1, to_b2)
        seen = FormulaSet()
        assert seen.add(to_b1) and not seen.add(to_b2)

    def test_formula_set_tells_apart_equal_endpoints(self):
        # same endpoints, but a lands on the source of the edge in one
        # formula and on its target in the other
        s = Graph.build(["a"])
        q = Graph.build(["b1", "b2"], [("e", "b1", "b2")])
        to_src = as_slice_morphism(GraphMorphism(s, q, {"a": "b1"}, {}))
        to_tgt = as_slice_morphism(GraphMorphism(s, q, {"a": "b2"}, {}))
        assert not formulas_isomorphic(to_src, to_tgt)
        seen = FormulaSet()
        assert seen.add(to_src) and seen.add(to_tgt) and not seen.add(to_src)

    def test_isomorphic_endpoints_maps_differ(self):
        # both endpoints are two bare nodes, but only one map is injective:
        # every isomorphism of the domains forces a conflicting pin
        s = Graph.build(["a1", "a2"])
        q = Graph.build(["b", "c"])
        collapse = as_slice_morphism(GraphMorphism(s, q, {"a1": "b", "a2": "b"}, {}))
        spread = as_slice_morphism(GraphMorphism(s, q, {"a1": "b", "a2": "c"}, {}))
        assert not formulas_isomorphic(collapse, spread)
        assert not formulas_isomorphic(spread, collapse)
        assert formulas_isomorphic(collapse, collapse)

    def test_goal_iso_matching(self):
        # same formula with relabeled carriers still matches
        th = outgoing_edge_theory()
        s = Graph.build(["X"])
        q = Graph.build(["X", "Y"], [("e", "X", "Y")])
        goal = as_slice_morphism(GraphMorphism(s, q, {"X": "X"}, {}))
        assert formulas_isomorphic(goal, th.formulas["out-edge"])
        res = bounded_entailment(th, goal, max_depth=0)
        assert res.derivable

    def test_coproduct_goal_derivable(self):
        th = outgoing_edge_theory()
        macro = coproduct_macro(axiom(th, "out-edge"), axiom(th, "out-edge"))
        res = bounded_entailment(th, macro.conclusion, max_depth=1)
        assert res.derivable
        verify_derivation(res.derivation, th)
        assert "CoproductMacro" in res.derivation.rules_used()

    def test_composite_goal_derivable(self):
        th = edge_pair_theory()
        goal = th.formulas["out-edge"].then(th.formulas["close-cycle"])
        res = bounded_entailment(th, goal, max_depth=2)
        assert res.derivable
        verify_derivation(res.derivation, th)

    def test_unreachable_goal_unknown(self):
        th = outgoing_edge_theory()
        # a three-way parallel expansion that no bounded script produces
        s = Graph.build(["A"])
        q = Graph.build(
            ["A", "B"],
            [("r1", "A", "B"), ("r2", "A", "B"), ("r3", "B", "B")],
        )
        goal = as_slice_morphism(GraphMorphism(s, q, {"A": "A"}, {}))
        res = bounded_entailment(th, goal, max_depth=1, budget=300)
        assert res.status == "unknown" and res.derivation is None

    def test_wrong_base_rejected(self):
        th = outgoing_edge_theory()
        other = Graph.build(["A", "B"], [("r", "A", "B")])
        dom = TypedInstance.build(other, Graph.build(["a"]), {"a": "A"}, {})
        goal = SliceMorphism.identity(dom)
        with pytest.raises(GraphError):
            bounded_entailment(th, goal)

    def test_derived_formulas_semantically_sound(self):
        th = edge_pair_theory()
        goal = th.formulas["out-edge"].then(th.formulas["close-cycle"])
        res = bounded_entailment(th, goal, max_depth=2)
        assert res.derivable
        for bound in (2, 3):
            assert semantic_entails(th, res.derivation.conclusion, bound).entailed
