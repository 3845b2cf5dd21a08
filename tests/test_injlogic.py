import hashlib
import json

import pytest

import dcl.graphs
import dcl.injlogic as injlogic
from dcl.fixtures import DATA, edge_pair_theory, outgoing_edge_theory
from dcl.graphs import Graph, GraphError, GraphMorphism, compose, identity
from dcl.injlogic import (
    Derivation,
    DerivationError,
    InjTheory,
    _formula_key,
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
    verify_derivation,
)
from dcl.instances import (
    SliceMorphism,
    TypedInstance,
    as_slice,
    as_slice_morphism,
    find_instance_isomorphism,
    iter_slice_morphisms,
    terminal_graph,
)
from dcl.io import load
from dcl.signature import Regular, SignatureError, check_injectivity
from dcl.verdicts import Status


def point_into_edge():
    s = Graph.build(["A"])
    q = Graph.build(["A", "B"], [("r", "A", "B")])
    return as_slice_morphism(GraphMorphism(s, q, {"A": "A"}, {}))


def point_into_two_points():
    """{a} -> {b1, b2} over the one-node base X, foreign to the terminal graph."""
    x = Graph.build(["X"])
    a = TypedInstance.build(x, Graph.build(["a"]), {"a": "X"}, {})
    b = TypedInstance.build(x, Graph.build(["b1", "b2"]), {"b1": "X", "b2": "X"}, {})
    return SliceMorphism(a, b, GraphMorphism(a.carrier, b.carrier, {"a": "b1"}, {}))


class TestInjectivity:
    def test_loop_graph_injective_for_out_edge(self):
        a = as_slice(Graph.build(["n"], [("l", "n", "n")]))
        assert check_injectivity(a, Regular(point_into_edge())).is_valid

    def test_sink_node_not_injective(self):
        a = as_slice(Graph.build(["n"]))
        v = check_injectivity(a, Regular(point_into_edge()))
        assert v.status is Status.INVALID
        assert v.counterexample.offenders

    def test_empty_graph_vacuously_injective(self):
        a = as_slice(Graph.empty())
        assert check_injectivity(a, Regular(point_into_edge())).is_valid

    def test_budget_exhaustion_is_unknown(self):
        a = as_slice(
            Graph.build(
                [f"n{i}" for i in range(6)],
                [(f"l{i}", f"n{i}", f"n{i}") for i in range(6)],
            )
        )
        f = point_into_edge()
        assert check_injectivity(a, Regular(f)).is_valid
        v = check_injectivity(a, Regular(f, 2))
        assert v.status is Status.UNKNOWN
        assert v.detail == "injectivity-search bound exceeded: spent 3 of 2 units"

    def test_formula_over_another_schema_refused(self):
        # no testing map crosses schemas, which used to read as Valid
        a = as_slice(Graph.build(["n"], [("l", "n", "n")]))
        with pytest.raises(SignatureError, match="does not live over the schema"):
            check_injectivity(a, Regular(point_into_two_points()))


class TestSemanticEntailment:
    def test_entailed_by_own_axiom(self):
        th = outgoing_edge_theory()
        res = semantic_entails(th, th.formulas["out-edge"], 2)
        assert res.entailed and res.models_checked > 0

    def test_refuted_with_counterexample(self):
        th = InjTheory(terminal_graph(), {})
        res = semantic_entails(th, point_into_edge(), 2)
        assert res.status == "refuted"
        v = check_injectivity(res.counterexample, Regular(point_into_edge()))
        assert v.status is Status.INVALID

    def test_unknown_names_the_bound(self):
        th = InjTheory(terminal_graph(), {})
        res = semantic_entails(th, point_into_edge(), 2, limit=0)
        assert res.status == "unknown" and res.counterexample is None
        assert res.detail == "injectivity-search bound exceeded: spent 1 of 0 units"

    def test_canonical_form_bound_spares_the_sweep(self, monkeypatch):
        # at 2 units every instance with a link spends its canonical form's
        # bound, yet models are decided on their numbering: an entailed sweep
        # stays entailed, and a countermodel with a link is returned as
        # enumerated, isomorphic to the one of the default bound
        th, cycle = outgoing_edge_theory(), edge_pair_theory().formulas["close-cycle"]
        entailed = semantic_entails(th, th.formulas["out-edge"], 2)
        refuted = semantic_entails(th, cycle, 2, 1)
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 2)
        assert entailed.entailed and semantic_entails(th, th.formulas["out-edge"], 2) == entailed
        res = semantic_entails(th, cycle, 2, 1)
        assert res.status == "refuted" and res.models_checked == refuted.models_checked
        countermodel = res.counterexample
        assert countermodel.carrier.arrows and all("#" in n for n in countermodel.carrier.nodes)
        assert find_instance_isomorphism(countermodel, refuted.counterexample) is not None

    def test_model_sweep_bound_is_unknown(self, monkeypatch):
        # a point is injective w.r.t. its identity in every model, so only the
        # bound ends the sweep, with the detail a dependency sweep reports
        monkeypatch.setattr(dcl.injlogic, "MODEL_SWEEP_LIMIT", 50)
        point = identity_formula(as_slice(Graph.build(["p"], []))).conclusion
        res = semantic_entails(InjTheory(terminal_graph(), {}), point, 3)
        assert res.status == "unknown" and res.counterexample is None
        assert res.detail == "model-sweep bound exceeded: spent 51 of 50 units"
        assert res.models_checked > 0

    def test_goal_over_another_base_refused(self):
        # as bounded_entailment refuses it; the sweep used to say "entailed"
        th = outgoing_edge_theory()
        for size in (0, 2):
            with pytest.raises(GraphError, match="goal lives over a different base"):
                semantic_entails(th, point_into_two_points(), size)

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


def loop_goal() -> SliceMorphism:
    """Every node has a loop."""
    s = Graph.build(["A"])
    q = Graph.build(["A"], [("l", "A", "A")])
    return as_slice_morphism(GraphMorphism(s, q, {"A": "A"}, {}))


def entailment_case(name: str):
    out, pair = outgoing_edge_theory(), edge_pair_theory()
    return {
        "edge-pair composite": (
            pair, pair.formulas["out-edge"].then(pair.formulas["close-cycle"])
        ),
        "coproduct": (out, load(DATA / "coproduct-goal.json")),
        "loop, out-edge": (out, loop_goal()),
        "loop, edge-pair": (pair, loop_goal()),
    }[name]


# status and sha256 of the proof's sorted JSON, the same at every depth and
# budget of the grid below, as the search gave when an overrun still went on
# starting searches
ENTAILMENT_GRID = [
    ("edge-pair composite", "derivable",
     "1adb7c0e3039a35fd88695a3e048d462be0989963fe5754f0c6c50b95bfe1942"),
    ("coproduct", "derivable",
     "bee016ab07e15e009645cad7df030d385545a7494ad443473c44160380d07e26"),
    ("loop, out-edge", "unknown", None),
    ("loop, edge-pair", "unknown", None),
]


def criterion_06_goal(name: str):
    """The goals of acceptance criterion 06: each axiom of each theory, the
    coproduct of out-edge with itself, and the edge-pair composite."""
    out, pair = outgoing_edge_theory(), edge_pair_theory()
    return {
        "out-edge": (out, out.formulas["out-edge"]),
        "pair out-edge": (pair, pair.formulas["out-edge"]),
        "close-cycle": (pair, pair.formulas["close-cycle"]),
        "coproduct": (
            out, coproduct_macro(axiom(out, "out-edge"), axiom(out, "out-edge")).conclusion
        ),
        "edge-pair composite": entailment_case("edge-pair composite"),
    }[name]


# sha256 of the proof's sorted JSON at depth 4, as the search gave when it
# keyed objects by their canonical bytes
CRITERION_06_PROOFS = [
    ("out-edge", "470258900a05fe3ca6ddee5048328c60351f36a5466e1b9d73c26e916890f65d"),
    ("pair out-edge", "470258900a05fe3ca6ddee5048328c60351f36a5466e1b9d73c26e916890f65d"),
    ("close-cycle", "4979fd87e2ec6649b28fab34f94f70bdcb6fca6b2da93af43ac94d5272249ea2"),
    ("coproduct", "bee016ab07e15e009645cad7df030d385545a7494ad443473c44160380d07e26"),
    ("edge-pair composite", "1adb7c0e3039a35fd88695a3e048d462be0989963fe5754f0c6c50b95bfe1942"),
]


class TestBoundedEntailment:
    @pytest.mark.parametrize(
        "name,digest", CRITERION_06_PROOFS, ids=[case[0] for case in CRITERION_06_PROOFS]
    )
    def test_criterion_06_proofs_pinned(self, name, digest):
        res = bounded_entailment(*criterion_06_goal(name), max_depth=4)
        proof = json.dumps(res.derivation.to_json(), sort_keys=True)
        assert hashlib.sha256(proof.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name,status,digest", ENTAILMENT_GRID, ids=[case[0] for case in ENTAILMENT_GRID]
    )
    def test_stops_at_first_overrun_with_same_result(self, name, status, digest, monkeypatch):
        theory, goal = entailment_case(name)
        for depth in (1, 2, 3):
            for budget in (20, 50, 200, 1000):
                monkeypatch.setattr(injlogic, "PROOF_SEARCH_LIMIT", budget)
                res = bounded_entailment(theory, goal, max_depth=depth)
                assert res.status == status, (depth, budget)
                if digest is not None:
                    proof = json.dumps(res.derivation.to_json(), sort_keys=True)
                    assert hashlib.sha256(proof.encode()).hexdigest() == digest

    def test_cancellation_enumerates_only_factorizations(self, monkeypatch):
        # the step once enumerated every f2: mid -> cod h and kept the f2
        # with f1;f2 == h: 138 slice morphisms on this goal, 9 of them kept.
        # Each factorization the pinned search yields is kept.
        enumerated, kept = [], []
        search, cancel = injlogic.iter_slice_morphisms, injlogic.cancel_derivation

        def counting_search(*args):
            for m in search(*args):
                enumerated.append(m)
                yield m

        def counting_cancel(dh, f1, f2):
            kept.append(f2)
            return cancel(dh, f1, f2)

        monkeypatch.setattr(injlogic, "iter_slice_morphisms", counting_search)
        monkeypatch.setattr(injlogic, "cancel_derivation", counting_cancel)
        theory, goal = entailment_case("edge-pair composite")
        assert bounded_entailment(theory, goal, max_depth=4).derivable
        assert len(kept) == 9
        assert len(enumerated) + len(kept) < 138

    def test_unknown_names_the_depth_bound(self, monkeypatch):
        theory, goal = entailment_case("loop, out-edge")
        monkeypatch.setattr(injlogic, "PROOF_SEARCH_LIMIT", 4000)
        res = bounded_entailment(theory, goal, max_depth=1)
        assert res.status == "unknown"
        assert res.detail == "depth bound 1 reached: spent 73 of 4000 units"

    def test_unknown_names_the_budget(self, monkeypatch):
        theory, goal = entailment_case("loop, out-edge")
        monkeypatch.setattr(injlogic, "PROOF_SEARCH_LIMIT", 200)
        res = bounded_entailment(theory, goal, max_depth=4)
        assert res.status == "unknown"
        assert res.detail == "proof-search bound exceeded: spent 341 of 200 units"

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
        assert _formula_key(to_b1) == _formula_key(to_b2)

    def test_formula_set_tells_apart_equal_endpoints(self):
        # same endpoints, but a lands on the source of the edge in one
        # formula and on its target in the other
        s = Graph.build(["a"])
        q = Graph.build(["b1", "b2"], [("e", "b1", "b2")])
        to_src = as_slice_morphism(GraphMorphism(s, q, {"a": "b1"}, {}))
        to_tgt = as_slice_morphism(GraphMorphism(s, q, {"a": "b2"}, {}))
        assert not formulas_isomorphic(to_src, to_tgt)
        assert _formula_key(to_src) != _formula_key(to_tgt)

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

    def test_unreachable_goal_unknown(self, monkeypatch):
        th = outgoing_edge_theory()
        # a three-way parallel expansion that no bounded script produces
        s = Graph.build(["A"])
        q = Graph.build(
            ["A", "B"],
            [("r1", "A", "B"), ("r2", "A", "B"), ("r3", "B", "B")],
        )
        goal = as_slice_morphism(GraphMorphism(s, q, {"A": "A"}, {}))
        monkeypatch.setattr(injlogic, "PROOF_SEARCH_LIMIT", 300)
        res = bounded_entailment(th, goal, max_depth=1)
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
