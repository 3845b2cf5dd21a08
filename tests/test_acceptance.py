"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with pytest -s; pytest -v shows the same outcome per test).
"""

import contextlib
import random
import time

from dcl.fixtures import (
    existence_symbol,
    mutation_duplicate_identity,
    mutation_five_wheels,
    mutation_unlicensed_drive,
    uniqueness_symbol,
    vehicle_registry_instance,
    vehicle_registry_sketch,
)
from dcl.graphs import Graph, GraphMorphism, compose, identity
from dcl.injlogic import (
    axiom,
    bounded_entailment,
    coproduct_macro,
    semantic_entails,
    verify_derivation,
)
from dcl.fixtures import edge_pair_theory, outgoing_edge_theory, span_signature
from dcl.instances import (
    Delta,
    SliceMorphism,
    TypedInstance,
    canonical_restriction,
    cod_lift,
    compose_delta,
    deltas_equivalent,
    find_instance_isomorphism,
    from_indexed,
    identity_delta,
    iter_slice_morphisms,
    iter_typed_instances,
    restrict,
    serialize_instance,
    to_indexed,
)
from dcl.randgen import (
    harness_signature,
    random_declaration,
    random_graph,
    random_morphism_into,
    random_satax_triple,
    random_typed_instance,
)
from dcl.satisfaction import (
    propagate_evidence,
    satisfies,
    validate_instance,
    verify_sat_axiom,
)
from dcl.signature import (
    ConstraintSymbol,
    Signature,
    evaluate,
    lifting_to_regular,
    multiplicity_symbol,
    parallel_pair_arity,
    regular_to_lifting,
    single_arrow_arity,
    subset_symbol,
)
from dcl.sketch import (
    ConstraintDeclaration,
    Sketch,
    close_sketch,
    translate_declaration,
)
from dcl.verdicts import Status


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({description})")
        raise
    print(f"criterion {number}: PASS ({description})")


def _single_decl(symbol):
    """A one-declaration sketch whose carrier is the symbol's own arity."""
    sig = Signature({symbol.name: symbol})
    d = ConstraintDeclaration("d", symbol.name, identity(symbol.arity))
    return sig, d


# FOL oracles coded directly from the indexed (set-based) reading,
# independent of the pullback machinery.


def fol_at_least_one(t):
    ix = to_indexed(t)
    return all(
        any(src == a for _, src, _ in ix.arrow_spans["r"]) for a in ix.node_sets["A"]
    )


def fol_at_most_one(t):
    ix = to_indexed(t)
    return all(
        sum(1 for _, src, _ in ix.arrow_spans["r"] if src == a) <= 1
        for a in ix.node_sets["A"]
    )


def fol_subset(t):
    ix = to_indexed(t)
    covered = {(s, g) for _, s, g in ix.arrow_spans["r2"]}
    return all((s, g) in covered for _, s, g in ix.arrow_spans["r1"])


def test_criterion_01_fixture_suite():
    with criterion(1, "vehicle-registry fixture and targeted mutations"):
        sketch = vehicle_registry_sketch()

        start = time.monotonic()
        report = validate_instance(sketch, vehicle_registry_instance())
        assert time.monotonic() - start < 1.0
        assert report.overall is Status.VALID
        valid = [v for v in report.verdicts if v.is_valid and v.evidence is not None]
        assert len(valid) >= 7

        targets = {
            "has:[1..4,6]": mutation_five_wheels(),
            "driver-identity:[key]": mutation_duplicate_identity(),
            "licensed-drive:[sub4]": mutation_unlicensed_drive(),
        }
        for target, instance in targets.items():
            start = time.monotonic()
            report = validate_instance(sketch, instance)
            assert time.monotonic() - start < 1.0
            invalid = [v.declaration for v in report.verdicts if not v.is_valid]
            assert invalid == [target]


def test_criterion_02_fol_oracle_equivalence():
    with criterion(2, "multiplicity and subset checks match the FOL oracles"):
        start = time.monotonic()

        cases = [
            (multiplicity_symbol([(1, None)]), single_arrow_arity(), fol_at_least_one, 3),
            (multiplicity_symbol([(0, 1)]), single_arrow_arity(), fol_at_most_one, 3),
            (subset_symbol(), parallel_pair_arity(), fol_subset, 2),
        ]
        for symbol, arity, oracle, bound in cases:
            sig, d = _single_decl(symbol)
            for t in iter_typed_instances(arity, bound, 2):
                v = satisfies(t, d, sig)
                assert v.status is not Status.UNKNOWN
                assert v.is_valid == oracle(t), symbol.name

        # the subset sweep at the stated 3-element bound is astronomically
        # large (two arrows, up to 18 link slots), so the full bound is
        # covered by seeded sampling on top of the exhaustive smaller sweep
        rng = random.Random(2026)
        sig, d = _single_decl(subset_symbol())
        for _ in range(500):
            t = random_typed_instance(rng, parallel_pair_arity(), 3, 10)
            v = satisfies(t, d, sig)
            assert v.is_valid == fol_subset(t)

        assert time.monotonic() - start < 30.0


def test_criterion_03_sat_axiom_harness():
    with criterion(3, "1000 random triples pass the satisfaction axiom"):
        sig = harness_signature()
        start = time.monotonic()
        rng = random.Random(424242)
        for _ in range(1000):
            f, d, t = random_satax_triple(rng, sig)
            res = verify_sat_axiom(f, d, t, sig)
            assert res.passed, res.detail
        assert time.monotonic() - start < 60.0

        # reproducibility: the same seed regenerates the same triples
        first = random.Random(99)
        second = random.Random(99)
        for _ in range(25):
            fa, da, ta = random_satax_triple(first, sig)
            fb, db, tb = random_satax_triple(second, sig)
            assert fa == fb and da == db and ta.to_json() == tb.to_json()


def test_criterion_04_institution_functoriality():
    with criterion(4, "reducts and translations compose over 200 pairs"):
        sig = harness_signature()
        rng = random.Random(404)
        checked = 0
        while checked < 200:
            top = random_graph(rng, 4, 5)
            f2 = random_morphism_into(rng, top, 4, 5)
            f1 = random_morphism_into(rng, f2.dom, 4, 5)
            d = random_declaration(rng, f1.dom, sig)
            if d is None:
                continue
            t = random_typed_instance(rng, top)

            once = restrict(t, compose(f1, f2))
            twice = restrict(restrict(t, f2), f1)
            # canonical bytes agree iff a typing-commuting iso exists; the
            # explicit search runs where it stays cheap
            assert canonical_restriction(once) == canonical_restriction(twice)
            if len(once.carrier.nodes) + len(once.carrier.arrows) <= 6:
                assert find_instance_isomorphism(once, twice) is not None

            composed = translate_declaration(compose(f1, f2), d)
            stepwise = translate_declaration(f2, translate_declaration(f1, d))
            assert composed.label == stepwise.label
            assert composed.binding == stepwise.binding

            assert verify_sat_axiom(compose(f1, f2), d, t, sig).passed
            checked += 1


def test_criterion_05_regular_lifting_equivalence():
    with criterion(5, "regular/lifting translations agree on all small instances"):
        for symbol in (existence_symbol(), uniqueness_symbol()):
            as_lifting = ConstraintSymbol(
                symbol.name,
                symbol.arity,
                regular_to_lifting(symbol.arity, symbol.semantics),
            )
            roundtrip = ConstraintSymbol(
                symbol.name, symbol.arity, lifting_to_regular(as_lifting.semantics)
            )
            for t in iter_typed_instances(single_arrow_arity(), 3, 2):
                original = evaluate(symbol, t).status
                assert original is not Status.UNKNOWN
                assert evaluate(as_lifting, t).status is original
                assert evaluate(roundtrip, t).status is original


def test_criterion_06_injectivity_logic_soundness():
    with criterion(6, "derived formulas are semantically sound; coproduct script exact"):
        out_theory = outgoing_edge_theory()
        pair_theory = edge_pair_theory()

        goals = []
        for th in (out_theory, pair_theory):
            for name in th.formulas:
                goals.append((th, th.formulas[name]))
        goals.append(
            (
                out_theory,
                coproduct_macro(
                    axiom(out_theory, "out-edge"), axiom(out_theory, "out-edge")
                ).conclusion,
            )
        )
        goals.append(
            (
                pair_theory,
                pair_theory.formulas["out-edge"].then(
                    pair_theory.formulas["close-cycle"]
                ),
            )
        )

        derived = []
        for th, goal in goals:
            res = bounded_entailment(th, goal, max_depth=4)
            assert res.derivable
            verify_derivation(res.derivation, th)  # re-verification never fails
            derived.append((th, res.derivation))

        for th, proof in derived:
            f = proof.conclusion
            assert semantic_entails(th, f, 2, max_parallel=2).entailed
            assert semantic_entails(th, f, 3, max_parallel=2).entailed
            # the bound-4 sweep caps parallel links at 1 to stay finite
            assert semantic_entails(th, f, 4, max_parallel=1).entailed

        # the coproduct goal is proved by the exact two-pushouts-then-compose
        # script, wrapped as the derived macro rule
        macro_goal = goals[-2][1]
        res = bounded_entailment(out_theory, macro_goal, max_depth=4)
        assert res.derivation.rules_used() == (
            "CoproductMacro",
            "Composition",
            "Pushout",
            "Axiom",
            "Pushout",
            "Axiom",
        )
        verify_derivation(res.derivation, out_theory)


def test_criterion_07_dependency_closure():
    with criterion(7, "jm closure adds leg constraints and changes the verdict"):
        sig = span_signature()
        carrier = Graph.build(["L", "V", "T"], [("f", "L", "V"), ("g", "L", "T")])
        binding = GraphMorphism(
            sig.symbols["[jm]"].arity,
            carrier,
            {"0": "L", "1": "V", "2": "T"},
            {"01": "f", "02": "g"},
        )
        open_sketch = Sketch(
            "span", carrier, sig, (ConstraintDeclaration("jm", "[jm]", binding),)
        )
        closed = close_sketch(open_sketch)

        added = [d for d in closed.declarations if d.id != "jm"]
        assert [d.id for d in added] == ["jm/d1", "jm/d2"]
        assert all(d.label == "[1]" for d in added)
        assert added[0].binding == compose(sig.dependency("d1").arity_map, binding)
        assert added[1].binding == compose(sig.dependency("d2").arity_map, binding)

        # first leg non-functional: two V-links out of one L-element
        non_functional = TypedInstance.build(
            carrier,
            Graph.build(
                ["l", "v1", "v2", "t"],
                [("x1", "l", "v1"), ("x2", "l", "v2"), ("y", "l", "t")],
            ),
            {"l": "L", "v1": "V", "v2": "V", "t": "T"},
            {"x1": "f", "x2": "f", "y": "g"},
        )
        unclosed_report = validate_instance(
            open_sketch, non_functional, allow_unclosed=True
        )
        assert unclosed_report.overall is Status.VALID
        closed_report = validate_instance(closed, non_functional)
        assert closed_report.overall is Status.INVALID
        assert not closed_report.verdict_for("jm/d1").is_valid

        # evidence propagation along the dependencies matches recomputation
        functional = TypedInstance.build(
            carrier,
            Graph.build(["l", "v", "t"], [("x", "l", "v"), ("y", "l", "t")]),
            {"l": "L", "v": "V", "t": "T"},
            {"x": "f", "y": "g"},
        )
        report = validate_instance(closed, functional)
        jm_verdict = report.verdict_for("jm")
        for dep_id in ("d1", "d2"):
            lifted = propagate_evidence(jm_verdict, sig.dependency(dep_id), closed)
            direct = report.verdict_for(f"jm/{dep_id}")
            assert lifted.status is direct.status is Status.VALID
            assert serialize_instance(lifted.evidence.restricted) == serialize_instance(
                direct.evidence.restricted
            )


def test_criterion_08_grothendieck_roundtrip():
    with criterion(8, "100 fibred/indexed roundtrips are isomorphic"):
        rng = random.Random(808)
        for _ in range(100):
            schema = random_graph(rng, 4, 5)
            t = random_typed_instance(rng, schema)
            back = from_indexed(to_indexed(t))
            iso = find_instance_isomorphism(t, back)
            assert iso is not None and iso.map.is_bijective


def test_criterion_09_delta_algebra():
    with criterion(9, "delta composition laws and cod_lift factorization"):
        rng = random.Random(909)

        def chained_delta(source, schema):
            target = random_typed_instance(rng, schema, 2, 3)
            legs = list(iter_slice_morphisms(source, target))
            if not legs:
                return None
            leg = legs[rng.randrange(len(legs))]
            return Delta(SliceMorphism.identity(source), leg)

        checked = 0
        while checked < 100:
            schema = random_graph(rng, 3, 3)
            start = random_typed_instance(rng, schema, 2, 3)
            d1 = chained_delta(start, schema)
            if d1 is None:
                continue
            d2 = chained_delta(d1.target, schema)
            if d2 is None:
                continue
            d3 = chained_delta(d2.target, schema)
            if d3 is None:
                continue
            left = compose_delta(compose_delta(d1, d2), d3)
            right = compose_delta(d1, compose_delta(d2, d3))
            assert deltas_equivalent(left, right)
            assert deltas_equivalent(compose_delta(identity_delta(d1.source), d1), d1)
            assert deltas_equivalent(compose_delta(d1, identity_delta(d1.target)), d1)
            checked += 1

        # Cartesian lifts: every commuting competitor factors uniquely
        checked = 0
        while checked < 30:
            schema = random_graph(rng, 3, 3)
            t = random_typed_instance(rng, schema, 2, 3)
            q = random_morphism_into(rng, schema, 2, 2)
            if not q.dom.nodes:
                continue
            lift = cod_lift(t, q)
            probe = random_typed_instance(rng, q.dom, 1, 1)
            found = False
            for comp in iter_slice_morphisms(probe, lift.lifted):
                matching = [
                    u
                    for u in iter_slice_morphisms(probe, lift.lifted)
                    if compose(u.map, lift.carrier_map)
                    == compose(comp.map, lift.carrier_map)
                ]
                assert matching == [comp]
                found = True
            if found:
                checked += 1


def test_criterion_10_locality():
    with criterion(10, "mutations outside the binding preimage preserve evidence"):
        sig = harness_signature()
        rng = random.Random(1010)
        checked = 0
        while checked < 100:
            inner = random_graph(rng, 4, 5)
            schema = Graph.build(
                list(inner.sorted_nodes) + ["OUT"],
                [(a.id, a.src, a.tgt) for a in inner.sorted_arrows]
                + [("outloop", "OUT", "OUT")],
            )
            d = random_declaration(rng, inner, sig)
            if d is None:
                continue
            # rebind into the larger schema; OUT stays outside the image
            binding = GraphMorphism(
                d.binding.dom, schema, d.binding.node_map, d.binding.arrow_map
            )
            d = ConstraintDeclaration(d.id, d.label, binding)
            t = random_typed_instance(rng, schema)
            before = satisfies(t, d, sig)

            extra = rng.randint(1, 3)
            nodes = list(t.carrier.sorted_nodes) + [f"out{i}" for i in range(extra)]
            arrows = [(a.id, a.src, a.tgt) for a in t.carrier.sorted_arrows] + [
                (f"outl{i}", f"out{i}", f"out{i}") for i in range(extra)
            ]
            node_typing = dict(t.typing.node_map)
            arrow_typing = dict(t.typing.arrow_map)
            for i in range(extra):
                node_typing[f"out{i}"] = "OUT"
                arrow_typing[f"outl{i}"] = "outloop"
            mutated = TypedInstance.build(
                schema, Graph.build(nodes, arrows), node_typing, arrow_typing
            )
            after = satisfies(mutated, d, sig)

            assert before.status is after.status
            if before.is_valid:
                assert serialize_instance(
                    before.evidence.restricted
                ) == serialize_instance(after.evidence.restricted)
            checked += 1
