import dataclasses
import functools
import json
import random
from collections import Counter

import pytest

import dcl.signature
from dcl.cli import _broken_translate
from dcl.fixtures import (
    DATA,
    mutation_duplicate_identity,
    mutation_five_wheels,
    mutation_unlicensed_drive,
    span_signature,
    vehicle_registry_instance,
    vehicle_registry_sketch,
)
from dcl.graphs import BoundExceeded, Graph, GraphError, GraphMorphism, compose, identity
from dcl.instances import (
    Delta,
    SliceMorphism,
    TypedInstance,
    canonical_restriction,
    deltas_equivalent,
    identity_delta,
    iter_slice_morphisms,
    pullback_delta,
    restrict,
    serialize_instance,
)
from dcl.io import load
from dcl.randgen import (
    harness_signature,
    random_graph,
    random_morphism_into,
    random_satax_triple,
    random_typed_instance,
)
from dcl.satisfaction import (
    SatAxiomResult,
    propagate_evidence,
    satisfies,
    validate_instance,
    verify_sat_axiom,
)
from dcl.signature import Dependency, multiplicity_symbol, Signature
from dcl.sketch import (
    ConstraintDeclaration,
    Sketch,
    SketchError,
    close_sketch,
    consequence,
    translate_declaration,
)
from dcl.verdicts import Counterexample, Status, Verdict


class TestSatisfies:
    def test_fixture_constraints(self):
        sketch = vehicle_registry_sketch()
        t = vehicle_registry_instance()
        for d in sketch.declarations:
            v = satisfies(t, d, sketch.signature)
            assert v.is_valid, d.id
            assert v.declaration == d.id

    def test_status_is_read_from_the_certificate(self):
        sketch = vehicle_registry_sketch()
        d = sketch.declarations[0]
        v = satisfies(vehicle_registry_instance(), d, sketch.signature)
        out = v.to_json()
        assert out["status"] == "valid" and out["id"] == out["evidence"]["declaration"] == d.id
        invalid = Verdict(counterexample=Counterexample(v.evidence.restricted, ()))
        assert invalid.status is Status.INVALID and Verdict().status is Status.UNKNOWN
        names = [f.name for f in dataclasses.fields(Verdict)]
        assert names == ["evidence", "counterexample", "declaration", "detail"]

    def test_schema_mismatch(self):
        sketch = vehicle_registry_sketch()
        wrong = TypedInstance.empty(Graph.build(["X"]))
        with pytest.raises(GraphError):
            satisfies(wrong, sketch.declarations[0], sketch.signature)

    def test_empty_instance_all_vacuous(self):
        sketch = vehicle_registry_sketch()
        report = validate_instance(sketch, TypedInstance.empty(sketch.carrier))
        assert report.overall is Status.VALID


class TestValidateInstance:
    def test_mutations_break_exactly_one(self):
        sketch = vehicle_registry_sketch()
        cases = {
            "has:[1..4,6]": mutation_five_wheels(),
            "driver-identity:[key]": mutation_duplicate_identity(),
            "licensed-drive:[sub4]": mutation_unlicensed_drive(),
        }
        for target, instance in cases.items():
            report = validate_instance(sketch, instance)
            bad = [v.declaration for v in report.verdicts if v.status is Status.INVALID]
            assert bad == [target]

    def test_unclosed_rejected_with_names(self):
        sig = span_signature()
        carrier = Graph.build(["L", "V", "T"], [("a", "L", "V"), ("b", "L", "T")])
        binding = GraphMorphism(
            sig.symbols["[jm]"].arity,
            carrier,
            {"0": "L", "1": "V", "2": "T"},
            {"01": "a", "02": "b"},
        )
        s = Sketch("s", carrier, sig, (ConstraintDeclaration("jm", "[jm]", binding),))
        with pytest.raises(SketchError) as err:
            validate_instance(s, TypedInstance.empty(carrier))
        assert "jm/d1" in str(err.value)
        validate_instance(s, TypedInstance.empty(carrier), allow_unclosed=True)

    def test_monotone_under_declaration_removal(self):
        sketch = vehicle_registry_sketch()
        t = mutation_five_wheels()
        report = validate_instance(sketch, t)
        kept = tuple(d for d in sketch.declarations if d.id != "has:[1..4,6]")
        smaller = Sketch(sketch.name, sketch.carrier, sketch.signature, kept)
        assert validate_instance(smaller, t).overall is Status.VALID


class TestMigration:
    def test_identity_reduct_is_iso(self):
        t = vehicle_registry_instance()
        out = restrict(t, identity(t.schema))
        assert canonical_restriction(out) == canonical_restriction(t)

    def test_fragment_keeps_only_fiber(self):
        t = vehicle_registry_instance()
        frag = Graph.build(["Vehicle"])
        inc = GraphMorphism(frag, t.schema, {"Vehicle": "Vehicle"}, {})
        out = restrict(t, inc)
        assert len(out.carrier.nodes) == 1 and not out.carrier.arrows

    def test_composite_reduct(self):
        rng = random.Random(31)
        for _ in range(30):
            g2 = random_graph(rng, 4, 4)
            f2 = random_morphism_into(rng, g2, 3, 3)
            f1 = random_morphism_into(rng, f2.dom, 3, 3)
            t = random_typed_instance(rng, g2)
            once = restrict(t, compose(f1, f2))
            twice = restrict(restrict(t, f2), f1)
            assert canonical_restriction(once) == canonical_restriction(twice)


def two_decision_sat_axiom(f, d, t, signature, translate=translate_declaration):
    """The Sat-axiom harness with one decision per side, each through the
    canonical restriction along its own binding: the reference that the
    shared decision of `verify_sat_axiom` must equal byte for byte."""

    def side(s, decl):
        symbol = signature.symbols[decl.label]
        try:
            canonical = canonical_restriction(s, decl.binding)
        except BoundExceeded as exc:
            return Verdict(detail=str(exc), declaration=decl.id)
        return symbol.semantics.decide(canonical).with_declaration(decl.id)

    grouped = t.with_fibres()
    reduct_side = side(restrict(grouped, f), d)
    translated_side = side(grouped, translate(f, d))
    if reduct_side.status != translated_side.status:
        return SatAxiomResult(reduct_side, translated_side, "verdict statuses differ")
    if reduct_side.is_valid and (
        reduct_side.evidence.restricted != translated_side.evidence.restricted
    ):
        return SatAxiomResult(reduct_side, translated_side, "evidence bytes differ")
    return SatAxiomResult(reduct_side, translated_side)


@functools.lru_cache(maxsize=None)
def satax_triples(seed: int, count: int = 2000) -> tuple:
    """`count` triples as `perfbench`'s `satax` workload draws them at `seed`."""
    rng, sig = random.Random(seed), harness_signature()
    return sig, tuple(random_satax_triple(rng, sig) for _ in range(count))


def sat_axiom_fields(result: SatAxiomResult) -> tuple:
    def side(v: Verdict) -> tuple:
        evidence, counterexample = v.evidence, v.counterexample
        return (
            v.status,
            v.declaration,
            v.detail,
            evidence and (serialize_instance(evidence.restricted), evidence.witness),
            counterexample
            and (serialize_instance(counterexample.restricted), counterexample.offenders),
        )

    return side(result.reduct_side), side(result.translated_side), result.passed, result.detail


class TestSharedDecision:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "translate", [translate_declaration, _broken_translate], ids=["real", "broken"]
    )
    def test_equals_two_decision_reference(self, seed, translate):
        sig, triples = satax_triples(seed)
        failed = 0
        for f, d, t in triples:
            got = verify_sat_axiom(f, d, t, sig, translate=translate)
            want = two_decision_sat_axiom(f, d, t, sig, translate=translate)
            assert sat_axiom_fields(got) == sat_axiom_fields(want)
            assert got == want
            failed += not got.passed
        # the broken translation is caught on both paths, the real one never
        assert (failed > 0) is (translate is _broken_translate)

    def test_one_decision_when_the_sides_number_alike(self, monkeypatch):
        calls = []
        canonical = dcl.signature._canonical_numbered

        def counted(*args):
            calls.append(args)
            return canonical(*args)

        monkeypatch.setattr(dcl.signature, "_canonical_numbered", counted)
        sig, triples = satax_triples(1)
        per_triple = Counter()
        for f, d, t in triples:
            before = len(calls)
            verify_sat_axiom(f, d, t, sig)
            per_triple[len(calls) - before] += 1
        assert per_triple == {1: 1993, 2: 7}


class TestSatAxiom:
    def test_identity_morphism(self):
        sketch = vehicle_registry_sketch()
        t = vehicle_registry_instance()
        for d in sketch.declarations:
            res = verify_sat_axiom(identity(t.schema), d, t, sketch.signature)
            assert res.passed

    @pytest.mark.parametrize(
        "instance,has_status",
        [
            (vehicle_registry_instance, Status.VALID),
            (mutation_five_wheels, Status.INVALID),
            (mutation_duplicate_identity, Status.VALID),
            (mutation_unlicensed_drive, Status.VALID),
        ],
    )
    def test_vehicle_fragment_map(self, instance, has_status):
        # a reduct's report is `migrate --direction pull` then `check`: by the
        # Sat-axiom it equals what the translated declarations give on t
        f, t = load(DATA / "vehicle-fragment-map.json"), instance()
        sig = vehicle_registry_sketch().signature
        ends = {"A": "Vehicle", "B": "Wheel"}
        has = GraphMorphism(sig.symbols["[1..4,6]"].arity, f.dom, ends, {"r": "has"})
        sub = GraphMorphism(sig.symbols["[sub]"].arity, f.dom, ends, {"r1": "hasdr", "r2": "has"})
        declarations = (
            ConstraintDeclaration("has-m", "[1..4,6]", has),
            ConstraintDeclaration("sub", "[sub]", sub),
        )
        results = [verify_sat_axiom(f, d, t, sig) for d in declarations]
        assert all(r.passed for r in results)
        assert [r.reduct_side.status for r in results] == [has_status, Status.VALID]
        report = validate_instance(Sketch("fragment", f.dom, sig, declarations), restrict(t, f))
        assert [v.to_json() for v in report.verdicts] == [r.reduct_side.to_json() for r in results]

    def test_random_triples(self):
        rng = random.Random(32)
        sig = harness_signature()
        for _ in range(100):
            f, d, t = random_satax_triple(rng, sig)
            assert verify_sat_axiom(f, d, t, sig).passed

    @pytest.mark.parametrize("max_nodes", [0, -1])
    def test_triple_without_nodes_is_refused(self, max_nodes):
        # an empty domain admits no declaration, so drawing again would never end
        with pytest.raises(ValueError, match="max_nodes"):
            random_satax_triple(random.Random(0), harness_signature(), max_nodes=max_nodes)

    def test_fault_injection_detected(self):
        sig = harness_signature()
        carrier = Graph.build(["A", "B"], [("r", "A", "B")])
        d = ConstraintDeclaration(
            "d",
            "[1..*]",
            GraphMorphism(
                sig.symbols["[1..*]"].arity, carrier, {"A": "A", "B": "B"}, {"r": "r"}
            ),
        )
        t = TypedInstance.build(carrier, Graph.build(["a"]), {"a": "A"}, {})

        def broken(f, decl):
            out = translate_declaration(f, decl)
            return ConstraintDeclaration(out.id, "[0..1]", out.binding)

        res = verify_sat_axiom(identity(carrier), d, t, sig, translate=broken)
        assert not res.passed and res.detail == "verdict statuses differ"

    def test_evidence_fault_detected(self):
        # both sides are Valid, but the hook rebinds r to the parallel s,
        # so the reduct's evidence has one link and the translation's two
        sig = harness_signature()
        carrier = Graph.build(["A", "B"], [("r", "A", "B"), ("s", "A", "B")])
        arity = sig.symbols["[1..*]"].arity
        d = ConstraintDeclaration(
            "d", "[1..*]", GraphMorphism(arity, carrier, {"A": "A", "B": "B"}, {"r": "r"})
        )
        t = TypedInstance.build(
            carrier,
            Graph.build(["a", "b"], [("l1", "a", "b"), ("l2", "a", "b"), ("l3", "a", "b")]),
            {"a": "A", "b": "B"},
            {"l1": "r", "l2": "s", "l3": "s"},
        )

        def rebind(f, decl):
            out = translate_declaration(f, decl)
            binding = GraphMorphism(arity, carrier, out.binding.node_map, {"r": "s"})
            return ConstraintDeclaration(out.id, out.label, binding)

        res = verify_sat_axiom(identity(carrier), d, t, sig, translate=rebind)
        assert res.reduct_side.is_valid and res.translated_side.is_valid
        assert not res.passed and res.detail == "evidence bytes differ"


class TestPropagation:
    def _jm_setup(self):
        sig = span_signature()
        carrier = Graph.build(["L", "V", "T"], [("a", "L", "V"), ("b", "L", "T")])
        binding = GraphMorphism(
            sig.symbols["[jm]"].arity,
            carrier,
            {"0": "L", "1": "V", "2": "T"},
            {"01": "a", "02": "b"},
        )
        s = close_sketch(
            Sketch("s", carrier, sig, (ConstraintDeclaration("jm", "[jm]", binding),))
        )
        t = TypedInstance.build(
            carrier,
            Graph.build(["l", "v", "t"], [("x", "l", "v"), ("y", "l", "t")]),
            {"l": "L", "v": "V", "t": "T"},
            {"x": "a", "y": "b"},
        )
        return sig, s, t

    def test_matches_direct_evaluation(self):
        sig, s, t = self._jm_setup()
        report = validate_instance(s, t)
        jm_verdict = report.verdict_for("jm")
        for dep_id in ("d1", "d2"):
            lifted = propagate_evidence(jm_verdict, sig.dependency(dep_id), s)
            direct = report.verdict_for(f"jm/{dep_id}")
            assert lifted.status == direct.status == Status.VALID
            assert serialize_instance(lifted.evidence.restricted) == serialize_instance(
                direct.evidence.restricted
            )

    def test_identity_dependency_same_bytes(self):
        m = multiplicity_symbol([(1, 1)])
        from dcl.signature import Dependency

        sig = Signature({m.name: m}, (Dependency("i", m.name, m.name, identity(m.arity)),))
        carrier = m.arity
        d = ConstraintDeclaration("d", m.name, identity(carrier))
        t = TypedInstance.build(
            carrier,
            Graph.build(["a", "b"], [("l", "a", "b")]),
            {"a": "A", "b": "B"},
            {"l": "r"},
        )
        v = satisfies(t, d, sig)
        lifted = propagate_evidence(v, sig.dependency("i"), Sketch("s", carrier, sig, (d,)))
        assert lifted.declaration == "d"
        assert serialize_instance(lifted.evidence.restricted) == serialize_instance(
            v.evidence.restricted
        )

    def test_invalid_verdict_rejected(self):
        sig, s, t = self._jm_setup()
        bad = TypedInstance.build(
            s.carrier,
            Graph.build(
                ["l1", "l2", "v", "t"],
                [("x1", "l1", "v"), ("y1", "l1", "t"), ("x2", "l2", "v"), ("y2", "l2", "t")],
            ),
            {"l1": "L", "l2": "L", "v": "V", "t": "T"},
            {"x1": "a", "y1": "b", "x2": "a", "y2": "b"},
        )
        v = satisfies(bad, s.declaration("jm"), sig)
        assert v.status is Status.INVALID
        with pytest.raises(GraphError):
            propagate_evidence(v, sig.dependency("d1"), s)


def _span_binding(sig, carrier, nodes, legs):
    """The [jm] arity onto a span of the carrier: apex and feet, then the two legs."""
    arity = sig.symbols["[jm]"].arity
    return GraphMorphism(arity, carrier, dict(zip("012", nodes)), dict(zip(("01", "02"), legs)))


def _span_sketches():
    """The closure sketches of tests/test_sketch.py, and the carrier f: A->B, g: A->C
    where a user-declared `x/d1` puts [1] on g, so [jm] x's first leg goes to `x/d1'`."""
    sig = span_signature()
    span = Graph.build(["L", "V", "T"], [("lcdBy", "L", "V"), ("covers", "L", "T")])
    jm1 = ConstraintDeclaration("jm1", "[jm]", _span_binding(sig, span, "LVT", ("lcdBy", "covers")))
    legone = ConstraintDeclaration(
        "legone", "[1]", compose(sig.dependency("d1").arity_map, jm1.binding)
    )
    jm2 = ConstraintDeclaration("jm2", "[jm]", jm1.binding)
    fg = Graph.build(["A", "B", "C"], [("f", "A", "B"), ("g", "A", "C")])
    x = ConstraintDeclaration("x", "[jm]", _span_binding(sig, fg, "ABC", ("f", "g")))
    on_g = ConstraintDeclaration("x/d1", "[1]", compose(sig.dependency("d2").arity_map, x.binding))
    return {
        "span": Sketch("span", span, sig, (jm1,)),
        "found": Sketch("found", fg, sig, (x, on_g)),
        "legone": Sketch("legone", span, sig, (jm1, legone)),
        "duplicate": Sketch("duplicate", span, sig, (jm1, jm2)),
    }


def _chain_sketch():
    a = multiplicity_symbol([(1, 1)], name="a")
    b = multiplicity_symbol([(0, 1)], name="b")
    c = multiplicity_symbol([(0, None)], name="c")
    i = identity(a.arity)
    sig = Signature(
        {"a": a, "b": b, "c": c},
        (Dependency("ab", "a", "b", i), Dependency("bc", "b", "c", i)),
    )
    carrier = Graph.build(["X", "Y"], [("r", "X", "Y")])
    binding = GraphMorphism(a.arity, carrier, {"A": "X", "B": "Y"}, {"r": "r"})
    return Sketch("chain", carrier, sig, (ConstraintDeclaration("d", "a", binding),))


class TestPropagationNamesTheHolder:
    """A lifted verdict is, byte for byte, the closed report's verdict for the
    declaration that holds the consequence: its id, evidence and counterexample."""

    @pytest.mark.parametrize("name", ["span", "found", "legone", "duplicate", "chain"])
    def test_lifted_verdict_is_the_holders(self, name):
        sketch = _chain_sketch() if name == "chain" else _span_sketches()[name]
        closed = close_sketch(sketch)
        rng = random.Random(f"propagation-{name}")
        lifted = set()
        for _ in range(40):
            report = validate_instance(closed, random_typed_instance(rng, closed.carrier))
            for d in closed.declarations:
                v = report.verdict_for(d.id)
                if not v.is_valid:
                    continue
                for dep in closed.signature.dependencies_of(d.label):
                    holder = consequence(closed.declarations, d, dep)
                    out = propagate_evidence(v, dep, closed)
                    expected = report.verdict_for(holder.id).to_json()
                    assert json.dumps(out.to_json()) == json.dumps(expected), (d.id, dep.id)
                    lifted.add((d.id, dep.id))
        # every dependency of every declaration was lifted from some Valid verdict
        deps = closed.signature.dependencies_of
        assert lifted == {(d.id, dep.id) for d in closed.declarations for dep in deps(d.label)}

    def _found_case(self):
        closed = close_sketch(_span_sketches()["found"])
        assert [d.id for d in closed.declarations] == ["x", "x/d1", "x/d1'"]
        # one A element with one f link and two g links
        t = TypedInstance.build(
            closed.carrier,
            Graph.build(
                ["a", "b", "c1", "c2"], [("p", "a", "b"), ("q1", "a", "c1"), ("q2", "a", "c2")]
            ),
            {"a": "A", "b": "B", "c1": "C", "c2": "C"},
            {"p": "f", "q1": "g", "q2": "g"},
        )
        return closed, validate_instance(closed, t)

    @pytest.mark.parametrize("dep_id,holder,status", [
        ("d1", "x/d1'", Status.VALID),  # closure primed the id x/d1 holds
        ("d2", "x/d1", Status.INVALID),  # the user declared it as x/d1
    ])
    def test_found_sketch(self, dep_id, holder, status):
        closed, report = self._found_case()
        x = report.verdict_for("x")
        assert x.is_valid
        out = propagate_evidence(x, closed.signature.dependency(dep_id), closed)
        assert out.declaration == holder and out.status is status
        assert json.dumps(out.to_json()) == json.dumps(report.verdict_for(holder).to_json())

    def test_duplicate_lifts_to_the_first_holder(self):
        closed = close_sketch(_span_sketches()["duplicate"])
        assert [d.id for d in closed.declarations] == ["jm1", "jm2", "jm1/d1", "jm1/d2"]
        t = random_typed_instance(random.Random(0), closed.carrier)
        v = satisfies(t, closed.declaration("jm2"), closed.signature)
        assert v.is_valid
        out = propagate_evidence(v, closed.signature.dependency("d1"), closed)
        assert out.declaration == "jm1/d1"

    def test_refusals_are_graph_errors(self):
        closed, report = self._found_case()
        x = report.verdict_for("x")
        d1 = closed.signature.dependency("d1")
        unregistered = Dependency("d9", "[jm]", "[1]", d1.arity_map)
        cases = [
            (Verdict(x.evidence), d1, closed),  # a verdict with no declaration
            (x.with_declaration("nope"), d1, closed),  # one the sketch lacks
            (x, unregistered, closed),
            (x, d1, _span_sketches()["found"]),  # not closed: x/d1' is missing
        ]
        for v, dep, sketch in cases:
            with pytest.raises(GraphError):
                propagate_evidence(v, dep, sketch)


class TestPullbackDelta:
    def test_identity_map(self):
        t = vehicle_registry_instance()
        d = identity_delta(t)
        out = pullback_delta(identity(t.schema), d)
        assert deltas_equivalent(
            out, identity_delta(out.source)
        ) or canonical_restriction(out.apex) == canonical_restriction(out.source)

    def test_identity_delta_pulls_to_identity_delta(self):
        t = vehicle_registry_instance()
        frag = Graph.build(["Vehicle", "Wheel"], [("has", "Vehicle", "Wheel")])
        inc = GraphMorphism(
            frag, t.schema, {"Vehicle": "Vehicle", "Wheel": "Wheel"}, {"has": "has"}
        )
        out = pullback_delta(inc, identity_delta(t))
        assert deltas_equivalent(out, identity_delta(out.source))

    def test_preserves_composition(self):
        from dcl.instances import compose_delta

        rng = random.Random(33)
        checked = 0
        while checked < 15:
            g2 = random_graph(rng, 3, 3)
            f = random_morphism_into(rng, g2, 3, 3)
            apex1 = random_typed_instance(rng, g2, 2, 2)
            mid = random_typed_instance(rng, g2, 2, 2)
            legs1 = list(iter_slice_morphisms(apex1, mid))
            if not legs1:
                continue
            d1 = Delta(SliceMorphism.identity(apex1), legs1[0])
            tgt = random_typed_instance(rng, g2, 2, 2)
            legs2 = list(iter_slice_morphisms(mid, tgt))
            if not legs2:
                continue
            d2 = Delta(SliceMorphism.identity(mid), legs2[0])
            left = pullback_delta(f, compose_delta(d1, d2))
            right = compose_delta(pullback_delta(f, d1), pullback_delta(f, d2))
            assert deltas_equivalent(left, right)
            checked += 1


class TestLocality:
    def test_outside_mutation_preserves_evidence(self):
        sketch = vehicle_registry_sketch()
        t = vehicle_registry_instance()
        d = sketch.declaration("has:[1..4,6]")
        before = satisfies(t, d, sketch.signature)
        # add material entirely outside the binding image (a new license)
        carrier = t.carrier
        bigger = Graph.build(
            list(carrier.sorted_nodes) + ["l2"],
            [(a.id, a.src, a.tgt) for a in carrier.sorted_arrows] + [("lc2", "d1", "l2")],
        )
        typing_nodes = dict(t.typing.node_map)
        typing_nodes["l2"] = "License"
        typing_arrows = dict(t.typing.arrow_map)
        typing_arrows["lc2"] = "lcdBy"
        mutated = TypedInstance.build(t.schema, bigger, typing_nodes, typing_arrows)
        after = satisfies(mutated, d, sketch.signature)
        assert before.status == after.status
        assert serialize_instance(before.evidence.restricted) == serialize_instance(
            after.evidence.restricted
        )
