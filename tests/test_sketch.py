import pytest

from dcl.graphs import Graph, GraphMorphism, compose, identity
from dcl.fixtures import span_signature, vehicle_registry_sketch
from dcl.signature import (
    Dependency,
    Signature,
    multiplicity_symbol,
)
from dcl.sketch import (
    ConstraintDeclaration,
    Sketch,
    SketchError,
    close_sketch,
    is_closed,
    translate_declaration,
)


def span_sketch():
    sig = span_signature()
    carrier = Graph.build(
        ["L", "V", "T"], [("lcdBy", "L", "V"), ("covers", "L", "T")]
    )
    binding = GraphMorphism(
        sig.symbols["[jm]"].arity,
        carrier,
        {"0": "L", "1": "V", "2": "T"},
        {"01": "lcdBy", "02": "covers"},
    )
    return Sketch("span", carrier, sig, (ConstraintDeclaration("jm1", "[jm]", binding),))


class TestSketchValidation:
    def test_unknown_label(self):
        s = span_sketch()
        with pytest.raises(SketchError):
            Sketch(
                "bad",
                s.carrier,
                s.signature,
                (ConstraintDeclaration("d", "nope", s.declarations[0].binding),),
            )

    def test_duplicate_ids(self):
        s = span_sketch()
        d = s.declarations[0]
        with pytest.raises(SketchError):
            Sketch("bad", s.carrier, s.signature, (d, d))

    def test_extensional_duplicates_not_rejected(self):
        # declarations with the same label and binding are legal
        s = span_sketch()
        d = s.declarations[0]
        dup = ConstraintDeclaration("jm2", d.label, d.binding)
        multi = Sketch("multi", s.carrier, s.signature, (d, dup))
        assert [e.id for e in multi.declarations] == ["jm1", "jm2"]


class TestClosure:
    def test_span_closure_adds_both_legs(self):
        s = span_sketch()
        closed = close_sketch(s)
        ids = [d.id for d in closed.declarations]
        assert ids == ["jm1", "jm1/d1", "jm1/d2"]
        sig = s.signature
        b = s.declarations[0].binding
        assert closed.declaration("jm1/d1").binding == compose(
            sig.dependency("d1").arity_map, b
        )
        assert closed.declaration("jm1/d2").binding == compose(
            sig.dependency("d2").arity_map, b
        )
        assert closed.declaration("jm1/d1").label == "[1]"

    def test_idempotent(self):
        closed = close_sketch(span_sketch())
        again = close_sketch(closed)
        assert [d.id for d in again.declarations] == [d.id for d in closed.declarations]
        assert is_closed(closed)

    def test_monotone(self):
        s = span_sketch()
        closed = close_sketch(s)
        assert set(d.id for d in s.declarations) <= set(d.id for d in closed.declarations)

    def test_chain_dependency_depth_two(self):
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
        s = Sketch("chain", carrier, sig, (ConstraintDeclaration("d", "a", binding),))
        closed = close_sketch(s)
        ids = [d.id for d in closed.declarations]
        assert ids == ["d", "d/ab", "d/ab/bc"]
        assert close_sketch(closed).declarations == closed.declarations

    def test_already_present_consequence_not_duplicated(self):
        s = span_sketch()
        sig = s.signature
        b = s.declarations[0].binding
        pre = ConstraintDeclaration(
            "legone", "[1]", compose(sig.dependency("d1").arity_map, b)
        )
        s2 = Sketch("span", s.carrier, sig, (s.declarations[0], pre))
        closed = close_sketch(s2)
        labels = [(d.label, d.binding) for d in closed.declarations]
        assert len(labels) == len(set((l, tuple(sorted(b.node_map.items()))) for l, b in labels))
        assert len(closed.declarations) == 3

    def test_taken_id_is_primed(self):
        # "jm1/d1" already declares [1] on the second leg, so the [1] on the
        # first leg that closure adds along d1 takes the next free id
        s = span_sketch()
        second = compose(s.signature.dependency("d2").arity_map, s.declarations[0].binding)
        taken = ConstraintDeclaration("jm1/d1", "[1]", second)
        closed = close_sketch(Sketch("span", s.carrier, s.signature, (s.declarations[0], taken)))
        assert [d.id for d in closed.declarations] == ["jm1", "jm1/d1", "jm1/d1'"]
        assert closed.declaration("jm1/d1'").binding.arrow_map == {"r": "lcdBy"}
        assert close_sketch(closed).declarations == closed.declarations


class TestTranslation:
    def test_identity_translation(self):
        s = span_sketch()
        d = s.declarations[0]
        out = translate_declaration(identity(s.carrier), d)
        assert out.label == d.label and out.binding == d.binding and out.id == d.id

    def test_functorial_in_f(self):
        s = vehicle_registry_sketch()
        carrier = s.carrier
        bigger = Graph.build(
            list(carrier.sorted_nodes) + ["Extra"],
            [(a.id, a.src, a.tgt) for a in carrier.sorted_arrows],
        )
        inc = GraphMorphism(
            carrier,
            bigger,
            {n: n for n in carrier.nodes},
            {a: a for a in carrier.arrow_by_id},
        )
        biggest = Graph.build(
            list(bigger.sorted_nodes) + ["More"],
            [(a.id, a.src, a.tgt) for a in bigger.sorted_arrows],
        )
        inc2 = GraphMorphism(
            bigger,
            biggest,
            {n: n for n in bigger.nodes},
            {a: a for a in bigger.arrow_by_id},
        )
        for d in s.declarations:
            once = translate_declaration(compose(inc, inc2), d)
            twice = translate_declaration(inc2, translate_declaration(inc, d))
            assert once.binding == twice.binding and once.label == twice.label

    def test_mismatch_rejected(self):
        s = span_sketch()
        other = Graph.build(["Z"])
        f = GraphMorphism(other, other, {"Z": "Z"}, {})
        with pytest.raises(SketchError):
            translate_declaration(f, s.declarations[0])

