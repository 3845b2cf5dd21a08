import random
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dcl.graphs import Graph, GraphMorphism, identity, search_morphisms
from dcl.instances import (
    SliceMorphism,
    TypedInstance,
    canonical_restriction,
    to_indexed,
)
from dcl.io import load
from dcl.randgen import random_typed_instance
from dcl.satisfaction import validate_instance
from dcl.signature import (
    Commutativity,
    CompositeSubset4,
    ConstraintSymbol,
    Dependency,
    JointlyMonic,
    Key,
    Lifting,
    Multiplicity,
    Regular,
    Signature,
    SignatureError,
    Subset,
    Table,
    check_injectivity,
    commutativity_symbol,
    composite_subset_symbol,
    evaluate,
    format_intervals,
    jointly_monic_symbol,
    key_symbol,
    lifting_to_regular,
    multiplicity_symbol,
    parallel_pair_arity,
    regular_to_lifting,
    single_arrow_arity,
    subset_symbol,
    triangle_arity,
    verify_dependency_soundness,
)
from dcl.fixtures import (
    existence_formula,
    existence_symbol,
    span_signature,
    uniqueness_symbol,
)
from dcl.verdicts import Status, Verdict
from oracles import iter_typed_instances


def check_lifting(t, m, n):
    """The verdict of the lifting pair (m, n) on t, as `Lifting.decide` gives it."""
    return Lifting(m, n).decide(t)


def arity_instance(nodes, arrows, node_typing, arrow_typing, arity=None):
    return TypedInstance.build(
        arity if arity is not None else single_arrow_arity(),
        Graph.build(nodes, arrows),
        node_typing,
        arrow_typing,
    )


# Table-style FOL predicates coded directly over the indexed view; these are
# the independent oracles the builtin semantics must agree with.


def fol_exists(t):
    ix = to_indexed(t)
    return all(
        any(src == a for _, src, _ in ix.arrow_spans["r"]) for a in ix.node_sets["A"]
    )


def fol_at_most_one(t):
    ix = to_indexed(t)
    for a in ix.node_sets["A"]:
        targets = [tgt for _, src, tgt in ix.arrow_spans["r"] if src == a]
        if len(targets) > 1:
            return False
    return True


def fol_subset(t):
    ix = to_indexed(t)
    pairs2 = {(s, x) for _, s, x in ix.arrow_spans["r2"]}
    return all((s, x) in pairs2 for _, s, x in ix.arrow_spans["r1"])


class TestMultiplicity:
    def test_interval_validation(self):
        with pytest.raises(SignatureError):
            Multiplicity(((2, 1),))
        with pytest.raises(SignatureError):
            Multiplicity(((1, None), (3, 4)))
        with pytest.raises(SignatureError):
            Multiplicity(((1, 4), (4, 6)))
        with pytest.raises(SignatureError):
            Multiplicity(())

    def test_format(self):
        assert format_intervals(((1, 4), (6, 6))) == "[1..4,6]"
        assert format_intervals(((0, 1),)) == "[0..1]"
        assert format_intervals(((1, None),)) == "[1..*]"

    def test_sparse_interval(self):
        sym = multiplicity_symbol([(1, 4), (6, 6)])
        for count, expected in [(3, Status.VALID), (5, Status.INVALID), (6, Status.VALID)]:
            nodes = ["a"] + [f"b{i}" for i in range(count)]
            arrows = [(f"l{i}", "a", f"b{i}") for i in range(count)]
            t = arity_instance(
                nodes,
                arrows,
                {"a": "A", **{f"b{i}": "B" for i in range(count)}},
                {f"l{i}": "r" for i in range(count)},
            )
            assert evaluate(sym, t).status is expected

    def test_empty_source_vacuous(self):
        sym = multiplicity_symbol([(1, None)])
        t = TypedInstance.empty(sym.arity)
        assert evaluate(sym, t).is_valid

    def test_counterexample_names_offender(self):
        sym = multiplicity_symbol([(1, None)])
        t = arity_instance(["a"], [], {"a": "A"}, {})
        v = evaluate(sym, t)
        assert v.status is Status.INVALID and len(v.counterexample.offenders) == 1

    def test_agrees_with_fol(self):
        for sym, oracle in [
            (multiplicity_symbol([(1, None)]), fol_exists),
            (multiplicity_symbol([(0, 1)]), fol_at_most_one),
        ]:
            for t in iter_typed_instances(sym.arity, 2, 2):
                assert evaluate(sym, t).is_valid == oracle(t)


class TestKey:
    def _instance(self, rows):
        # rows: element -> (name target, date target)
        arity = key_symbol(["name", "bdate"]).arity
        nodes = list(rows) + ["s1", "s2", "t1", "t2"]
        typing = {e: "C" for e in rows}
        typing.update({"s1": "V0", "s2": "V0", "t1": "V1", "t2": "V1"})
        arrows, amap = [], {}
        for i, (e, (s, t)) in enumerate(rows.items()):
            arrows += [(f"n{i}", e, s), (f"b{i}", e, t)]
            amap.update({f"n{i}": "name", f"b{i}": "bdate"})
        return TypedInstance.build(arity, Graph.build(nodes, arrows), typing, amap)

    def test_collision_invalid(self):
        t = self._instance({"e1": ("s1", "t1"), "e2": ("s1", "t1")})
        v = evaluate(key_symbol(["name", "bdate"]), t)
        assert v.status is Status.INVALID and len(v.counterexample.offenders) == 2

    def test_distinct_valid(self):
        t = self._instance({"e1": ("s1", "t1"), "e2": ("s1", "t2")})
        assert evaluate(key_symbol(["name", "bdate"]), t).is_valid


class TestSubset:
    def test_agrees_with_fol(self):
        sym = subset_symbol()
        for t in iter_typed_instances(sym.arity, 2, 1):
            assert evaluate(sym, t).is_valid == fol_subset(t)

    def test_witness_is_assignment(self):
        sym = subset_symbol()
        t = arity_instance(
            ["a", "b"],
            [("x", "a", "b"), ("y", "a", "b")],
            {"a": "A", "b": "B"},
            {"x": "r1", "y": "r2"},
            arity=sym.arity,
        )
        v = evaluate(sym, t)
        assert v.is_valid and len(v.evidence.witness["inclusion"]) == 1


class TestCompositeSubset:
    def test_uncovered_composite(self):
        sym = composite_subset_symbol()
        t = TypedInstance.build(
            sym.arity,
            Graph.build(
                ["a", "b", "d"], [("x", "a", "b"), ("y", "b", "d")]
            ),
            {"a": "A", "b": "B", "d": "D"},
            {"x": "r1", "y": "r2"},
        )
        assert evaluate(sym, t).status is Status.INVALID

    def test_covered_composite(self):
        sym = composite_subset_symbol()
        t = TypedInstance.build(
            sym.arity,
            Graph.build(
                ["a", "b", "c", "d"],
                [("x", "a", "b"), ("y", "b", "d"), ("u", "a", "c"), ("v", "c", "d")],
            ),
            {"a": "A", "b": "B", "c": "C", "d": "D"},
            {"x": "r1", "y": "r2", "u": "s1", "v": "s2"},
        )
        assert evaluate(sym, t).is_valid


class TestJointlyMonic:
    def test_multivalued_leg_alone_accepted(self):
        # leg functionality belongs to the [1] dependency, not to [jm] itself
        sym = jointly_monic_symbol()
        t = TypedInstance.build(
            sym.arity,
            Graph.build(["o", "p", "q", "q2"], [("f", "o", "p"), ("g", "o", "q"), ("g2", "o", "q2")]),
            {"o": "0", "p": "1", "q": "2", "q2": "2"},
            {"f": "01", "g": "02", "g2": "02"},
        )
        assert evaluate(sym, t).is_valid

    def test_equal_target_multisets_rejected(self):
        sym = jointly_monic_symbol()
        t = TypedInstance.build(
            sym.arity,
            Graph.build(
                ["o1", "o2", "p", "q", "q2"],
                [("f1", "o1", "p"), ("g1", "o1", "q"), ("g1b", "o1", "q2"),
                 ("f2", "o2", "p"), ("g2", "o2", "q"), ("g2b", "o2", "q2")],
            ),
            {"o1": "0", "o2": "0", "p": "1", "q": "2", "q2": "2"},
            {"f1": "01", "g1": "02", "g1b": "02", "f2": "01", "g2": "02", "g2b": "02"},
        )
        assert evaluate(sym, t).status is Status.INVALID

    def test_pairing_injective(self):
        sym = jointly_monic_symbol()
        t = TypedInstance.build(
            sym.arity,
            Graph.build(
                ["o1", "o2", "p", "q"],
                [("f1", "o1", "p"), ("g1", "o1", "q"), ("f2", "o2", "p"), ("g2", "o2", "q")],
            ),
            {"o1": "0", "o2": "0", "p": "1", "q": "2"},
            {"f1": "01", "g1": "02", "f2": "01", "g2": "02"},
        )
        v = evaluate(sym, t)
        assert v.status is Status.INVALID
        assert set(v.counterexample.offenders) <= set(t.carrier.nodes) or True


class TestCommutativity:
    def test_commuting_square(self):
        sym = commutativity_symbol()
        t = TypedInstance.build(
            sym.arity,
            Graph.build(
                ["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c"), ("z", "a", "c")]
            ),
            {"a": "A", "b": "B", "c": "C"},
            {"x": "f", "y": "g", "z": "h"},
        )
        assert evaluate(sym, t).is_valid

    def test_missing_direct_pair(self):
        sym = commutativity_symbol()
        t = TypedInstance.build(
            sym.arity,
            Graph.build(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c")]),
            {"a": "A", "b": "B", "c": "C"},
            {"x": "f", "y": "g"},
        )
        assert evaluate(sym, t).status is Status.INVALID


class TestInjectivityCheck:
    def test_iso_formula_always_valid(self):
        rng = random.Random(21)
        f = existence_formula()
        iso = SliceMorphism(f.to, f.to, identity(f.to.carrier))
        for _ in range(10):
            t = random_typed_instance(rng, single_arrow_arity())
            assert check_injectivity(t, Regular(iso)).is_valid

    def test_existence_counterexample(self):
        t = arity_instance(["a"], [], {"a": "A"}, {})
        v = check_injectivity(t, Regular(existence_formula()))
        assert v.status is Status.INVALID

    def test_unknown_on_limit(self):
        t = arity_instance(
            ["a", "b1", "b2"],
            [("l1", "a", "b1"), ("l2", "a", "b2")],
            {"a": "A", "b1": "B", "b2": "B"},
            {"l1": "r", "l2": "r"},
        )
        v = check_injectivity(t, Regular(existence_formula(), 1))
        assert v.status is Status.UNKNOWN
        assert v.evidence is None

    def test_uniqueness_matches_interval(self):
        un, m01 = uniqueness_symbol(), multiplicity_symbol([(0, 1)])
        for t in iter_typed_instances(single_arrow_arity(), 2, 2):
            assert evaluate(un, t).is_valid == evaluate(m01, t).is_valid


class TestLiftingCheck:
    def test_translation_agrees(self):
        rng = random.Random(22)
        reg = Regular(existence_formula())
        lif = regular_to_lifting(single_arrow_arity(), reg)
        for _ in range(60):
            t = random_typed_instance(rng, single_arrow_arity())
            a = check_injectivity(t, reg)
            b = check_lifting(t, lif.m, lif.n)
            assert a.status == b.status

    def test_roundtrip_preserves_verdicts(self):
        reg = Regular(existence_formula())
        lif = regular_to_lifting(single_arrow_arity(), reg)
        back = lifting_to_regular(lif)
        for t in iter_typed_instances(single_arrow_arity(), 2, 2):
            assert check_injectivity(t, reg).status == check_injectivity(t, back).status

    def test_empty_testing_object(self):
        # with W empty there is one testing map; validity = existence of a lift
        arity = single_arrow_arity()
        r = Graph.build(["a"])
        n = GraphMorphism(r, arity, {"a": "A"}, {})
        m = GraphMorphism(Graph.empty(), r, {}, {})
        empty_inst = TypedInstance.empty(arity)
        nonempty = arity_instance(["x"], [], {"x": "A"}, {})
        assert check_lifting(empty_inst, m, n).status is Status.INVALID
        assert check_lifting(nonempty, m, n).is_valid

    def test_pair_over_another_schema_refused(self):
        lif = regular_to_lifting(single_arrow_arity(), Regular(existence_formula()))
        t = TypedInstance.empty(parallel_pair_arity())
        with pytest.raises(SignatureError, match="lifting pair does not target the arity"):
            lif.decide(t)


class TestTable:
    def test_match_and_miss(self):
        arity = single_arrow_arity()
        entry = arity_instance(["a", "b"], [("l", "a", "b")], {"a": "A", "b": "B"}, {"l": "r"})
        sym = ConstraintSymbol("[table]", arity, Table((("row1", entry),)))
        renamed = arity_instance(["p", "q"], [("m", "p", "q")], {"p": "A", "q": "B"}, {"m": "r"})
        v = evaluate(sym, renamed)
        assert v.is_valid and v.evidence.witness == {"entry": "row1"}
        missing = arity_instance(["a"], [], {"a": "A"}, {})
        assert evaluate(sym, missing).status is Status.INVALID

    def test_duplicate_entries_rejected(self):
        entry = arity_instance(["a"], [], {"a": "A"}, {})
        other = arity_instance(["z"], [], {"z": "A"}, {})
        with pytest.raises(SignatureError):
            Table((("r1", entry), ("r2", other)))


class TestSemanticsOverArity:
    """A semantics that lives over another graph than the symbol's arity is
    refused when the symbol is built."""

    def test_table_entry_over_another_schema(self):
        other = TypedInstance.build(Graph.build(["X"]), Graph.build(["x"]), {"x": "X"}, {})
        with pytest.raises(SignatureError, match="semantics lives over another graph"):
            ConstraintSymbol("[t]", single_arrow_arity(), Table((("row", other),)))

    def test_formula_over_another_arity(self):
        with pytest.raises(SignatureError, match="semantics lives over another graph"):
            ConstraintSymbol("[r]", parallel_pair_arity(), Regular(existence_formula()))

    def test_lifting_pair_targets_another_graph(self):
        lifting = regular_to_lifting(single_arrow_arity(), Regular(existence_formula()))
        with pytest.raises(SignatureError, match="semantics lives over another graph"):
            ConstraintSymbol("[l]", parallel_pair_arity(), lifting)

    def test_each_kind_over_its_arity_builds(self):
        arity = single_arrow_arity()
        entry = arity_instance(["a"], [], {"a": "A"}, {})
        regular = Regular(existence_formula())
        for semantics in (Table((("row", entry),)), regular, regular_to_lifting(arity, regular)):
            assert ConstraintSymbol("[c]", arity, semantics).semantics is semantics


class TestArityShape:
    """Multiplicities, keys, [jm] and the three semantics that compare paths
    decide without checking the shape of their arity, so a symbol of another
    shape is refused when it is built."""

    @pytest.mark.parametrize(
        "arity,semantics,message",
        [
            (parallel_pair_arity(), Multiplicity(((1, 1),)), "a multiplicity needs exactly one"),
            (Graph.build(["C"]), Key(), "a key needs arrows, all from one node"),
            (triangle_arity(), Key(), "a key needs arrows, all from one node"),
            (
                Graph.build(["0", "1", "2"], [("01", "0", "1"), ("02", "1", "2")]),
                JointlyMonic(),
                "a jointly_monic needs arrows, all from one node",
            ),
            (
                Graph.build(["A", "B", "C"], [("r1", "A", "B"), ("r2", "A", "C")]),
                Subset(),
                "a subset needs paths that compose, all between the same two nodes",
            ),
            (
                Graph.build(
                    ["A", "B", "C", "D", "E"],
                    [("r1", "A", "B"), ("r2", "B", "D"), ("s1", "A", "C"), ("s2", "C", "E")],
                ),
                CompositeSubset4(),
                "a composite_subset4 needs paths that compose, all between the same two nodes",
            ),
            (
                Graph.build(
                    ["A", "B", "C", "D"], [("f", "A", "B"), ("g", "C", "D"), ("h", "A", "D")]
                ),
                Commutativity(("f", "g"), "h"),
                "a commutativity needs paths that compose, all between the same two nodes",
            ),
        ],
        ids=[
            "multiplicity-two-arrows",
            "key-no-arrow",
            "key-two-sources",
            "jm-two-sources",
            "subset-two-targets",
            "sub4-two-ends",
            "comm-path-not-composing",
        ],
    )
    def test_refused_when_built(self, arity, semantics, message):
        with pytest.raises(SignatureError, match=rf"^symbol '\[s\]': {message}"):
            ConstraintSymbol("[s]", arity, semantics)


class TestIsoInvariance:
    def test_all_builtin_kinds(self):
        rng = random.Random(23)
        symbols = [
            multiplicity_symbol([(0, 1)]),
            multiplicity_symbol([(1, None)]),
            subset_symbol(),
            jointly_monic_symbol(),
            existence_symbol(),
        ]
        for sym in symbols:
            for _ in range(10):
                t = random_typed_instance(rng, sym.arity)
                perm = list(t.carrier.sorted_nodes)
                rng.shuffle(perm)
                node_map = dict(zip(t.carrier.sorted_nodes, perm))
                arrows = [
                    (f"z{a.id}", node_map[a.src], node_map[a.tgt])
                    for a in t.carrier.sorted_arrows
                ]
                u = TypedInstance.build(
                    sym.arity,
                    Graph.build(perm, arrows),
                    {node_map[n]: t.typing.node_map[n] for n in t.carrier.nodes},
                    {f"z{a.id}": t.typing.arrow_map[a.id] for a in t.carrier.sorted_arrows},
                )
                va, vb = evaluate(sym, t), evaluate(sym, u)
                assert va.status == vb.status
                if va.is_valid:
                    from dcl.instances import serialize_instance

                    assert serialize_instance(va.evidence.restricted) == serialize_instance(
                        vb.evidence.restricted
                    )


SPAN_SYMBOLS = (
    multiplicity_symbol([(1, None)]),
    key_symbol(["k1", "k2"]),
    subset_symbol(),
    composite_subset_symbol(),
    jointly_monic_symbol(),
    commutativity_symbol(),
)


class FibreSpy:
    """A semantics that records what `evaluate` hands its decision procedure."""

    kind = "spy"

    def __init__(self):
        self.seen = []

    def decide(self, t):
        self.seen.append((t, t.fibres))
        return Verdict(detail="recorded")


@st.composite
def bound_instances(draw):
    """(symbol, t, b): a span-based symbol, an instance t of up to 16
    elements and 20 links over a drawn schema G with a loop R0 on N0, and a
    binding b: arity -> G, which the loop makes sure exists."""
    symbol = draw(st.sampled_from(SPAN_SYMBOLS))
    nodes = [f"N{i}" for i in range(draw(st.integers(1, 3)))]
    ends = [("N0", "N0")] + draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=3)
    )
    schema = Graph.build(nodes, [(f"R{k}", s, t) for k, (s, t) in enumerate(ends)])
    b = draw(st.sampled_from(list(search_morphisms(symbol.arity, schema))))
    types = draw(st.lists(st.sampled_from(nodes), max_size=16))
    elements = {f"x{i}": h for i, h in enumerate(types)}
    links, link_typing = [], {}
    for _ in range(draw(st.integers(0, 20))):
        arrow = draw(st.sampled_from(schema.sorted_arrows))
        srcs = [x for x, h in elements.items() if h == arrow.src]
        tgts = [x for x, h in elements.items() if h == arrow.tgt]
        if srcs and tgts:
            link = f"l{len(links)}"
            links.append((link, draw(st.sampled_from(srcs)), draw(st.sampled_from(tgts))))
            link_typing[link] = arrow.id
    t = TypedInstance.build(schema, Graph.build(elements, links), elements, link_typing)
    return symbol, t, b


def twelve_links() -> tuple:
    """[1..*] on an instance of 13 elements and 12 links: past ten ids, n10 sorts before n2."""
    arity = single_arrow_arity()
    elements = {"a": "A", **{f"b{i}": "B" for i in range(12)}}
    links = [(f"l{i}", "a", f"b{i}") for i in range(12)]
    typing = {link: "r" for link, _, _ in links}
    t = TypedInstance.build(arity, Graph.build(elements, links), elements, typing)
    return SPAN_SYMBOLS[0], t, identity(arity)


class TestCanonicalFibres:
    """`evaluate` hands each decision a canonical instance that holds its own fibres."""

    @given(bound_instances())
    @example(twelve_links())
    @settings(deadline=None)
    def test_fibres_are_the_canonical_instances(self, case):
        symbol, t, b = case
        spy = FibreSpy()
        evaluate(ConstraintSymbol("[spy]", symbol.arity, spy), t, b)
        ((canonical, fibres),) = spy.seen
        assert canonical == canonical_restriction(t, b)
        node_fibres, arrow_fibres = canonical.typing.node_fibres(), canonical.typing.arrow_fibres()
        for held in (fibres, canonical_restriction(t, b).fibres):
            # dict and list order included
            assert list(held[0].items()) == list(node_fibres.items())
            assert list(held[1].items()) == list(arrow_fibres.items())
        # a plain instance with the same typing holds none and groups afresh
        plain = TypedInstance(canonical.typing)
        assert "_fibres" not in vars(plain)
        given_fibres = symbol.semantics.decide(canonical).to_json()
        assert given_fibres == symbol.semantics.decide(plain).to_json()
        assert evaluate(symbol, t, b).to_json() == given_fibres

    def test_loaded_instance_holds_no_fibres(self):
        # a loaded instance keeps only its typing: fibres are grouped per call,
        # never stored on it, however many declarations restrict it
        data = resources.files("dcl") / "data"
        sketch = load(str(data / "registry-sketch.json"))
        t = load(str(data / "registry-valid.json"))
        assert validate_instance(sketch, t).overall is Status.VALID
        for d in sketch.declarations:
            evaluate(sketch.signature.symbols[d.label], t, d.binding)
        assert vars(t) == {"typing": t.typing}
        assert t.fibres == (t.typing.node_fibres(), t.typing.arrow_fibres())
        assert vars(t) == {"typing": t.typing}

    def test_validation_groups_once(self, monkeypatch):
        # the seven declarations restrict one grouping of the loaded instance
        data = resources.files("dcl") / "data"
        sketch = load(str(data / "registry-sketch.json"))
        t = load(str(data / "registry-valid.json"))
        grouped = []
        real = GraphMorphism.node_fibres
        monkeypatch.setattr(GraphMorphism, "node_fibres", lambda m: grouped.append(m) or real(m))
        assert validate_instance(sketch, t).overall is Status.VALID
        assert len(sketch.declarations) == 7 and grouped == [t.typing]


class TestSignatureStructure:
    def test_cycle_rejected(self):
        a = multiplicity_symbol([(1, 1)], name="x")
        b = multiplicity_symbol([(0, 1)], name="y")
        i = identity(a.arity)
        with pytest.raises(SignatureError):
            Signature(
                {"x": a, "y": b},
                (Dependency("d1", "x", "y", i), Dependency("d2", "y", "x", i)),
            )

    def test_three_cycle_rejected_and_diamond_accepted(self):
        symbols = {n: multiplicity_symbol([(1, 1)], name=n) for n in "wxyz"}
        i = identity(symbols["w"].arity)

        def deps(*edges):
            return tuple(Dependency(f"{s}{t}", s, t, i) for s, t in edges)

        with pytest.raises(SignatureError, match="dependency graph has a cycle"):
            Signature(symbols, deps(("x", "y"), ("y", "z"), ("z", "x")))
        diamond = deps(("w", "x"), ("w", "y"), ("x", "z"), ("y", "z"))
        assert Signature(symbols, diamond).dependencies == diamond

    def test_identity_self_dependency_allowed(self):
        a = multiplicity_symbol([(1, 1)], name="x")
        Signature({"x": a}, (Dependency("d", "x", "x", identity(a.arity)),))

    def test_non_identity_self_loop_rejected(self):
        sym = subset_symbol(name="x")
        swap = GraphMorphism(
            sym.arity, sym.arity, {"A": "A", "B": "B"}, {"r1": "r2", "r2": "r1"}
        )
        with pytest.raises(SignatureError):
            Signature({"x": sym}, (Dependency("d", "x", "x", swap),))


class TestDependencySoundness:
    def test_sound_identity_dependency(self):
        exact = multiplicity_symbol([(1, 1)])
        loose = multiplicity_symbol([(1, None)])
        sig = Signature(
            {exact.name: exact, loose.name: loose},
            (Dependency("widen", exact.name, loose.name, identity(exact.arity)),),
        )
        report = verify_dependency_soundness(sig, 2)
        assert report.ok and report.checked > 0

    def test_span_signature_obligation_flagged(self):
        # [jm] alone tolerates non-functional legs, so its dependency onto
        # [1] is an obligation the closure must discharge, and the soundness
        # sweep reports the gap with a witness
        report = verify_dependency_soundness(span_signature(), 2)
        assert not report.ok
        v = report.violations[0]
        assert v.dependency in ("d1", "d2")

    def test_wrong_dependency_reported(self):
        m01 = multiplicity_symbol([(0, 1)])
        m1s = multiplicity_symbol([(1, None)])
        sig = Signature(
            {m01.name: m01, m1s.name: m1s},
            (Dependency("bad", m01.name, m1s.name, identity(m01.arity)),),
        )
        report = verify_dependency_soundness(sig, 1)
        assert not report.ok
        # the empty-source instance with a lone target is [0..1]-valid but
        # not [1..*]-valid... the minimal witness has an unlinked source
        assert any(v.dependency == "bad" for v in report.violations)

    def test_no_dependencies_empty_report(self):
        m = multiplicity_symbol([(1, 1)])
        report = verify_dependency_soundness(Signature({m.name: m}), 2)
        assert report.ok and report.checked == 0
