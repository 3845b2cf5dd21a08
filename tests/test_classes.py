"""Isomorphism-class enumeration against the labelled enumeration it replaced.

`reference_semantic_entails` and `reference_dependency_soundness` are copies
of the two model sweeps as they were before they iterated classes: they
walk every labelled instance and keep the first of each canonical form.
The sweeps over classes must report exactly what these report.
"""

import collections
import dataclasses
import itertools
import json
import math
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dcl.fixtures import (
    edge_pair_theory,
    existence_symbol,
    outgoing_edge_theory,
    uniqueness_symbol,
)
import dcl.graphs
from dcl.graphs import Graph, GraphMorphism, identity
from dcl.injlogic import (
    SemanticResult,
    axiom,
    coproduct_macro,
    identity_formula,
    semantic_entails,
    slice_pushout,
)
import dcl.instances
from dcl.instances import (
    Delta,
    SliceMorphism,
    TypedInstance,
    _canonical_delta,
    _canonical_numbered,
    _families,
    _instance,
    _iter_classes,
    _named,
    _numbered_restriction,
    canonical_restriction,
    compose_delta,
    delta_of,
    dom_lift,
    identity_delta,
    iter_instance_classes,
    pullback_delta,
    restrict,
    serialize_instance,
    terminal_graph,
)
from dcl.io import load
from dcl.signature import (
    ConstraintSymbol,
    Dependency,
    Lifting,
    Multiplicity,
    Regular,
    Signature,
    SoundnessReport,
    SoundnessViolation,
    Table,
    check_injectivity,
    commutativity_symbol,
    composite_subset_symbol,
    evaluate,
    jointly_monic_symbol,
    key_symbol,
    lifting_to_regular,
    multiplicity_symbol,
    numbering,
    parallel_pair_arity,
    regular_to_lifting,
    single_arrow_arity,
    span_arity,
    square_arity,
    subset_symbol,
    triangle_arity,
    verify_dependency_soundness,
)
from dcl.verdicts import Counterexample, Evidence, Status, Verdict
from oracles import iter_typed_instances


def partitions(k: int, largest: int):
    """The partitions of k into parts of at most `largest`, largest part first."""
    if k == 0:
        yield ()
    for part in range(min(k, largest), 0, -1):
        for rest in partitions(k - part, part):
            yield (part, *rest)


def burnside_classes(schema: Graph, max_per_node: int, max_parallel: int) -> int:
    """The number of instance classes that `_iter_classes` yields, counted by
    Burnside's lemma and not by the generator.

    Per size vector, the classes are the orbits of the permutations within
    fibres on the count vectors, one count in 0..max_parallel per slot (an
    arrow and a source and target element).  A permutation fixes
    (max_parallel + 1) ** cells count vectors, `cells` being its cycles on
    the slots: an arrow whose end fibres have cycles of lengths i and j has
    gcd(i, j) cycles on their pairs.  It depends on the cycle types alone, so
    the mean is over cycle types, each weighted by its share 1 / prod(i**m * m!)
    of the permutations of its fibre, m cycles having length i.
    """
    nodes = schema.sorted_nodes
    total = Fraction(0)
    for size in itertools.product(range(max_per_node + 1), repeat=len(nodes)):
        for types in itertools.product(*(partitions(k, k) for k in size)):
            cycles = dict(zip(nodes, types))
            share = Fraction(1)
            for cycle_type in types:
                for i, m in collections.Counter(cycle_type).items():
                    share /= i**m * math.factorial(m)
            cells = sum(
                math.gcd(i, j)
                for a in schema.arrows
                for i in cycles[a.src]
                for j in cycles[a.tgt]
            )
            total += share * (max_parallel + 1) ** cells
    assert total.denominator == 1
    return int(total)


def reference_semantic_entails(theory, goal, size_bound, max_parallel=2, limit=20_000):
    seen: set[bytes] = set()
    checked = 0
    unknown = False
    for a in iter_typed_instances(theory.base, size_bound, max_parallel):
        canonical = canonical_restriction(a)
        key = serialize_instance(canonical)
        if key in seen:
            continue
        seen.add(key)
        model = True
        for f in theory.formulas.values():
            v = check_injectivity(canonical, Regular(f, limit))
            if v.status is Status.UNKNOWN:
                unknown = True
                model = False
                break
            if not v.is_valid:
                model = False
                break
        if not model:
            continue
        checked += 1
        v = check_injectivity(canonical, Regular(goal, limit))
        if v.status is Status.UNKNOWN:
            unknown = True
            continue
        if not v.is_valid:
            return SemanticResult(checked, canonical)
    return SemanticResult(checked, detail="a check was Unknown" if unknown else None)


def reference_dependency_soundness(sig, size_bound, max_parallel=2):
    checked = 0
    violations = []
    undecided = []
    for dep in sig.dependencies:
        source = sig.symbols[dep.source]
        target = sig.symbols[dep.target]
        seen: set[bytes] = set()
        for t in iter_typed_instances(source.arity, size_bound, max_parallel):
            canonical = canonical_restriction(t)
            key = serialize_instance(canonical)
            if key in seen:
                continue
            seen.add(key)
            if not evaluate(source, canonical).is_valid:
                continue
            checked += 1
            restricted = restrict(canonical, dep.arity_map)
            verdict = evaluate(target, restricted)
            if verdict.status is Status.UNKNOWN:
                undecided.append(SoundnessViolation(dep.id, canonical, verdict, "restriction"))
            elif not verdict.is_valid:
                violations.append(SoundnessViolation(dep.id, canonical, verdict))
    return SoundnessReport(checked, tuple(violations), tuple(undecided))


def first_seen_classes(schema, max_per_node, max_parallel):
    """Canonical bytes of each class, in order of its first labelled member."""
    seen: dict[bytes, None] = {}
    for t in iter_typed_instances(schema, max_per_node, max_parallel):
        seen.setdefault(serialize_instance(canonical_restriction(t)), None)
    return list(seen)


def labelled_count(schema, max_per_node, max_parallel):
    """How many instances `iter_typed_instances` yields, without building them."""
    total = 0
    for size in itertools.product(range(max_per_node + 1), repeat=len(schema.nodes)):
        fiber = dict(zip(schema.sorted_nodes, size))
        slots = sum(fiber[a.src] * fiber[a.tgt] for a in schema.arrows)
        total += (max_parallel + 1) ** slots
    return total


@st.composite
def small_schemas(draw):
    """Schemas on at most two nodes with at most three arrows, loops and
    parallel arrows included."""
    nodes = ["A", "B"][: draw(st.integers(0, 2))]
    pairs = []
    if nodes:
        ends = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
        pairs = draw(st.lists(ends, max_size=3))
    return Graph.build(nodes, [(f"r{i}", s, t) for i, (s, t) in enumerate(pairs)])


def criterion_06_goals():
    """The criterion-06 theories, each with every goal of both theories and
    the two derived goals, so that refuted sweeps are compared too."""
    out_theory, pair_theory = outgoing_edge_theory(), edge_pair_theory()
    edge = axiom(out_theory, "out-edge")
    goals = [f for th in (out_theory, pair_theory) for f in th.formulas.values()]
    goals.append(coproduct_macro(edge, edge).conclusion)
    goals.append(pair_theory.formulas["out-edge"].then(pair_theory.formulas["close-cycle"]))
    return [(th, goal) for th in (out_theory, pair_theory) for goal in goals]


def assert_as_validated(x) -> None:
    """x equals what its validating constructor builds from its fields, its maps
    keyed in sorted order, as GraphMorphism would leave them; and so does each
    graph, morphism, instance, slice morphism or delta inside it."""
    if isinstance(x, GraphMorphism):
        assert list(x.node_map) == sorted(x.node_map)
        assert list(x.arrow_map) == sorted(x.arrow_map)
    parts = [getattr(x, f.name) for f in dataclasses.fields(x)]
    assert type(x)(*parts) == x
    for part in parts:
        if isinstance(part, (Graph, GraphMorphism, TypedInstance, SliceMorphism, Delta)):
            assert_as_validated(part)


def report_bytes(report: SoundnessReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def span_key_signature() -> Signature:
    """[jm] with its two legs onto [1], as shipped, and a third dependency
    onto a four-attribute key whose attributes are all the 01 leg: its
    restrictions repeat that leg four times, so they are larger than the
    classes they come from."""
    jm, one = jointly_monic_symbol(), multiplicity_symbol([(1, 1)])
    key = key_symbol(["r1", "r2", "r3", "r4"])
    leg = single_arrow_arity()
    four = GraphMorphism(
        key.arity,
        jm.arity,
        {"C": "0", **{f"V{i}": "1" for i in range(4)}},
        {f"r{i}": "01" for i in range(1, 5)},
    )
    legs = [
        Dependency(d, jm.name, one.name, GraphMorphism(leg, jm.arity, {"A": "0", "B": b}, {"r": r}))
        for d, b, r in (("d1", "1", "01"), ("d2", "2", "02"))
    ]
    return Signature(
        {s.name: s for s in (jm, one, key)}, (*legs, Dependency("d3", jm.name, key.name, four))
    )



def span_signature():
    return load(str(resources.files("dcl") / "data" / "span-signature.json"))


def table_symbol() -> ConstraintSymbol:
    """A table over one arrow whose entries are every other class of at most
    two elements per node, as enumerated, not in canonical form."""
    classes = iter_instance_classes(single_arrow_arity(), 2, 1)
    rows = tuple((f"row{i}", t) for i, t in enumerate(classes) if i % 2 == 0)
    return ConstraintSymbol("[table]", single_arrow_arity(), Table(rows))


def table_signature() -> Signature:
    """The span signature with a table as its source: every third class of [jm]'s
    arity with at most one element per node, as enumerated, and its legs onto [1]."""
    shipped = span_signature()
    arity = shipped.symbols["[jm]"].arity
    classes = iter_instance_classes(arity, 1, 2)
    table = ConstraintSymbol(
        "[rows]", arity, Table(tuple((f"row{i}", t) for i, t in enumerate(classes) if i % 3 == 0))
    )
    deps = tuple(dataclasses.replace(d, source=table.name) for d in shipped.dependencies)
    return Signature({"[1]": shipped.symbols["[1]"], table.name: table}, deps)


def every_builtin_symbol() -> list:
    """(symbol, max_parallel): one symbol per builtin semantics over its arity, the
    regular one twice, each at the most parallel links that keep its classes of at
    most two elements per node below 2,000."""
    unique = uniqueness_symbol()
    lifting = regular_to_lifting(unique.arity, unique.semantics)
    return [
        (multiplicity_symbol([(1, 1)]), 2),
        (key_symbol(["a", "b"]), 2),
        (subset_symbol(), 2),
        (composite_subset_symbol(), 1),
        (jointly_monic_symbol(), 2),
        (commutativity_symbol(), 1),
        (existence_symbol(), 2),
        (unique, 2),
        (ConstraintSymbol("[unique-lifting]", unique.arity, lifting), 2),
        (table_symbol(), 2),
    ]


class TestInstanceClasses:
    @settings(deadline=None)
    @given(small_schemas(), st.integers(0, 2), st.integers(0, 2))
    def test_equals_first_seen_dedup(self, schema, max_per_node, max_parallel):
        # the labelled reference canonicalizes every instance, so keep it small
        assume(labelled_count(schema, max_per_node, max_parallel) <= 2000)
        classes = list(iter_instance_classes(schema, max_per_node, max_parallel))
        got = [serialize_instance(canonical_restriction(t)) for t in classes]
        assert got == first_seen_classes(schema, max_per_node, max_parallel)

    @settings(deadline=None)
    @given(small_schemas(), st.integers(0, 2), st.integers(0, 2))
    def test_built_as_the_validating_constructor_builds(self, schema, max_per_node, max_parallel):
        # instances, canonical forms, identities, composites, pushouts, lifts
        # and deltas are built trusted: each must equal what the validating
        # constructors build, maps keyed in sorted order
        assume(labelled_count(schema, max_per_node, max_parallel) <= 2000)
        for t in iter_instance_classes(schema, max_per_node, max_parallel):
            i = SliceMorphism.identity(t)
            d = _canonical_delta(identity_delta(t))
            built = [
                t,
                canonical_restriction(t),
                d,
                identity(t.carrier),
                i.then(i),
                TypedInstance.empty(t.schema),
                *slice_pushout(i, i),
                coproduct_macro(identity_formula(t), identity_formula(t)).conclusion,
                lifting_to_regular(Lifting(identity(t.carrier), t.typing)).formula,
                delta_of(i, "forward"),
                delta_of(i, "backward"),
                compose_delta(d, d),
                pullback_delta(identity(t.schema), d),
                dom_lift(t, identity(t.carrier)),
            ]
            for x in built:
                assert_as_validated(x)

    def test_numbering_is_the_labelled_instances_numbering(self):
        # ids reach two digits, where "X#10" sorts before "X#2" and link "r#10"
        # before "r#2": up to 12 elements of X, and up to 18 links on r
        for schema, max_per_node, max_parallel in (
            (Graph.build(["X"], []), 12, 1),
            (single_arrow_arity(), 3, 2),
        ):
            wide = 0
            for names, links, labelled in _iter_classes(schema, max_per_node, max_parallel):
                assert (names, links) == _numbered_restriction(labelled(), None)
                wide += len(names) > 10 or len(links) > 10
            assert wide > 0

    def test_enumerated_ids_sort_in_enumeration_order(self):
        # ids are padded to the width of their fibre or arrow, so at 12
        # elements and 18 links they still sort as they are enumerated
        schema = single_arrow_arity()
        fibers, slots = next(
            (fibers, slots)
            for fibers, slots in _families(schema, 12)
            if (len(fibers["A"]), len(fibers["B"])) == (12, 1)
        )
        counts = (2,) * 6 + (1,) * 6
        t = _instance(schema, fibers, slots, counts)
        assert fibers["A"] == [f"A#{i:02}" for i in range(12)] == t.typing.node_fibres()["A"]
        assert [a.id for a in t.carrier.sorted_arrows] == [f"r#{k:02}" for k in range(18)]
        links = tuple((i, "r", 12) for i, k in enumerate(counts) for _ in range(k))
        assert _numbered_restriction(t, None) == (("A",) * 12 + ("B",), links)

    @settings(deadline=None)
    @given(small_schemas(), st.integers(0, 2), st.integers(0, 2))
    def test_numbering_on_small_schemas(self, schema, max_per_node, max_parallel):
        assume(labelled_count(schema, max_per_node, max_parallel) <= 2000)
        for names, links, labelled in _iter_classes(schema, max_per_node, max_parallel):
            assert (names, links) == _numbered_restriction(labelled(), None)

    @pytest.mark.parametrize("size,classes", [(2, 13), (3, 117), (4, 3161)])
    def test_census_over_the_terminal_graph(self, size, classes):
        # digraphs with loops on at most `size` nodes: one class each, all
        # canonical forms distinct; OEIS A000595 gives 1, 2, 10, 104, 3044
        # on 0 to 4 nodes
        base = terminal_graph()
        forms = [
            serialize_instance(_canonical_numbered(names, links, base)[0])
            for names, links, _ in _iter_classes(base, size, 1)
        ]
        assert len(forms) == len(set(forms)) == classes

    @pytest.mark.parametrize(
        "schema,max_per_node,max_parallel,classes",
        [
            (terminal_graph(), 2, 1, 13),
            (terminal_graph(), 3, 1, 117),
            (terminal_graph(), 4, 1, 3161),
            (single_arrow_arity(), 3, 2, 991),
            (span_arity(), 2, 2, 1706),
            (span_arity(), 2, 1, 182),
            (parallel_pair_arity(), 2, 2, 1805),
            (square_arity(), 2, 1, 10057),
            (triangle_arity(), 2, 1, 1012),
        ],
        ids=lambda v: ",".join(sorted(v.arrow_by_id)) if isinstance(v, Graph) else str(v),
    )
    def test_census_of_typed_schemas(self, schema, max_per_node, max_parallel, classes):
        # typed schemas have no published sequence: Burnside's lemma counts
        # their classes apart from the generator and its minimality filter
        assert burnside_classes(schema, max_per_node, max_parallel) == classes
        assert sum(1 for _ in _iter_classes(schema, max_per_node, max_parallel)) == classes

    def test_terminal_base_class_count(self):
        assert sum(1 for _ in iter_instance_classes(terminal_graph(), 3, 1)) == 117
        assert sum(1 for _ in iter_typed_instances(terminal_graph(), 3, 1)) == 531

    def test_span_class_count(self):
        arity = jointly_monic_symbol().arity
        assert sum(1 for _ in iter_instance_classes(arity, 2, 1)) == 182
        assert sum(1 for _ in iter_typed_instances(arity, 2, 1)) == 499


class TestSweepsMatchReference:
    def test_dependency_soundness(self):
        # d1 and d2 both leave [jm], so they share one list of valid classes
        sig = span_signature()
        for size, parallel in itertools.product((1, 2), (1, 2)):
            got = verify_dependency_soundness(sig, size, parallel)
            want = reference_dependency_soundness(sig, size, parallel)
            assert got.checked == want.checked > 0
            assert [v.dependency for v in got.violations] == [
                v.dependency for v in want.violations
            ]
            assert [serialize_instance(v.witness) for v in got.violations] == [
                serialize_instance(v.witness) for v in want.violations
            ]
            assert report_bytes(got) == report_bytes(want)

    def test_dependency_soundness_over_two_targets(self):
        # two dependencies into [1] with different arity maps, one into [key]
        sig = span_key_signature()
        flagged = set()
        for size, parallel in ((1, 1), (1, 2), (2, 1)):
            got = verify_dependency_soundness(sig, size, parallel)
            flagged |= {v.dependency for v in got.violations}
            assert report_bytes(got) == report_bytes(
                reference_dependency_soundness(sig, size, parallel)
            )
        assert flagged == {"d1", "d2", "d3"}

    def test_repeated_unknown_restrictions(self, monkeypatch):
        # at 20 units every class has its canonical form and four [key]
        # restrictions, all one numbering, spend the bound: each keeps its
        # own entry, on the restriction, with the detail a fresh call gives
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 20)
        sig = span_key_signature()
        got = verify_dependency_soundness(sig, 1, 2)
        assert [(v.dependency, v.on) for v in got.undecided] == [("d3", "restriction")] * 4
        assert {v.verdict.detail for v in got.undecided} == {
            "canonical-form bound exceeded: spent 21 of 20 units"
        }
        assert report_bytes(got) == report_bytes(reference_dependency_soundness(sig, 1, 2))

    def test_each_distinct_restriction_decided_once(self, monkeypatch):
        # 292 restrictions of kept classes, whose numberings take 24 values
        decided = []
        decide = Multiplicity.decide
        monkeypatch.setattr(
            Multiplicity,
            "decide",
            lambda self, t: decided.append(t) or decide(self, t),
        )
        sig = span_signature()
        report = verify_dependency_soundness(sig, 2, 1)
        assert report.checked == 292
        assert 0 < len(decided) < report.checked

    def test_sweeps_build_no_labelled_instance(self, monkeypatch):
        built = []
        real = dcl.instances._instance
        monkeypatch.setattr(dcl.instances, "_instance", lambda *a: built.append(a) or real(*a))
        sig = span_signature()
        assert not verify_dependency_soundness(sig, 2, 1).ok
        for theory, goal in criterion_06_goals()[:3]:
            semantic_entails(theory, goal, 3, 1)
        assert built == []

    def test_witness_past_the_bound_printed_as_enumerated(self, monkeypatch):
        # at 2 units the canonical form of an instance with a link spends its
        # bound: such a restriction is undecided, and such a witness is its
        # class as enumerated, built once even where d1 and d2 both list it;
        # the violations are those of the default bound
        sig = span_signature()
        want = verify_dependency_soundness(sig, 1, 1)
        classes = list(iter_instance_classes(sig.symbols["[jm]"].arity, 1, 1))
        built = []
        real = dcl.instances._instance
        monkeypatch.setattr(dcl.instances, "_instance", lambda *a: built.append(a) or real(*a))
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 2)
        got = verify_dependency_soundness(sig, 1, 1)
        assert got.undecided and {v.on for v in got.undecided} == {"restriction"}
        details = {v.verdict.detail.split(":")[0] for v in got.undecided}
        assert details == {"canonical-form bound exceeded"}
        listed = [v.witness for v in got.violations + got.undecided]
        enumerated = [t for t in listed if t.carrier.arrows]
        assert len(built) == len({serialize_instance(t) for t in enumerated}) == 5
        assert all(t in classes for t in enumerated)
        assert all(t == canonical_restriction(t) for t in listed if not t.carrier.arrows)
        monkeypatch.undo()
        assert [
            (v.dependency, serialize_instance(canonical_restriction(v.witness)))
            for v in got.violations
        ] == [(v.dependency, serialize_instance(v.witness)) for v in want.violations]

    def test_canonical_forms_only_for_what_is_printed(self, monkeypatch):
        # an entailed model sweep prints nothing; the dependency sweep makes one
        # canonical form per listed witness and one per restriction numbering
        sig = span_signature()
        jm = sig.symbols["[jm]"]
        numberings = {  # of the restrictions of each [jm]-valid class as it is decided
            numbering(sig.symbols[d.target], _named(names, links, jm.arity), d.arity_map)
            for names, links, labelled in _iter_classes(jm.arity, 2, 2)
            if evaluate(jm, labelled()).is_valid
            for d in sig.dependencies
        }
        made = []
        real = dcl.instances._canonical_numbered
        for module in (dcl.instances, dcl.signature):
            monkeypatch.setattr(
                module, "_canonical_numbered", lambda *a: made.append(a) or real(*a)
            )
        theory, goal = criterion_06_goals()[0]
        assert semantic_entails(theory, goal, 3, 1).entailed and made == []
        report = verify_dependency_soundness(sig, 2, 2)
        witnesses = {serialize_instance(v.witness) for v in report.violations + report.undecided}
        assert not report.dropped and len(witnesses) > 1000
        printed = [(names, links) for names, links, arity in made if arity == jm.arity]
        decided = [(names, links) for names, links, arity in made if arity != jm.arity]
        assert len(printed) == len(set(printed)) == len(witnesses)
        assert len(decided) == len(set(decided)) and set(decided) == numberings
        assert len(made) == len(witnesses) + len(numberings)

    def test_table_source(self):
        # a table decides the numbering of a class as it decides its canonical form
        sig = table_signature()
        for size, parallel in ((1, 1), (1, 2), (2, 1)):
            got = verify_dependency_soundness(sig, size, parallel)
            assert got.checked > 0 and got.violations
            assert report_bytes(got) == report_bytes(
                reference_dependency_soundness(sig, size, parallel)
            )

    def test_semantic_entails(self):
        statuses = set()
        for theory, goal in criterion_06_goals():
            for size, parallel in ((2, 2), (3, 1)):
                got = semantic_entails(theory, goal, size, parallel)
                want = reference_semantic_entails(theory, goal, size, parallel)
                assert got == want
                if want.counterexample is not None:
                    assert serialize_instance(got.counterexample) == serialize_instance(
                        want.counterexample
                    )
                statuses.add(got.status)
        assert statuses == {"entailed", "refuted"}


class TestNumberedRepresentative:
    """The class sweeps decide each class on its own numbering, `_named(names,
    links)`: every builtin semantics must give it the status `evaluate` gives
    the class's labelled instance."""

    @staticmethod
    def disagreements(symbol, max_parallel) -> list:
        return [
            (names, links)
            for names, links, labelled in _iter_classes(symbol.arity, 2, max_parallel)
            if symbol.semantics.decide(_named(names, links, symbol.arity)).status
            is not evaluate(symbol, labelled()).status
        ]

    @pytest.mark.parametrize(
        "symbol,max_parallel",
        every_builtin_symbol(),
        ids=lambda v: v.name if isinstance(v, ConstraintSymbol) else str(v),
    )
    def test_decided_as_evaluate_decides(self, symbol, max_parallel):
        assert self.disagreements(symbol, max_parallel) == []

    def test_a_table_compared_by_value_disagrees(self, monkeypatch):
        # the planted fault: a table that compares its argument, not the
        # argument's canonical form, with its entries
        def by_value(self, t):
            for entry_id, instance in self.entries:
                if instance == t:
                    return Verdict(Evidence(t, {"entry": entry_id}))
            return Verdict(counterexample=Counterexample(t, ()))

        monkeypatch.setattr(Table, "decide", by_value)
        assert self.disagreements(table_symbol(), 2)
