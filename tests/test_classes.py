"""Isomorphism-class enumeration against the labelled enumeration it replaced.

`reference_semantic_entails` and `reference_dependency_soundness` are copies
of the two model sweeps as they were before they iterated classes: they
walk every labelled instance and keep the first of each canonical form.
The sweeps over classes must report exactly what these report.
"""

import itertools
import json
from importlib import resources

from hypothesis import assume, given
from hypothesis import strategies as st

from dcl.fixtures import edge_pair_theory, outgoing_edge_theory
from dcl.graphs import Graph, GraphMorphism
from dcl.injlogic import (
    SemanticResult,
    axiom,
    coproduct_macro,
    semantic_entails,
    terminal_graph,
)
from dcl.instances import (
    canonicalize_instance,
    iter_instance_classes,
    iter_typed_instances,
    serialize_instance,
)
from dcl.io import load
from dcl.signature import (
    SoundnessReport,
    SoundnessViolation,
    check_injectivity,
    evaluate,
    jointly_monic_symbol,
    restrict,
    verify_dependency_soundness,
)
from dcl.verdicts import Status


def reference_semantic_entails(theory, goal, size_bound, max_parallel=2, limit=20_000):
    seen: set[bytes] = set()
    checked = 0
    unknown = False
    for a in iter_typed_instances(theory.base, size_bound, max_parallel):
        ci = canonicalize_instance(a)
        if ci.bytes in seen:
            continue
        seen.add(ci.bytes)
        model = True
        for f in theory.formulas.values():
            v = check_injectivity(ci.instance, f, limit)
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
        v = check_injectivity(ci.instance, goal, limit)
        if v.status is Status.UNKNOWN:
            unknown = True
            continue
        if not v.is_valid:
            return SemanticResult("refuted", checked, ci.instance)
    return SemanticResult("unknown" if unknown else "entailed", checked)


def reference_dependency_soundness(sig, size_bound, max_parallel=2):
    checked = 0
    violations = []
    for dep in sig.dependencies:
        source = sig.symbols[dep.source]
        target = sig.symbols[dep.target]
        seen: set[bytes] = set()
        for t in iter_typed_instances(source.arity, size_bound, max_parallel):
            ci = canonicalize_instance(t)
            if ci.bytes in seen:
                continue
            seen.add(ci.bytes)
            if not evaluate(source, ci.instance).is_valid:
                continue
            checked += 1
            restricted = restrict(ci.instance, dep.arity_map)
            verdict = evaluate(target, restricted)
            if not verdict.is_valid:
                violations.append(SoundnessViolation(dep.id, ci.instance, verdict))
    return SoundnessReport(checked, tuple(violations))


def first_seen_classes(schema, max_per_node, max_parallel):
    """Canonical bytes of each class, in order of its first labelled member."""
    seen: dict[bytes, None] = {}
    for t in iter_typed_instances(schema, max_per_node, max_parallel):
        seen.setdefault(canonicalize_instance(t).bytes, None)
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


def report_bytes(report: SoundnessReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


class TestInstanceClasses:
    @given(small_schemas(), st.integers(0, 2), st.integers(0, 2))
    def test_equals_first_seen_dedup(self, schema, max_per_node, max_parallel):
        # the labelled reference canonicalizes every instance, so keep it small
        assume(labelled_count(schema, max_per_node, max_parallel) <= 2000)
        classes = list(iter_instance_classes(schema, max_per_node, max_parallel))
        got = [canonicalize_instance(t).bytes for t in classes]
        assert got == first_seen_classes(schema, max_per_node, max_parallel)

    @given(small_schemas(), st.integers(0, 2), st.integers(0, 2))
    def test_built_as_the_validating_constructor_builds(self, schema, max_per_node, max_parallel):
        # instances and canonical forms are built trusted: their maps must be
        # valid and keyed in sorted order, as GraphMorphism would leave them
        assume(labelled_count(schema, max_per_node, max_parallel) <= 2000)
        for t in iter_instance_classes(schema, max_per_node, max_parallel):
            ci = canonicalize_instance(t)
            for m in (t.typing, ci.instance.typing, ci.relabeling):
                checked = GraphMorphism(m.dom, m.cod, m.node_map, m.arrow_map)
                assert checked == m
                assert list(m.node_map) == list(checked.node_map)
                assert list(m.arrow_map) == list(checked.arrow_map)

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
        sig = load(str(resources.files("dcl") / "data" / "span-signature.json"))
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
