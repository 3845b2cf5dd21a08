"""Values the library builds skip validation; values from outside do not.

Public constructors and `io.load` validate.  Graphs, morphisms, slice
morphisms and deltas that the library builds valid by construction go
through `graphs._trusted`, so proof search and delta algebra run no
validating `__post_init__` at all.
"""

import ast
import collections
import pathlib
import random
import sys

import pytest

import dcl
from dcl.fixtures import edge_pair_theory, outgoing_edge_theory, vehicle_registry_instance
from dcl.graphs import Graph, GraphError, GraphMorphism, _trusted, identity
from dcl.injlogic import axiom, bounded_entailment, coproduct_macro
from dcl.instances import (
    Delta,
    SliceMorphism,
    TypedInstance,
    as_slice,
    compose_delta,
    delta_of,
    identity_delta,
    iter_slice_morphisms,
    pullback_delta,
)
from dcl.randgen import random_graph, random_morphism_into, random_typed_instance


@pytest.fixture
def validations(monkeypatch):
    """Counts of validating `__post_init__` calls, by class, from here on."""
    counts = collections.Counter()
    for cls in (Graph, GraphMorphism, SliceMorphism, Delta):

        def counted(self, real=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def logic_goals():
    """The five (theory, goal) pairs of the `logic` benchmark workload."""
    out_theory, pair_theory = outgoing_edge_theory(), edge_pair_theory()
    goals = [(th, th.formulas[name]) for th in (out_theory, pair_theory) for name in th.formulas]
    edge = axiom(out_theory, "out-edge")
    goals.append((out_theory, coproduct_macro(edge, edge).conclusion))
    composite = pair_theory.formulas["out-edge"].then(pair_theory.formulas["close-cycle"])
    goals.append((pair_theory, composite))
    return goals


def composable_deltas(seed: int, count: int):
    """`count` seeded triples (f, d1, d2): d1 and d2 compose, and f maps into their schema."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        schema = random_graph(rng, 3, 3)
        f = random_morphism_into(rng, schema, 3, 3)
        a, b, c = (random_typed_instance(rng, schema, 2, 2) for _ in range(3))
        ab, bc = next(iter_slice_morphisms(a, b), None), next(iter_slice_morphisms(b, c), None)
        if ab is not None and bc is not None:
            out.append((f, delta_of(ab), delta_of(bc)))
            out.append((f, delta_of(bc, "backward"), delta_of(ab, "backward")))
    return out


class TestNoRevalidation:
    def test_proof_search_validates_nothing(self, validations):
        goals = logic_goals()
        validations.clear()
        results = [bounded_entailment(theory, goal, max_depth=4) for theory, goal in goals]
        assert all(r.derivable for r in results)
        assert validations == {}

    def test_delta_algebra_validates_nothing(self, validations):
        t = vehicle_registry_instance()
        fragment = Graph.build(["Vehicle", "Wheel"], [("has", "Vehicle", "Wheel")])
        inclusion = GraphMorphism(
            fragment, t.schema, {"Vehicle": "Vehicle", "Wheel": "Wheel"}, {"has": "has"}
        )
        triples = composable_deltas(7, 20)
        validations.clear()
        pullback_delta(inclusion, identity_delta(t))
        compose_delta(identity_delta(t), identity_delta(t))
        for f, d1, d2 in triples:
            composite = compose_delta(d1, d2)
            pullback_delta(f, composite)
            pullback_delta(identity(composite.source.schema), d1)
        assert validations == {}

    def test_public_constructors_still_validate(self, validations):
        g = Graph.build(["a"], [("e", "a", "a")])
        t = as_slice(g)
        i = SliceMorphism(t, t, GraphMorphism(g, g, {"a": "a"}, {"e": "e"}))
        Delta(i, i)
        assert set(validations) == {"Graph", "GraphMorphism", "SliceMorphism", "Delta"}
        with pytest.raises(GraphError, match="maps outside the codomain"):
            GraphMorphism(g, g, {"a": "b"}, {"e": "e"})


def calls_in(path: pathlib.Path, test) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call in the module at `path` for which
    `test(call)` holds."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and test(node):
            found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def is_attribute_call(node: ast.Call, owner: str, name: str) -> bool:
    f = node.func
    return isinstance(f, ast.Attribute) and f.attr == name and getattr(f.value, "id", None) == owner


SOURCES = sorted(pathlib.Path(dcl.__file__).parent.glob("*.py"))


class TestOneTrustedConstructor:
    def test_object_new_only_in_trusted(self):
        made = {
            (path.name, where)
            for path in SOURCES
            for where, _ in calls_in(path, lambda c: is_attribute_call(c, "object", "__new__"))
        }
        assert made == {("graphs.py", "_trusted")}

    def test_fibres_are_held_at_construction(self):
        # a held `_fibres` is passed to `_trusted`, never set on a built value
        def sets_fibres(c: ast.Call) -> bool:
            return is_attribute_call(c, "object", "__setattr__") and any(
                isinstance(a, ast.Constant) and a.value == "_fibres" for a in c.args
            )

        assert [(p.name, found) for p in SOURCES if (found := calls_in(p, sets_fibres))] == []


class TestPositionalBuilders:
    def test_dicts_are_as_the_constructors_make_them(self):
        # a builder sets each field in turn, as the constructor does, so the
        # instances of a class share their dict keys; `__dict__.update` on a
        # fresh value would make a dict of its own, of another size
        g = Graph.build(["a", "b"], [("e", "a", "b")])
        maps = ({"a": "a", "b": "b"}, {"e": "e"})
        m = identity(g)
        pairs = [
            (Graph.build(["a"]), _trusted(Graph, frozenset(["a"]), frozenset())),
            (GraphMorphism(g, g, *maps), _trusted(GraphMorphism, g, g, *maps)),
            (TypedInstance(m), _trusted(TypedInstance, m, (m.node_fibres(), m.arrow_fibres()))),
        ]
        for built, trusted in pairs:
            assert type(trusted) is type(built) and trusted == built
            assert sys.getsizeof(vars(trusted)) == sys.getsizeof(vars(built))
        assert list(vars(pairs[2][1])) == ["typing", "_fibres"]
