"""Seeded generation: pinned populations, valid trusted data, no repeated set-up.

The digests were recorded on the generator as it was before it built its
data through the trusted constructors and planned each arity once; every
triple a seed draws must stay byte-identical, since the Sat-axiom harness,
`dcl satax` and the criterion-03/04 populations are defined by them.
"""

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcl.graphs
import dcl.randgen
import dcl.signature
from dcl.graphs import Arrow, Graph, GraphMorphism
from dcl.randgen import (
    harness_signature,
    random_declaration,
    random_graph,
    random_morphism_into,
    random_satax_triple,
    random_typed_instance,
)
from dcl.signature import ConstraintSymbol, Signature, Table
from test_search import within_seconds

TRIPLES_PER_SEED = 200
TRIPLE_DIGESTS = {
    1: "0a30bb106bf6f309eee49ae9d021e636e5a95d0b5cf39c2e3ea8b61ac311b70f",
    7: "bd6a6b3501ef120a39154ed155c5185e8fcc9a93dcb88e2108bcf213eb737dea",
    23: "1a53a9b505a6fa6eb9a1624b5af4aff5aea1394234b8c56f1a56245ec30a7237",
}
CRITERION_04_DIGEST = "99db3fcfd72bf54c6604a1debea0fdc2648cfc8b6f7e7a7d001c28b9deb3eb6b"


def declaration_json(d):
    return [d.id, d.label, d.binding.to_json()]


def draw_criterion_04(rng, sig, pairs=200):
    """The draws of `test_criterion_04_institution_functoriality`, in its order:
    (top, f2, f1, d, t), with d and t None where no declaration embeds."""
    while pairs:
        top = random_graph(rng, 4, 5)
        f2 = random_morphism_into(rng, top, 4, 5)
        f1 = random_morphism_into(rng, f2.dom, 4, 5)
        d = random_declaration(rng, f1.dom, sig)
        t = None if d is None else random_typed_instance(rng, top)
        pairs -= d is not None
        yield top, f2, f1, d, t


class TestGoldenPopulations:
    # JSON keeps map keys in insertion order, so the digests pin that order too
    def test_satax_triples(self):
        sig = harness_signature()
        for seed, digest in TRIPLE_DIGESTS.items():
            rng = random.Random(seed)
            h = hashlib.sha256()
            for _ in range(TRIPLES_PER_SEED):
                f, d, t = random_satax_triple(rng, sig)
                record = {"f": f.to_json(), "d": declaration_json(d), "t": t.to_json()}
                h.update(json.dumps(record).encode())
            assert h.hexdigest() == digest, seed

    def test_criterion_04_draws(self):
        h = hashlib.sha256()
        for top, f2, f1, d, t in draw_criterion_04(random.Random(404), harness_signature()):
            parts = [top.to_json(), f2.to_json(), f1.to_json()]
            parts.append(None if d is None else declaration_json(d))
            if t is not None:
                parts.append(t.to_json())
            h.update(json.dumps(parts).encode())
        assert h.hexdigest() == CRITERION_04_DIGEST


def assert_valid_graph(g):
    assert all(type(a) is Arrow for a in g.arrows)
    assert Graph.build(g.nodes, g.arrows) == g


def assert_valid_morphism(m):
    assert_valid_graph(m.dom)
    assert list(m.node_map) == sorted(m.node_map)
    assert list(m.arrow_map) == sorted(m.arrow_map)
    assert GraphMorphism(m.dom, m.cod, m.node_map, m.arrow_map) == m


class TestTrustedData:
    """What the trusted constructors skip, checked by the validating ones."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 14), st.integers(0, 20))
    @example(seed=13, max_nodes=12, max_arrows=20)
    def test_graphs_and_morphisms_validate(self, seed, max_nodes, max_arrows):
        # past ten elements, draw order (n2 before n10) is not sorted order
        rng = random.Random(seed)
        cod = random_graph(rng, max_nodes, max_arrows, min_nodes=0)
        assert_valid_graph(cod)
        f = random_morphism_into(rng, cod, max_nodes, max_arrows)
        assert_valid_morphism(f)
        assert_valid_morphism(random_morphism_into(rng, f.dom, max_nodes, max_arrows))
        assert_valid_morphism(random_typed_instance(rng, cod).typing)

    def test_seeded_triples_validate(self):
        sig = harness_signature()
        for seed in (3, 5):
            rng = random.Random(seed)
            for _ in range(100):
                f, d, t = random_satax_triple(rng, sig)
                assert_valid_graph(f.cod)
                assert_valid_morphism(f)
                assert_valid_morphism(t.typing)
                assert d.binding.dom == sig.symbols[d.label].arity and d.binding.cod == f.dom
                b = d.binding
                assert GraphMorphism(b.dom, b.cod, b.node_map, b.arrow_map) == b

    def test_criterion_04_draws_validate(self):
        for top, f2, f1, d, t in draw_criterion_04(random.Random(404), harness_signature()):
            assert_valid_graph(top)
            for m in (f2, f1) + (() if d is None else (d.binding, t.typing)):
                assert_valid_morphism(m)


class TestDeclarationSetUp:
    def test_plan_per_symbol_index_per_call(self, monkeypatch):
        # every module that names the plan or index functions, so that a
        # search through `search_morphisms` would be counted as well
        planned, indexed, calls = [], [], []
        real_plan, real_index = dcl.graphs._pattern_plan, dcl.graphs._target_index
        for module in (dcl.graphs, dcl.signature, dcl.randgen):
            if hasattr(module, "_pattern_plan"):
                monkeypatch.setattr(
                    module, "_pattern_plan", lambda g, *a: planned.append(g) or real_plan(g, *a)
                )
            if hasattr(module, "_target_index"):
                monkeypatch.setattr(
                    module, "_target_index", lambda h, *a: indexed.append(h) or real_index(h, *a)
                )
        real_declaration = dcl.randgen.random_declaration
        monkeypatch.setattr(
            dcl.randgen,
            "random_declaration",
            lambda rng, carrier, *a: calls.append(carrier) or real_declaration(rng, carrier, *a),
        )
        sig = harness_signature()
        rng = random.Random(1)
        drawn = {random_satax_triple(rng, sig)[1].label for _ in range(200)}
        arities = [id(sig.symbols[name].arity) for name in drawn]
        assert set(arities) <= {id(g) for g in planned}
        assert len(planned) == len({id(g) for g in planned}) <= len(sig.symbols)
        assert [id(h) for h in indexed] == [id(c) for c in calls]
        assert sum(not c.nodes for c in calls) > 0  # empty carriers are drawn too

    def test_one_morphism_built_per_declaration(self, monkeypatch):
        # the search yields images; only the drawn binding is built, and a
        # carrier that nothing embeds into builds none
        built = []
        real = dcl.graphs._trusted
        monkeypatch.setattr(
            dcl.graphs,
            "_trusted",
            lambda cls, *a: (cls is GraphMorphism and built.append(a)) or real(cls, *a),
        )
        sig, rng = harness_signature(), random.Random(1)
        returned = []
        for _ in range(400):
            carrier = random_graph(rng, 4, 4, min_nodes=0)
            before = len(built)
            d = random_declaration(rng, carrier, sig)
            assert len(built) - before == (d is not None)
            returned.append(d is not None)
            if d is not None:
                assert built[-1][2:] == (d.binding.node_map, d.binding.arrow_map)
        assert 0 < sum(returned) < len(returned)

    def test_plan_held_outside_equality_and_json(self):
        symbol = harness_signature().symbols["[1..*]"]
        copy = ConstraintSymbol(symbol.name, symbol.arity, symbol.semantics)
        assert "_plan" not in vars(symbol)
        random_declaration(random.Random(0), symbol.arity, Signature({symbol.name: symbol}))
        assert "_plan" in vars(symbol) and "_plan" not in vars(copy)
        assert symbol == copy

    def test_empty_carrier(self):
        # only an arity without nodes maps into the empty carrier, by the empty
        # morphism; the shuffle is drawn either way
        sig = harness_signature()
        rng, fresh = random.Random(5), random.Random(5)
        assert random_declaration(rng, Graph.empty(), sig) is None
        fresh.shuffle(list(sig.symbols))
        assert rng.random() == fresh.random()
        empty = ConstraintSymbol("nothing", Graph.empty(), Table())
        both = Signature({**sig.symbols, "nothing": empty})
        d = random_declaration(random.Random(5), Graph.empty(), both)
        assert d.label == "nothing" and d.binding.dom == d.binding.cod == Graph.empty()

    def test_nothing_binds_stops_at_the_draw_limit(self):
        # no symbol binds into any domain: the triple raises instead of redrawing forever
        with pytest.raises(ValueError, match=f"any of {dcl.randgen.DRAW_LIMIT} drawn"):
            within_seconds(1, lambda: random_satax_triple(random.Random(1), Signature({})))
