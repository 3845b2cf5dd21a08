"""Seeded pseudorandom graphs, morphisms, instances, and declarations.

Morphisms pick their images up front, so they need no validation.  A declaration's
binding is drawn from the results of a hom search, and only the drawn one is built.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from dcl.graphs import (
    Arrow,
    Graph,
    GraphMorphism,
    _morphism,
    _run_search,
    _target_index,
    _trusted,
)
from dcl.instances import TypedInstance
from dcl.signature import (
    Signature,
    commutativity_symbol,
    jointly_monic_symbol,
    key_symbol,
    multiplicity_symbol,
    subset_symbol,
)
from dcl.sketch import ConstraintDeclaration

HOM_LIMIT = 200  # a random binding is drawn from the first HOM_LIMIT homomorphisms
DRAW_LIMIT = 1000  # a Sat-axiom triple is drawn from at most DRAW_LIMIT schema maps


def random_graph(
    rng: random.Random, max_nodes: int = 5, max_arrows: int = 6, min_nodes: int = 1
) -> Graph:
    n = rng.randint(min_nodes, max(min_nodes, max_nodes))
    nodes = [f"N{i}" for i in range(n)]
    arrows = []
    if n:
        for i in range(rng.randint(0, max_arrows)):
            arrows.append(Arrow(f"E{i}", rng.choice(nodes), rng.choice(nodes)))
    return _trusted(Graph, frozenset(nodes), frozenset(arrows))


def random_morphism_into(
    rng: random.Random, cod: Graph, max_nodes: int = 5, max_arrows: int = 6
) -> GraphMorphism:
    """A random morphism with a freshly built domain mapping into cod."""
    if not cod.nodes:
        return _trusted(GraphMorphism, Graph.empty(), cod, {}, {})
    n = rng.randint(0, max_nodes)
    node_map = {f"n{i}": rng.choice(cod.sorted_nodes) for i in range(n)}
    links: dict[Arrow, str] = {}  # each domain arrow to its image's id
    if cod.arrows and node_map:
        over: dict[str, list[str]] = {}  # each image's preimage, in draw order
        for u, img in node_map.items():
            over.setdefault(img, []).append(u)
        for i in range(rng.randint(0, max_arrows)):
            e = rng.choice(cod.sorted_arrows)
            if e.src in over and e.tgt in over:
                links[Arrow(f"a{i}", rng.choice(over[e.src]), rng.choice(over[e.tgt]))] = e.id
    dom = _trusted(Graph, frozenset(node_map), frozenset(links))
    node_map = dict(sorted(node_map.items()))
    arrow_map = {a.id: image for a, image in sorted(links.items())}
    return _trusted(GraphMorphism, dom, cod, node_map, arrow_map)


def random_typed_instance(
    rng: random.Random, schema: Graph, max_per_node: int = 3, max_links: int = 8
) -> TypedInstance:
    return TypedInstance(
        random_morphism_into(
            rng, schema, max_nodes=max_per_node * max(1, len(schema.nodes)),
            max_arrows=max_links,
        )
    )


def harness_signature() -> Signature:
    """A mixed bag of fast-deciding builtin symbols for randomized harnesses."""
    symbols = {}
    for sym in (
        multiplicity_symbol([(0, 1)]),
        multiplicity_symbol([(1, 1)]),
        multiplicity_symbol([(1, None)]),
        multiplicity_symbol([(1, 4), (6, 6)]),
        subset_symbol(),
        jointly_monic_symbol(),
        key_symbol(["k1", "k2"]),
        commutativity_symbol(),
    ):
        symbols[sym.name] = sym
    return Signature(symbols)


def random_declaration(
    rng: random.Random, carrier: Graph, signature: Signature
) -> Optional[ConstraintDeclaration]:
    """A random symbol bound into the carrier as declaration "rnd", or None if
    nothing embeds."""
    names = list(signature.symbols)
    rng.shuffle(names)
    target = _target_index(carrier)
    for name in names:
        symbol = signature.symbols[name]
        found = list(itertools.islice(_run_search(symbol._plan, target), HOM_LIMIT))
        if found:
            binding = _morphism(symbol._plan, carrier, rng.choice(found))
            return ConstraintDeclaration("rnd", name, binding)
    return None


def random_satax_triple(
    rng: random.Random,
    signature: Signature,
    max_nodes: int = 5,
    max_arrows: int = 6,
) -> tuple[GraphMorphism, ConstraintDeclaration, TypedInstance]:
    """(schema morphism f, declaration over dom f, instance over cod f).

    max_nodes must be at least 1: every symbol's arity has a node, so no
    declaration binds into the empty domain that max_nodes=0 draws.  A signature
    none of whose symbols binds into DRAW_LIMIT drawn domains raises ValueError.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    for _ in range(DRAW_LIMIT):
        big = random_graph(rng, max_nodes, max_arrows)
        f = random_morphism_into(rng, big, max_nodes, max_arrows)
        d = random_declaration(rng, f.dom, signature)
        if d is not None:
            return f, d, random_typed_instance(rng, big)
    raise ValueError(f"no declaration binds into any of {DRAW_LIMIT} drawn schema maps")
