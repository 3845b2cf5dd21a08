"""Seeded pseudorandom graphs, morphisms, instances, and declarations.

Morphisms are built constructively (domain elements pick their images up
front), so generation never needs a hom search and always succeeds.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from dcl.graphs import Graph, GraphMorphism, iter_homomorphisms
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


def random_graph(
    rng: random.Random, max_nodes: int = 5, max_arrows: int = 6, min_nodes: int = 1
) -> Graph:
    n = rng.randint(min_nodes, max(min_nodes, max_nodes))
    nodes = [f"N{i}" for i in range(n)]
    arrows = []
    if n:
        for i in range(rng.randint(0, max_arrows)):
            arrows.append((f"E{i}", rng.choice(nodes), rng.choice(nodes)))
    return Graph.build(nodes, arrows)


def random_morphism_into(
    rng: random.Random, cod: Graph, max_nodes: int = 5, max_arrows: int = 6
) -> GraphMorphism:
    """A random morphism with a freshly built domain mapping into cod."""
    if not cod.nodes:
        return GraphMorphism(Graph.empty(), cod, {}, {})
    n = rng.randint(0, max_nodes)
    node_map = {f"n{i}": rng.choice(cod.sorted_nodes) for i in range(n)}
    arrows = []
    arrow_map = {}
    if cod.arrows and node_map:
        for i in range(rng.randint(0, max_arrows)):
            e = rng.choice(cod.sorted_arrows)
            srcs = [u for u, img in node_map.items() if img == e.src]
            tgts = [v for v, img in node_map.items() if img == e.tgt]
            if not srcs or not tgts:
                continue
            a = f"a{i}"
            arrows.append((a, rng.choice(srcs), rng.choice(tgts)))
            arrow_map[a] = e.id
    dom = Graph.build(node_map.keys(), arrows)
    return GraphMorphism(dom, cod, node_map, arrow_map)


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
    rng: random.Random,
    carrier: Graph,
    signature: Signature,
    decl_id: str = "rnd",
    hom_limit: int = 200,
) -> Optional[ConstraintDeclaration]:
    """A random symbol bound into the carrier, or None if nothing embeds."""
    names = list(signature.symbols)
    rng.shuffle(names)
    for name in names:
        symbol = signature.symbols[name]
        homs = list(itertools.islice(iter_homomorphisms(symbol.arity, carrier), hom_limit))
        if homs:
            binding = rng.choice(homs)
            return ConstraintDeclaration(decl_id, name, binding)
    return None


def random_satax_triple(
    rng: random.Random,
    signature: Signature,
    max_nodes: int = 5,
    max_arrows: int = 6,
) -> tuple[GraphMorphism, ConstraintDeclaration, TypedInstance]:
    """(schema morphism f, declaration over dom f, instance over cod f)."""
    while True:
        big = random_graph(rng, max_nodes, max_arrows)
        f = random_morphism_into(rng, big, max_nodes, max_arrows)
        d = random_declaration(rng, f.dom, signature)
        if d is None:
            continue
        t = random_typed_instance(rng, big)
        return f, d, t
