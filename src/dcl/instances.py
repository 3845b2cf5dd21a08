"""Typed instances (graphs over a schema carrier), indexed semantics, and deltas.

A typed instance is a graph morphism t: X -> G.  Instance updates are
spans of slice morphisms (deltas) composed by pullback.  Everything is
immutable and pure.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping, Optional

from dcl.graphs import (
    Graph,
    GraphError,
    GraphMorphism,
    _trusted_morphism,
    canonicalize,
    compose,
    identity,
    pullback,
    search_morphisms,
)


@dataclass(frozen=True)
class TypedInstance:
    typing: GraphMorphism

    @property
    def carrier(self) -> Graph:
        return self.typing.dom

    @property
    def schema(self) -> Graph:
        return self.typing.cod

    @classmethod
    def build(
        cls,
        schema: Graph,
        carrier: Graph,
        node_typing: Mapping[str, str],
        arrow_typing: Mapping[str, str],
    ) -> "TypedInstance":
        return cls(GraphMorphism(carrier, schema, node_typing, arrow_typing))

    @classmethod
    def empty(cls, schema: Graph) -> "TypedInstance":
        return cls(GraphMorphism(Graph.empty(), schema, {}, {}))

    def node_fiber(self, schema_node: str) -> tuple[str, ...]:
        return tuple(
            n for n in self.carrier.sorted_nodes if self.typing.node_map[n] == schema_node
        )

    def arrow_fiber(self, schema_arrow: str) -> tuple[str, ...]:
        return tuple(
            a.id
            for a in self.carrier.sorted_arrows
            if self.typing.arrow_map[a.id] == schema_arrow
        )

    def to_json(self) -> dict:
        return {
            "schema": self.schema.to_json(),
            "carrier": self.carrier.to_json(),
            "typing": self.typing.to_json(inline=False),
        }

    @classmethod
    def from_json(cls, data: Mapping, schema: Optional[Graph] = None) -> "TypedInstance":
        try:
            schema = schema if schema is not None else Graph.from_json(data["schema"])
            carrier = Graph.from_json(data["carrier"])
            typing = data["typing"]
            return cls.build(schema, carrier, typing["nodes"], typing["arrows"])
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed instance JSON: {exc}")

    def __repr__(self) -> str:
        return f"TypedInstance({self.carrier!r} over {self.schema!r})"


@dataclass(frozen=True)
class CanonicalInstance:
    instance: TypedInstance
    relabeling: GraphMorphism  # iso: original carrier -> canonical carrier

    @cached_property
    def bytes(self) -> bytes:
        return serialize_instance(self.instance)


def serialize_instance(t: TypedInstance) -> bytes:
    import json

    return json.dumps(t.to_json(), sort_keys=True, separators=(",", ":")).encode()


def canonicalize_instance(t: TypedInstance) -> CanonicalInstance:
    """Relabel the carrier canonically so that two instances over the same
    schema serialize to equal bytes iff they are isomorphic as slice objects.

    The carrier canonicalization is seeded with typing colors (node types)
    and arrow labels (arrow types), so only typing-preserving relabelings
    are considered.
    """
    cf = canonicalize(
        t.carrier,
        node_colors=t.typing.node_map,
        arrow_labels=t.typing.arrow_map,
    )
    nodes, arrows = cf.relabeling.node_map, cf.relabeling.arrow_map
    node_typing = dict(sorted((nodes[n], c) for n, c in t.typing.node_map.items()))
    arrow_typing = dict(sorted((arrows[a], c) for a, c in t.typing.arrow_map.items()))
    typing = _trusted_morphism(cf.graph, t.schema, node_typing, arrow_typing)
    return CanonicalInstance(TypedInstance(typing), cf.relabeling)


@dataclass(frozen=True)
class SliceMorphism:
    from_: TypedInstance
    to: TypedInstance
    map: GraphMorphism

    def __post_init__(self) -> None:
        if self.map.dom != self.from_.carrier or self.map.cod != self.to.carrier:
            raise GraphError("slice morphism carrier map has wrong endpoints")
        if self.from_.schema != self.to.schema:
            raise GraphError("slice morphism endpoints live over different schemas")
        if compose(self.map, self.to.typing) != self.from_.typing:
            raise GraphError("slice morphism does not commute with typings")

    __hash__ = None  # type: ignore[assignment]

    def then(self, other: "SliceMorphism") -> "SliceMorphism":
        if self.to != other.from_:
            raise GraphError("cannot compose slice morphisms: endpoints differ")
        return SliceMorphism(self.from_, other.to, compose(self.map, other.map))

    @classmethod
    def identity(cls, t: TypedInstance) -> "SliceMorphism":
        return cls(t, t, identity(t.carrier))

    def to_json(self) -> dict:
        return {
            "dom": self.from_.to_json(),
            "cod": self.to.to_json(),
            "map": self.map.to_json(inline=False),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "SliceMorphism":
        dom = TypedInstance.from_json(data["dom"])
        cod = TypedInstance.from_json(data["cod"], schema=dom.schema)
        m = GraphMorphism.from_json(data["map"], dom=dom.carrier, cod=cod.carrier)
        return cls(dom, cod, m)


def _trusted_slice(
    s: TypedInstance, t: TypedInstance, m: GraphMorphism
) -> SliceMorphism:
    """A slice morphism built without validation, for a map that commutes
    with the typings by construction."""
    out = object.__new__(SliceMorphism)
    object.__setattr__(out, "from_", s)
    object.__setattr__(out, "to", t)
    object.__setattr__(out, "map", m)
    return out


def iter_slice_morphisms(
    s: TypedInstance,
    t: TypedInstance,
    pins: Optional[tuple[Mapping[str, str], Mapping[str, str]]] = None,
    injective: bool = False,
) -> Iterator[SliceMorphism]:
    """All typing-commuting carrier morphisms s -> t, in `search_morphisms` order.

    A slice search is a hom search whose candidates are limited to elements
    of the same type.  `pins` and `injective` are passed to the search.
    """
    if s.schema != t.schema:
        return
    typings = (s.typing, t.typing)
    for m in search_morphisms(s.carrier, t.carrier, typings, pins, injective):
        yield _trusted_slice(s, t, m)


def iter_instance_isomorphisms(
    s: TypedInstance,
    t: TypedInstance,
    pins: Optional[tuple[Mapping[str, str], Mapping[str, str]]] = None,
) -> Iterator[SliceMorphism]:
    """The typing-preserving isomorphisms s -> t that respect `pins`."""
    if len(s.carrier.nodes) != len(t.carrier.nodes) or len(s.carrier.arrows) != len(
        t.carrier.arrows
    ):
        return
    yield from iter_slice_morphisms(s, t, pins, injective=True)


def find_instance_isomorphism(
    s: TypedInstance, t: TypedInstance
) -> Optional[SliceMorphism]:
    return next(iter_instance_isomorphisms(s, t), None)


# ---------------------------------------------------------------------------
# Restriction (pullback of instances along schema maps)


def restrict_with_projection(
    t: TypedInstance, m: GraphMorphism
) -> tuple[TypedInstance, GraphMorphism]:
    """Pull t back along m: H -> schema(t).

    Returns the restricted instance over H together with the projection
    from its carrier to the original carrier.
    """
    if t.schema != m.cod:
        raise GraphError("restriction: morphism codomain differs from the schema")
    _, p, q = pullback(t.typing, m)
    return TypedInstance(q), p


def restrict(t: TypedInstance, m: GraphMorphism) -> TypedInstance:
    return restrict_with_projection(t, m)[0]


# ---------------------------------------------------------------------------
# Indexed semantics (Grothendieck roundtrip)


@dataclass(frozen=True)
class IndexedSemantics:
    schema: Graph
    node_sets: Mapping[str, frozenset[str]]
    arrow_spans: Mapping[str, frozenset[tuple[str, str, str]]]  # (link, src el, tgt el)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "node_sets", {k: frozenset(v) for k, v in sorted(self.node_sets.items())}
        )
        object.__setattr__(
            self,
            "arrow_spans",
            {k: frozenset(tuple(x) for x in v) for k, v in sorted(self.arrow_spans.items())},
        )
        if set(self.node_sets) != self.schema.nodes:
            raise GraphError("node_sets keys must be exactly the schema nodes")
        if set(self.arrow_spans) != set(self.schema.arrow_by_id):
            raise GraphError("arrow_spans keys must be exactly the schema arrows")
        elements = [e for fiber in self.node_sets.values() for e in fiber]
        if len(elements) != len(set(elements)):
            raise GraphError("element ids must be globally unique across fibers")
        links = [l for span in self.arrow_spans.values() for (l, _, _) in span]
        if len(links) != len(set(links)) or set(links) & set(elements):
            raise GraphError("link ids must be unique and disjoint from element ids")
        for arrow_id, span in self.arrow_spans.items():
            arrow = self.schema.arrow_by_id[arrow_id]
            for link, src, tgt in span:
                if src not in self.node_sets[arrow.src]:
                    raise GraphError(f"link {link!r} source outside the source fiber")
                if tgt not in self.node_sets[arrow.tgt]:
                    raise GraphError(f"link {link!r} target outside the target fiber")


def to_indexed(t: TypedInstance) -> IndexedSemantics:
    node_sets = {n: frozenset(t.node_fiber(n)) for n in t.schema.nodes}
    arrow_spans = {}
    for a in t.schema.arrow_by_id:
        span = set()
        for link in t.arrow_fiber(a):
            arrow = t.carrier.arrow_by_id[link]
            span.add((link, arrow.src, arrow.tgt))
        arrow_spans[a] = frozenset(span)
    return IndexedSemantics(t.schema, node_sets, arrow_spans)


def from_indexed(ix: IndexedSemantics) -> TypedInstance:
    nodes = [e for fiber in ix.node_sets.values() for e in fiber]
    node_typing = {
        e: schema_node for schema_node, fiber in ix.node_sets.items() for e in fiber
    }
    arrows = []
    arrow_typing = {}
    for schema_arrow, span in ix.arrow_spans.items():
        for link, src, tgt in span:
            arrows.append((link, src, tgt))
            arrow_typing[link] = schema_arrow
    carrier = Graph.build(nodes, arrows)
    return TypedInstance.build(ix.schema, carrier, node_typing, arrow_typing)


# ---------------------------------------------------------------------------
# Deltas (span-valued updates)


@dataclass(frozen=True)
class Delta:
    source: TypedInstance
    target: TypedInstance
    apex: TypedInstance
    left: SliceMorphism
    right: SliceMorphism

    def __post_init__(self) -> None:
        if self.source.schema != self.target.schema:
            raise GraphError("delta endpoints live over different schemas")
        if self.left.from_ != self.apex or self.left.to != self.source:
            raise GraphError("delta left leg has wrong endpoints")
        if self.right.from_ != self.apex or self.right.to != self.target:
            raise GraphError("delta right leg has wrong endpoints")

    __hash__ = None  # type: ignore[assignment]

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "apex": self.apex.to_json(),
            "left": self.left.map.to_json(inline=False),
            "right": self.right.map.to_json(inline=False),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Delta":
        source = TypedInstance.from_json(data["source"])
        target = TypedInstance.from_json(data["target"], schema=source.schema)
        apex = TypedInstance.from_json(data["apex"], schema=source.schema)
        left = GraphMorphism.from_json(
            data["left"], dom=apex.carrier, cod=source.carrier
        )
        right = GraphMorphism.from_json(
            data["right"], dom=apex.carrier, cod=target.carrier
        )
        return cls(
            source,
            target,
            apex,
            SliceMorphism(apex, source, left),
            SliceMorphism(apex, target, right),
        )


def identity_delta(t: TypedInstance) -> Delta:
    i = SliceMorphism.identity(t)
    return Delta(t, t, t, i, i)


def delta_of(f: SliceMorphism, direction: str = "forward") -> Delta:
    if direction == "forward":
        return Delta(f.from_, f.to, f.from_, SliceMorphism.identity(f.from_), f)
    if direction == "backward":
        return Delta(f.to, f.from_, f.from_, f, SliceMorphism.identity(f.from_))
    raise GraphError(f"unknown delta direction: {direction!r}")


def _canonical_delta(d: Delta) -> Delta:
    ci = canonicalize_instance(d.apex)
    inv = ci.relabeling.inverse()
    apex = ci.instance
    return Delta(
        d.source,
        d.target,
        apex,
        SliceMorphism(apex, d.source, compose(inv, d.left.map)),
        SliceMorphism(apex, d.target, compose(inv, d.right.map)),
    )


def compose_delta(d1: Delta, d2: Delta) -> Delta:
    if d1.target != d2.source:
        raise GraphError("cannot compose deltas: endpoints differ")
    _, p, q = pullback(d1.right.map, d2.left.map)
    apex = TypedInstance(compose(p, d1.apex.typing))
    left = SliceMorphism(apex, d1.source, compose(p, d1.left.map))
    right = SliceMorphism(apex, d2.target, compose(q, d2.right.map))
    return _canonical_delta(Delta(d1.source, d2.target, apex, left, right))


def deltas_equivalent(d1: Delta, d2: Delta) -> bool:
    """Equality up to apex isomorphism commuting with both legs."""
    if d1.source != d2.source or d1.target != d2.target:
        return False
    for iso in iter_instance_isomorphisms(d1.apex, d2.apex):
        if (
            compose(iso.map, d2.left.map) == d1.left.map
            and compose(iso.map, d2.right.map) == d1.right.map
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Fibration lifts


@dataclass(frozen=True)
class CodLift:
    """Cartesian lift of a schema map along the codomain fibration."""

    lifted: TypedInstance  # instance over the new schema
    carrier_map: GraphMorphism  # lifted carrier -> original carrier
    schema_map: GraphMorphism  # the lifted-along morphism


def cod_lift(t: TypedInstance, q: GraphMorphism) -> CodLift:
    if q.cod != t.schema:
        raise GraphError("cod_lift: morphism codomain differs from the schema")
    lifted, proj = restrict_with_projection(t, q)
    return CodLift(lifted, proj, q)


def dom_lift(t: TypedInstance, p: GraphMorphism) -> SliceMorphism:
    if p.cod != t.carrier:
        raise GraphError("dom_lift: morphism codomain differs from the carrier")
    sub = TypedInstance(compose(p, t.typing))
    return SliceMorphism(sub, t, p)


# ---------------------------------------------------------------------------
# Instance enumeration (used by oracles and soundness reports)


def _families(schema: Graph, max_per_node: int) -> Iterator[tuple[dict, list]]:
    """(fibres, link slots) per size vector, in enumeration order.  A slot
    (schema arrow, source element, target element) holds a link count."""
    nodes = schema.sorted_nodes
    for size in itertools.product(range(max_per_node + 1), repeat=len(nodes)):
        fibers = {n: [f"{n}#{i}" for i in range(k)] for n, k in zip(nodes, size)}
        pairs = [(a.id, fibers[a.src], fibers[a.tgt]) for a in schema.sorted_arrows]
        yield fibers, [(a, s, t) for a, srcs, tgts in pairs for s in srcs for t in tgts]


def _instance(schema: Graph, fibers: dict, slots: list, counts: tuple) -> TypedInstance:
    """`counts[i]` parallel links on slot i; the typing is valid by construction.

    Elements are named "node#i" and links "arrow#k", k counting the links
    of one schema arrow.  Splitting at the last "#" recovers the schema id,
    and schema node and arrow ids are distinct, so no two names collide
    whatever characters the schema ids contain.
    """
    node_typing = {e: n for n, fiber in fibers.items() for e in fiber}
    arrows, arrow_typing = [], {}
    links = dict.fromkeys(schema.arrow_by_id, 0)
    for (a, s, t), k in zip(slots, counts):
        for _ in range(k):
            link = f"{a}#{links[a]}"
            links[a] += 1
            arrows.append((link, s, t))
            arrow_typing[link] = a
    carrier = Graph.build(node_typing, arrows)
    typing = _trusted_morphism(
        carrier, schema, dict(sorted(node_typing.items())), dict(sorted(arrow_typing.items()))
    )
    return TypedInstance(typing)


def iter_typed_instances(
    schema: Graph, max_per_node: int, max_parallel: int = 2
) -> Iterator[TypedInstance]:
    """All typed instances with at most max_per_node elements per schema node
    and at most max_parallel parallel links per (schema arrow, element pair)."""
    for fibers, slots in _families(schema, max_per_node):
        for counts in itertools.product(range(max_parallel + 1), repeat=len(slots)):
            yield _instance(schema, fibers, slots, counts)


def _slot_permutations(fibers: dict, slots: list) -> list[Callable]:
    """Getters c -> c∘p, one per non-identity permutation p of the slots
    that a permutation of elements within each fibre induces."""
    index = {slot: i for i, slot in enumerate(slots)}
    perms = set()
    for images in itertools.product(*map(itertools.permutations, fibers.values())):
        rename = dict(zip(itertools.chain(*fibers.values()), itertools.chain(*images)))
        perms.add(tuple(index[(a, rename[s], rename[t])] for a, s, t in slots))
    perms.discard(tuple(range(len(slots))))
    return [operator.itemgetter(*perm) for perm in sorted(perms)]


def iter_instance_classes(
    schema: Graph, max_per_node: int, max_parallel: int = 2
) -> Iterator[TypedInstance]:
    """One instance per isomorphism class that `iter_typed_instances` covers:
    the first member of the class in that enumeration, in the same order.

    Orderly generation (Read, "Every one a winner", 1978): two instances of
    one size vector are isomorphic exactly when a permutation of elements
    within fibres carries one link-count vector to the other, and instances
    of different size vectors never are.  `itertools.product` yields count
    vectors in lexicographic order, so a vector is the first of its class
    exactly when no such permutation makes it lexicographically smaller.
    """
    for fibers, slots in _families(schema, max_per_node):
        perms = _slot_permutations(fibers, slots)
        for counts in itertools.product(range(max_parallel + 1), repeat=len(slots)):
            if any(p(counts) < counts for p in perms):
                continue
            yield _instance(schema, fibers, slots, counts)
