"""Typed instances (graphs over a schema carrier), indexed semantics, and deltas.

A typed instance is a graph morphism t: X -> G.  Instance updates are
spans of slice morphisms (deltas) composed by pullback.  Everything is
immutable and pure.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from dcl.graphs import (
    Arrow,
    Budget,
    Graph,
    GraphError,
    GraphMorphism,
    _canonical_order,
    _pair_map,
    _projection,
    _pullback,
    _trusted,
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

    _fibres = None  # held by `_trusted` builds, after the typing; not a field
    _held = ("_fibres",)

    @property
    def fibres(self) -> tuple[dict, dict]:
        """(typing.node_fibres(), typing.arrow_fibres()): held if set, else grouped anew."""
        if self._fibres is None:
            return self.typing.node_fibres(), self.typing.arrow_fibres()
        return self._fibres

    def with_fibres(self) -> "TypedInstance":
        """self if it holds its fibres, else a copy that holds them, grouped once."""
        if self._fibres is not None:
            return self
        return _trusted(TypedInstance, self.typing, self.fibres)

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
        return _trusted_instance(schema, {}, (), {})

    def to_json(self) -> dict:
        return {
            "schema": self.schema.to_json(),
            "carrier": self.carrier.to_json(),
            "typing": self.typing.to_json(inline=False),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "TypedInstance":
        try:
            schema = Graph.from_json(data["schema"])
            carrier = Graph.from_json(data["carrier"])
            return cls(GraphMorphism.from_json(data["typing"], carrier, schema))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed instance JSON: {exc}")

    def __repr__(self) -> str:
        return f"TypedInstance({self.carrier!r} over {self.schema!r})"


def serialize_instance(t: TypedInstance) -> bytes:
    return json.dumps(t.to_json(), sort_keys=True, separators=(",", ":")).encode()


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
        composite = compose(self.map, other.map)
        return _trusted(SliceMorphism, self.from_, other.to, composite)

    @classmethod
    def identity(cls, t: TypedInstance) -> "SliceMorphism":
        return _trusted(cls, t, t, identity(t.carrier))

    def to_json(self) -> dict:
        return {
            "dom": self.from_.to_json(),
            "cod": self.to.to_json(),
            "map": self.map.to_json(inline=False),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "SliceMorphism":
        dom = TypedInstance.from_json(data["dom"])
        cod = TypedInstance.from_json(data["cod"])
        m = GraphMorphism.from_json(data["map"], dom=dom.carrier, cod=cod.carrier)
        return cls(dom, cod, m)


def _trusted_instance(
    schema: Graph, node_typing: dict, arrows: list, arrow_typing: dict
) -> TypedInstance:
    """An instance built without validation: `arrows` are (link, src, tgt)
    triples over the elements `node_typing` types, all ids distinct, and
    the typing preserves incidence."""
    arrows = frozenset(map(Arrow._make, arrows))
    carrier = _trusted(Graph, frozenset(node_typing), arrows)
    node_map, arrow_map = dict(sorted(node_typing.items())), dict(sorted(arrow_typing.items()))
    return TypedInstance(
        _trusted(GraphMorphism, carrier, schema, node_map, arrow_map)
    )


def terminal_graph() -> Graph:
    return Graph.build(["pt"], [("loop", "pt", "pt")])


def as_slice(g: Graph) -> TypedInstance:
    """View a plain graph as an object of the slice over the terminal graph."""
    return TypedInstance.build(
        terminal_graph(), g, dict.fromkeys(g.nodes, "pt"), dict.fromkeys(g.arrow_by_id, "loop")
    )


def as_slice_morphism(m: GraphMorphism) -> SliceMorphism:
    return SliceMorphism(as_slice(m.dom), as_slice(m.cod), m)


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
        yield _trusted(SliceMorphism, s, t, m)


def iter_factorizations(
    f: SliceMorphism, x: GraphMorphism, t: TypedInstance
) -> Iterator[SliceMorphism]:
    """The y: cod f -> t with f;y == x, in `search_morphisms` order.

    The search is pinned on the image of f to what x forces, so it
    enumerates only factorizations; there are none when x sends two
    elements with one f-image apart.
    """
    if x.dom != f.map.dom or x.cod != t.carrier:
        raise GraphError("a factorization of x needs x: dom f -> carrier of t")
    pins = _factorization_pins(f.map, (x.node_map.values(), x.arrow_map.values()))
    if pins is not None:
        yield from iter_slice_morphisms(f.to, t, pins)


def _factorization_pins(f: GraphMorphism, x: tuple) -> Optional[tuple[dict, dict]]:
    """Pins on cod f forced by f;y == x (x's images in f's key order); None if x parts a fibre."""
    pins: tuple[dict[str, str], dict[str, str]] = ({}, {})
    for pinned, f_map, x_images in zip(pins, (f.node_map, f.arrow_map), x):
        for image, x_image in zip(f_map.values(), x_images):
            if pinned.setdefault(image, x_image) != x_image:
                return None
    return pins


def find_instance_isomorphism(
    s: TypedInstance, t: TypedInstance
) -> Optional[SliceMorphism]:
    """A typing-preserving isomorphism s -> t by search, or None."""
    if len(s.carrier.nodes) != len(t.carrier.nodes) or len(s.carrier.arrows) != len(
        t.carrier.arrows
    ):
        return None
    return next(iter_slice_morphisms(s, t, injective=True), None)


# ---------------------------------------------------------------------------
# Restriction (pullback of instances along schema maps)


def restrict(t: TypedInstance, m: GraphMorphism) -> TypedInstance:
    """The reduct of t along m: H -> schema(t), a pullback holding its fibres."""
    return _restriction(t, m)[0]


def _restriction(t: TypedInstance, m: GraphMorphism) -> tuple[TypedInstance, tuple]:
    """(`restrict(t, m)`, the maps of its projection): the `_pullback` of t's fibres along m."""
    if t.schema != m.cod:
        raise GraphError("restriction: morphism codomain differs from the schema")
    q, fibres, p_maps = _pullback(t.fibres, m)
    return _trusted(TypedInstance, q, fibres), p_maps


def canonical_restriction(t: TypedInstance, m: Optional[GraphMorphism] = None) -> TypedInstance:
    """The canonical form of `restrict(t, m)`, or of t itself without m: two
    instances over one schema have equal canonical forms iff they are
    isomorphic as slice objects.

    The pullback's elements are numbered from t's fibres, and only the
    canonical result is named; it holds its own fibres.
    """
    return _canonical_numbered(*_numbered_restriction(t, m), t.schema if m is None else m.dom)[0]


def canonical_bytes(g: Graph) -> bytes:
    """Bytes equal for two graphs iff they are isomorphic: the carrier of the
    canonical form of g in the slice over the terminal graph."""
    carrier = canonical_restriction(as_slice(g)).carrier
    return json.dumps(carrier.to_json(), sort_keys=True, separators=(",", ":")).encode()


# Names by place, elements `n{i}` and links `e{j}`: a table is replaced by one
# twice as long when an instance outgrows it, never changed in place.
_PLACE_NAMES: dict[str, tuple[str, ...]] = {"n": (), "e": ()}


def _place_names(prefix: str, count: int) -> tuple[tuple[str, ...], Iterable[int]]:
    """The names of `count` places, read from the `prefix` table, and the places
    in the sorted order of their names: the place order below 11 places, from
    there on by `str` (`n10` before `n2`)."""
    names = _PLACE_NAMES[prefix]
    if len(names) < count:
        names = tuple(f"{prefix}{i}" for i in range(max(count, 2 * len(names))))
        _PLACE_NAMES[prefix] = names
    return names, range(count) if count < 11 else sorted(range(count), key=str)


def _canonical_numbered(names: tuple, links: tuple, arity: Graph) -> tuple[TypedInstance, dict]:
    """(canonical instance, named) over `arity` of the numbered instance (names, links),
    as `_numbered_restriction` gives it: `_named` over the canonical parts.  `named` maps
    each element name, in place order, to its number in the input."""
    if links:
        colours, ranked, order = [], [], []
        for (_, part_colours, triples), members in _canonical_order(names, links):
            if triples:
                base = len(colours)
                ranked += [(base + x, k, base + y) for x, y, k in triples]
            colours += part_colours
            order += members
    else:  # every element is a part alone, as `_canonical_order` sorts them
        order = sorted(range(len(names)), key=names.__getitem__)
        colours, ranked = list(map(names.__getitem__, order)), ()
    return _named(colours, ranked, arity), dict(zip(_place_names("n", len(order))[0], order))


def _named(names: Sequence, links: Sequence, arity: Graph) -> TypedInstance:
    """The numbered instance (names, links) over `arity`, named in its own order
    in one pass (element i `n{i}`, link j `e{j}`), holding that pass's fibres."""
    element_names, element_order = _place_names("n", len(names))
    link_names, link_order = _place_names("e", len(links))
    node_map, node_fibres = {}, {h: [] for h in arity.sorted_nodes}
    for i in element_order:
        node_map[element_names[i]] = names[i]
        node_fibres[names[i]].append(element_names[i])
    arrow_map, arrow_fibres, arrows = {}, {k.id: [] for k in arity.sorted_arrows}, []
    for j in link_order:
        x, k, y = links[j]
        arrow_map[link_names[j]] = k
        arrows.append(Arrow(link_names[j], element_names[x], element_names[y]))
        arrow_fibres[k].append(arrows[-1])
    carrier = _trusted(Graph, frozenset(node_map), frozenset(arrows))
    typing = _trusted(GraphMorphism, carrier, arity, node_map, arrow_map)
    return _trusted(TypedInstance, typing, (node_fibres, arrow_fibres))


def _diagram_key(objects: list, maps: list) -> tuple:
    """Equal for two diagrams of one shape exactly when isomorphisms of their
    objects exist that are the identity on the fixed ones and commute with
    every map.  `objects` are (instance, fixed) pairs; a map (i, j, m) sends
    the carrier of object i to that of object j.  The diagram is canonicalized
    as one graph: each element or link x of object i is a node coloured
    (i, "node" or "link", the type of x, or x if fixed), a link has arrows
    "src" and "tgt" to its ends, and map k an arrow str(k) from each x to its
    image.  Past CANONICAL_WORK_LIMIT the call raises BoundExceeded."""
    names, links, numbers = [], [], []
    for i, (t, fixed) in enumerate(objects):
        numbers.append(({}, {}))
        typings = (t.typing.node_map, t.typing.arrow_map)
        for kind, number, typing in zip(("node", "link"), numbers[i], typings):
            for x, h in typing.items():
                number[x] = len(names)
                names.append((i, kind, x if fixed else h))
        nodes, arrows = numbers[i]
        for a in t.carrier.sorted_arrows:
            links += [(arrows[a.id], "src", nodes[a.src]), (arrows[a.id], "tgt", nodes[a.tgt])]
    for k, (i, j, m) in enumerate(maps):
        for number, images, pairs in zip(numbers[i], numbers[j], (m.node_map, m.arrow_map)):
            links += [(number[x], str(k), images[y]) for x, y in pairs.items()]
    return tuple(encoding for encoding, _ in _canonical_order(names, links))


def _numbered_restriction(t: TypedInstance, m: Optional[GraphMorphism]) -> tuple:
    """(names, links) of `restrict(t, m)`: element i, numbered fibre by fibre
    (over m(h), for each node h of dom m in sorted order), lies over names[i];
    a link is a (source, arrow of dom m, target) triple."""
    if m is not None and t.schema != m.cod:
        raise GraphError("restriction: morphism codomain differs from the schema")
    arity = t.schema if m is None else m.dom
    # without m, each node and arrow of the schema stands for itself
    node_of, arrow_of = ({}, {}) if m is None else (m.node_map, m.arrow_map)
    node_fibres, arrow_fibres = t.fibres
    names, number, links = [], {}, []
    for h in arity.sorted_nodes:
        fibre = node_fibres[node_of.get(h, h)]
        if fibre:
            number[h] = dict(zip(fibre, itertools.count(len(names))))
            names += [h] * len(fibre)
    for k in arity.sorted_arrows:
        over = arrow_fibres[arrow_of.get(k.id, k.id)]
        if over:  # then so are the fibres at its ends
            srcs, tgts = number[k.src], number[k.tgt]
            links += [(srcs[a.src], k.id, tgts[a.tgt]) for a in over]
    return tuple(names), tuple(links)


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
    return IndexedSemantics(t.schema, *t.fibres)


def from_indexed(ix: IndexedSemantics) -> TypedInstance:
    node_typing = {e: node for node, fiber in ix.node_sets.items() for e in fiber}
    arrows = [link for span in ix.arrow_spans.values() for link in span]
    arrow_typing = {link: arrow for arrow, span in ix.arrow_spans.items() for link, _, _ in span}
    return _trusted_instance(ix.schema, node_typing, arrows, arrow_typing)


# ---------------------------------------------------------------------------
# Deltas (span-valued updates)


@dataclass(frozen=True)
class Delta:
    """A span source <-left- apex -right-> target of slice morphisms: the legs
    hold the endpoints, and as slice morphisms they share one schema."""

    left: SliceMorphism
    right: SliceMorphism

    def __post_init__(self) -> None:
        if self.left.from_ != self.right.from_:
            raise GraphError("delta legs start at different apexes")

    __hash__ = None  # type: ignore[assignment]

    @property
    def source(self) -> TypedInstance:
        return self.left.to

    @property
    def target(self) -> TypedInstance:
        return self.right.to

    @property
    def apex(self) -> TypedInstance:
        return self.left.from_

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
        target = TypedInstance.from_json(data["target"])
        apex = TypedInstance.from_json(data["apex"])
        left = GraphMorphism.from_json(data["left"], dom=apex.carrier, cod=source.carrier)
        right = GraphMorphism.from_json(data["right"], dom=apex.carrier, cod=target.carrier)
        return cls(SliceMorphism(apex, source, left), SliceMorphism(apex, target, right))


def identity_delta(t: TypedInstance) -> Delta:
    i = SliceMorphism.identity(t)
    return _trusted(Delta, i, i)


def delta_of(f: SliceMorphism, direction: str = "forward") -> Delta:
    if direction not in ("forward", "backward"):
        raise GraphError(f"unknown delta direction: {direction!r}")
    i = SliceMorphism.identity(f.from_)
    left, right = (i, f) if direction == "forward" else (f, i)
    return _trusted(Delta, left, right)


def _canonical_delta(d: Delta) -> Delta:
    """d with its apex renamed to its canonical form.  The apex is numbered in
    sorted-id order, and link `e{j}` is renamed from the j-th apex arrow in
    (source place, target place, arrow) order, ties in id order."""
    typing, carrier = d.apex.typing, d.apex.carrier
    nodes, arrows = carrier.sorted_nodes, carrier.sorted_arrows
    number = {n: x for x, n in enumerate(nodes)}
    names = tuple(typing.node_map[n] for n in nodes)
    links = tuple((number[a.src], typing.arrow_map[a.id], number[a.tgt]) for a in arrows)
    apex, named = _canonical_numbered(names, links, d.apex.schema)
    place = {nodes[x]: i for i, x in enumerate(named.values())}
    ranked = sorted(arrows, key=lambda a: (place[a.src], place[a.tgt], typing.arrow_map[a.id]))
    node_map = {n: nodes[named[n]] for n in apex.typing.node_map}
    link_names, link_order = _place_names("e", len(ranked))
    arrow_map = {link_names[j]: ranked[j].id for j in link_order}
    back = _trusted(GraphMorphism, apex.carrier, carrier, node_map, arrow_map)
    left, right = (
        _trusted(SliceMorphism, apex, leg.to, compose(back, leg.map))
        for leg in (d.left, d.right)
    )
    return _trusted(Delta, left, right)


def compose_delta(d1: Delta, d2: Delta) -> Delta:
    if d1.target != d2.source:
        raise GraphError("cannot compose deltas: endpoints differ")
    _, p, q = pullback(d1.right.map, d2.left.map)
    apex = TypedInstance(compose(p, d1.apex.typing))
    left = _trusted(SliceMorphism, apex, d1.source, compose(p, d1.left.map))
    right = _trusted(SliceMorphism, apex, d2.target, compose(q, d2.right.map))
    return _canonical_delta(_trusted(Delta, left, right))


def pullback_delta(f: GraphMorphism, d: Delta) -> Delta:
    """Pull a whole update span back along a schema morphism: the apex is its
    `cod_lift` along f, each end its restriction, and each leg the map
    (x|h) -> (leg(x)|h) it induces on pullback pairs."""
    if d.source.schema != f.cod:
        raise GraphError("pullback_delta: delta lives over a different schema")
    lift = cod_lift(d.apex, f)
    legs = []
    for leg in (d.left, d.right):
        end = restrict(leg.to, f)
        m = _pair_map(lift.carrier_map, lift.lifted.typing, leg.map, end.carrier)
        legs.append(_trusted(SliceMorphism, lift.lifted, end, m))
    return _canonical_delta(_trusted(Delta, *legs))


def deltas_equivalent(d1: Delta, d2: Delta) -> bool:
    """Equality up to apex isomorphism commuting with both legs, by diagram
    key with the endpoints held fixed; past CANONICAL_WORK_LIMIT it raises
    BoundExceeded."""
    if d1.source != d2.source or d1.target != d2.target:
        return False
    ends = [(d1.source, True), (d1.target, True)]
    key1, key2 = (
        _diagram_key([(d.apex, False), *ends], [(0, 1, d.left.map), (0, 2, d.right.map)])
        for d in (d1, d2)
    )
    return key1 == key2


# ---------------------------------------------------------------------------
# Fibration lifts


@dataclass(frozen=True)
class CodLift:
    """Cartesian lift of a schema map along the codomain fibration."""

    lifted: TypedInstance  # instance over the new schema
    carrier_map: GraphMorphism  # lifted carrier -> original carrier


def cod_lift(t: TypedInstance, q: GraphMorphism) -> CodLift:
    """`restrict(t, q)` with its projection to the carrier of t."""
    lifted, p_maps = _restriction(t, q)
    return CodLift(lifted, _projection(lifted.typing, t.carrier, p_maps))


def dom_lift(t: TypedInstance, p: GraphMorphism) -> SliceMorphism:
    if p.cod != t.carrier:
        raise GraphError("dom_lift: morphism codomain differs from the carrier")
    return _trusted(SliceMorphism, TypedInstance(compose(p, t.typing)), t, p)


# ---------------------------------------------------------------------------
# Instance enumeration (used by oracles and soundness reports)


def _families(schema: Graph, max_per_node: int) -> Iterator[tuple[dict, list]]:
    """(fibres, link slots) per size vector, in enumeration order.  A slot
    (schema arrow, source element, target element) holds a link count."""
    nodes = schema.sorted_nodes
    for size in itertools.product(range(max_per_node + 1), repeat=len(nodes)):
        fibers = {n: _numbered(n, k) for n, k in zip(nodes, size)}
        pairs = [(a.id, fibers[a.src], fibers[a.tgt]) for a in schema.sorted_arrows]
        yield fibers, [(a, s, t) for a, srcs, tgts in pairs for s in srcs for t in tgts]


def _numbered(prefix: str, count: int) -> list[str]:
    """`prefix#i` for i < count, i zero-padded to one width: sorted as numbered."""
    width = len(str(count - 1))
    return [f"{prefix}#{str(i).zfill(width)}" for i in range(count)]


def _instance(schema: Graph, fibers: dict, slots: list, counts: tuple) -> TypedInstance:
    """`counts[i]` parallel links on slot i; the typing is valid by construction.

    Elements are named "node#i" and links "arrow#k", k counting the links
    of one schema arrow, as `_numbered` pads them.  Splitting at the last "#"
    recovers the schema id, and schema node and arrow ids are distinct, so no
    two names collide whatever characters the schema ids contain.
    """
    node_typing = {e: n for n, fiber in fibers.items() for e in fiber}
    ends = {a: [] for a in schema.arrow_by_id}
    for (a, s, t), k in zip(slots, counts):
        ends[a] += [(s, t)] * k
    arrows, arrow_typing = [], {}
    for a, pairs in ends.items():
        for link, (s, t) in zip(_numbered(a, len(pairs)), pairs):
            arrows.append((link, s, t))
            arrow_typing[link] = a
    return _trusted_instance(schema, node_typing, arrows, arrow_typing)


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
    that a permutation of elements within each fibre induces.  Fibres that
    no slot reaches are left alone: permuting them induces the identity."""
    index = {slot: i for i, slot in enumerate(slots)}
    ends = {e for _, s, t in slots for e in (s, t)}
    moved = [fiber for fiber in fibers.values() if ends.intersection(fiber)]
    perms = set()
    for images in itertools.product(*map(itertools.permutations, moved)):
        rename = dict(zip(itertools.chain(*moved), itertools.chain(*images)))
        perms.add(tuple(index[(a, rename[s], rename[t])] for a, s, t in slots))
    perms.discard(tuple(range(len(slots))))
    return [operator.itemgetter(*perm) for perm in sorted(perms)]


def iter_instance_classes(
    schema: Graph, max_per_node: int, max_parallel: int = 2
) -> Iterator[TypedInstance]:
    """One instance per isomorphism class that `iter_typed_instances` covers:
    the first member of the class in that enumeration, in the same order."""
    for _, _, labelled in _iter_classes(schema, max_per_node, max_parallel):
        yield labelled()


def _iter_classes(
    schema: Graph, max_per_node: int, max_parallel: int = 2, budget: Optional[Budget] = None
) -> Iterator[tuple[tuple, tuple, Callable[[], TypedInstance]]]:
    """(names, links, labelled) per class of `iter_instance_classes`, in its
    order: `labelled()` builds that class's instance, and (names, links) is
    `_numbered_restriction(labelled(), None)`, made from the count vector alone.

    Orderly generation (Read, "Every one a winner", 1978): two instances of one size
    vector are isomorphic exactly when a permutation of elements within fibres carries
    one link-count vector to the other, and instances of different size vectors never
    are.  `itertools.product` yields count vectors in lexicographic order, so a vector
    is the first of its class exactly when no such permutation makes it smaller.  The
    numbering is thus a canonical labelling by construction (McKay, 1998): class sweeps
    decide each class on `_named(names, links, schema)`.  `budget`, if given, is charged
    a unit per count vector visited, kept or not, and one more per class yielded.
    """
    charge = (lambda: None) if budget is None else budget.charge
    for fibers, slots in _families(schema, max_per_node):
        perms = _slot_permutations(fibers, slots)
        # ids sort as they are enumerated, so element "h#i" is numbered in that order
        number = {e: x for x, e in enumerate(itertools.chain(*fibers.values()))}
        names = tuple(h for h, fiber in fibers.items() for _ in fiber)
        singles = [((number[s], a, number[t]),) for a, s, t in slots]
        for counts in itertools.product(range(max_parallel + 1), repeat=len(slots)):
            charge()
            if any(p(counts) < counts for p in perms):
                continue
            charge()
            links = tuple(itertools.chain.from_iterable(map(operator.mul, singles, counts)))
            yield names, links, functools.partial(_instance, schema, fibers, slots, counts)

