"""Finite directed multigraphs, their morphisms, limits/colimits, canonical forms.

Node and arrow ids are opaque strings.  All values are immutable; every
operation returns fresh values, so anything here can be shared freely
between threads.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional


class GraphError(ValueError):
    """Malformed graph data or a non-composable / mismatched operation."""


class SizeGuardError(GraphError):
    """An operation refused to run because its input exceeds the size guard."""


DEFAULT_SIZE_GUARD = 64


def _size_guard() -> int:
    raw = os.environ.get("DCL_SIZE_GUARD")
    if raw is None:
        return DEFAULT_SIZE_GUARD
    try:
        return int(raw)
    except ValueError:
        raise GraphError(f"DCL_SIZE_GUARD is not an integer: {raw!r}")


class Arrow(NamedTuple):
    id: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Graph:
    nodes: frozenset[str]
    arrows: frozenset[Arrow]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "arrows", frozenset(Arrow(*a) for a in self.arrows))
        ids = [a.id for a in self.arrows]
        if len(ids) != len(set(ids)):
            raise GraphError("duplicate arrow ids")
        clash = set(ids) & self.nodes
        if clash:
            raise GraphError(f"ids used both as node and arrow: {sorted(clash)}")
        for a in self.arrows:
            if a.src not in self.nodes or a.tgt not in self.nodes:
                raise GraphError(f"arrow {a.id!r} has endpoint outside the node set")

    @classmethod
    def build(
        cls, nodes: Iterable[str], arrows: Iterable[tuple[str, str, str]] = ()
    ) -> "Graph":
        return cls(frozenset(nodes), frozenset(Arrow(*a) for a in arrows))

    @classmethod
    def empty(cls) -> "Graph":
        return cls(frozenset(), frozenset())

    @cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    @cached_property
    def sorted_nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def sorted_arrows(self) -> tuple[Arrow, ...]:
        return tuple(sorted(self.arrows))

    def src(self, arrow_id: str) -> str:
        return self.arrow_by_id[arrow_id].src

    def tgt(self, arrow_id: str) -> str:
        return self.arrow_by_id[arrow_id].tgt

    def to_json(self) -> dict:
        return {
            "nodes": list(self.sorted_nodes),
            "arrows": [
                {"id": a.id, "src": a.src, "tgt": a.tgt} for a in self.sorted_arrows
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Graph":
        try:
            nodes = data["nodes"]
            arrows = [(a["id"], a["src"], a["tgt"]) for a in data["arrows"]]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph JSON: {exc}")
        for x in itertools.chain(nodes, itertools.chain.from_iterable(arrows)):
            if not isinstance(x, str):
                raise GraphError(f"malformed graph JSON: id {x!r} is not a string")
        if len(set(nodes)) != len(nodes):
            raise GraphError("duplicate node ids")
        return cls.build(nodes, arrows)

    def __repr__(self) -> str:
        return f"Graph({len(self.nodes)} nodes, {len(self.arrows)} arrows)"


@dataclass(frozen=True)
class GraphMorphism:
    dom: Graph
    cod: Graph
    node_map: Mapping[str, str]
    arrow_map: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_map", dict(sorted(self.node_map.items())))
        object.__setattr__(self, "arrow_map", dict(sorted(self.arrow_map.items())))
        if set(self.node_map) != self.dom.nodes:
            raise GraphError("node map is not total on the domain nodes")
        if set(self.arrow_map) != set(self.dom.arrow_by_id):
            raise GraphError("arrow map is not total on the domain arrows")
        for n, image in self.node_map.items():
            if image not in self.cod.nodes:
                raise GraphError(f"node {n!r} maps outside the codomain")
        for a in self.dom.arrows:
            image = self.arrow_map[a.id]
            if image not in self.cod.arrow_by_id:
                raise GraphError(f"arrow {a.id!r} maps outside the codomain")
            img = self.cod.arrow_by_id[image]
            if self.node_map[a.src] != img.src or self.node_map[a.tgt] != img.tgt:
                raise GraphError(f"incidence not preserved at arrow {a.id!r}")

    __hash__ = None  # type: ignore[assignment]

    def then(self, other: "GraphMorphism") -> "GraphMorphism":
        return compose(self, other)

    @cached_property
    def is_bijective(self) -> bool:
        return (
            len(self.node_map) == len(self.cod.nodes)
            and len(set(self.node_map.values())) == len(self.cod.nodes)
            and len(self.arrow_map) == len(self.cod.arrows)
            and len(set(self.arrow_map.values())) == len(self.cod.arrows)
        )

    def inverse(self) -> "GraphMorphism":
        if not self.is_bijective:
            raise GraphError("morphism is not an isomorphism")
        return GraphMorphism(
            self.cod,
            self.dom,
            {v: k for k, v in self.node_map.items()},
            {v: k for k, v in self.arrow_map.items()},
        )

    def to_json(self, inline: bool = True) -> dict:
        out: dict = {"nodes": dict(self.node_map), "arrows": dict(self.arrow_map)}
        if inline:
            out["dom"] = self.dom.to_json()
            out["cod"] = self.cod.to_json()
        return out

    @classmethod
    def from_json(
        cls,
        data: Mapping,
        dom: Optional[Graph] = None,
        cod: Optional[Graph] = None,
    ) -> "GraphMorphism":
        try:
            dom = dom if dom is not None else Graph.from_json(data["dom"])
            cod = cod if cod is not None else Graph.from_json(data["cod"])
            return cls(dom, cod, dict(data["nodes"]), dict(data["arrows"]))
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed morphism JSON: {exc}")

    def __repr__(self) -> str:
        return f"GraphMorphism({self.dom!r} -> {self.cod!r})"


def identity(graph: Graph) -> GraphMorphism:
    return GraphMorphism(
        graph,
        graph,
        {n: n for n in graph.nodes},
        {a.id: a.id for a in graph.arrows},
    )


def compose(f: GraphMorphism, g: GraphMorphism) -> GraphMorphism:
    if f.cod != g.dom:
        raise GraphError(
            f"cannot compose: codomain {f.cod!r} differs from domain {g.dom!r}"
        )
    return _trusted_morphism(
        f.dom,
        g.cod,
        {n: g.node_map[v] for n, v in f.node_map.items()},
        {a: g.arrow_map[v] for a, v in f.arrow_map.items()},
    )


# ---------------------------------------------------------------------------
# Morphism search


def _trusted_morphism(
    dom: Graph, cod: Graph, node_map: dict[str, str], arrow_map: dict[str, str]
) -> GraphMorphism:
    """A morphism built without validation, for maps the library made valid.

    The maps must be total, incidence-preserving and listed in sorted key
    order, as `GraphMorphism.__post_init__` would leave them.
    """
    m = object.__new__(GraphMorphism)
    object.__setattr__(m, "dom", dom)
    object.__setattr__(m, "cod", cod)
    object.__setattr__(m, "node_map", node_map)
    object.__setattr__(m, "arrow_map", arrow_map)
    return m


def search_morphisms(
    g: Graph,
    h: Graph,
    typings: Optional[tuple[GraphMorphism, GraphMorphism]] = None,
    pins: Optional[tuple[Mapping[str, str], Mapping[str, str]]] = None,
    injective: bool = False,
) -> Iterator[GraphMorphism]:
    """Incidence-preserving morphisms g -> h, by backtracking over indices.

    Order: node ids of g are assigned in sorted order, each trying its
    candidates in sorted order (node assignments vary slowest), then arrow
    images follow in sorted arrow order, each over its candidates sorted
    by id.  The search indexes h once per call: nodes by colour and arrow
    ids by (label, src, tgt).  Assigning a node checks only the arrows of
    g whose later endpoint it is (forward checking).

    `typings`, a pair (g -> S, h -> S) over one schema S, limits the search
    to morphisms that commute with them: node colours and arrow labels are
    the typings' images.  `pins` (node map, arrow map), each partial on g,
    fixes those images; the result is the unpinned search filtered by the
    pins, in the same order.  `injective` keeps only injective morphisms,
    which between graphs of equal size are the isomorphisms.
    """
    if typings is None:
        blank = dict.fromkeys([*g.nodes, *g.arrow_by_id, *h.nodes, *h.arrow_by_id])
        node_colour = arrow_label = cod_colour = cod_label = blank
    else:
        node_colour, arrow_label = typings[0].node_map, typings[0].arrow_map
        cod_colour, cod_label = typings[1].node_map, typings[1].arrow_map
    node_pins, arrow_pins = pins if pins is not None else ({}, {})
    by_colour: dict = {}
    for n in h.sorted_nodes:
        by_colour.setdefault(cod_colour[n], []).append(n)
    index: dict[tuple, list[str]] = {}
    for a in h.sorted_arrows:
        index.setdefault((cod_label[a.id], a.src, a.tgt), []).append(a.id)

    nodes = g.sorted_nodes
    candidates = []
    for n in nodes:
        options = by_colour.get(node_colour[n], [])
        pinned = node_pins.get(n)
        candidates.append(options if pinned is None else [c for c in options if c == pinned])
    if not all(candidates):
        return
    position = {n: i for i, n in enumerate(nodes)}
    checks: list[list[tuple]] = [[] for _ in nodes]
    ends = []
    for a in g.sorted_arrows:
        s, t = position[a.src], position[a.tgt]
        checks[max(s, t)].append((arrow_label[a.id], s, t))
        ends.append((arrow_label[a.id], s, t, arrow_pins.get(a.id)))
    arrow_ids = [a.id for a in g.sorted_arrows]

    def complete(image: list[str]) -> Iterator[GraphMorphism]:
        options = []
        for label, s, t, pinned in ends:
            found = index[(label, image[s], image[t])]
            options.append(found if pinned is None else [x for x in found if x == pinned])
        for images in itertools.product(*options):
            if injective and len(set(images)) < len(images):
                continue
            yield _trusted_morphism(
                g, h, dict(zip(nodes, image)), dict(zip(arrow_ids, images))
            )

    if not nodes:
        yield from complete([])
        return
    image: list = [None] * len(nodes)
    pending = [iter(candidates[0])]
    while pending:
        depth = len(pending) - 1
        for c in pending[depth]:
            if injective and c in image[:depth]:
                continue
            image[depth] = c
            for label, s, t in checks[depth]:
                if (label, image[s], image[t]) not in index:
                    break
            else:
                break
        else:
            pending.pop()
            continue
        if depth + 1 < len(nodes):
            pending.append(iter(candidates[depth + 1]))
        else:
            yield from complete(image)


def iter_homomorphisms(g: Graph, h: Graph) -> Iterator[GraphMorphism]:
    """All incidence-preserving morphisms g -> h, in `search_morphisms` order."""
    yield from search_morphisms(g, h)


def factorization_pins(
    f: GraphMorphism, x: GraphMorphism
) -> Optional[tuple[dict[str, str], dict[str, str]]]:
    """The partial map y on the image of f forced by f;y == x.

    None when no y exists: x sends two elements with one f-image apart.
    """
    if f.dom != x.dom:
        raise GraphError("factorization pins need maps from one domain")
    pins: tuple[dict[str, str], dict[str, str]] = ({}, {})
    for pinned, f_map, x_map in (
        (pins[0], f.node_map, x.node_map),
        (pins[1], f.arrow_map, x.arrow_map),
    ):
        for element, image in f_map.items():
            if pinned.setdefault(image, x_map[element]) != x_map[element]:
                return None
    return pins


def find_isomorphism(g: Graph, h: Graph) -> Optional[GraphMorphism]:
    """The lexicographically least isomorphism g -> h, or None."""
    if len(g.nodes) != len(h.nodes) or len(g.arrows) != len(h.arrows):
        return None
    if sorted(_degree_profile(g).values()) != sorted(_degree_profile(h).values()):
        return None
    return next(search_morphisms(g, h, injective=True), None)


def _degree_profile(g: Graph) -> dict[str, tuple[int, int]]:
    out = {n: [0, 0] for n in g.nodes}
    for a in g.arrows:
        out[a.src][0] += 1
        out[a.tgt][1] += 1
    return {n: (d[0], d[1]) for n, d in out.items()}


# ---------------------------------------------------------------------------
# Pullback / pushout


def _escape_pair_part(raw: str) -> str:
    escaped = raw.replace("\\", "\\\\").replace("|", "\\|")
    return escaped.replace("(", "\\(").replace(")", "\\)")


def pair_id(left: str, right: str) -> str:
    """The id "(left|right)", with `\\ | ( )` escaped inside the components.

    Escaping makes the pairing injective; ids free of those characters keep
    their plain names.
    """
    both = left + right
    if "|" in both or "(" in both or ")" in both or "\\" in both:
        left, right = _escape_pair_part(left), _escape_pair_part(right)
    return f"({left}|{right})"


def pullback(
    f: GraphMorphism, g: GraphMorphism
) -> tuple[Graph, GraphMorphism, GraphMorphism]:
    """Pullback of a cospan f: A -> C <- B :g.

    Returns (P, p: P -> A, q: P -> B); node/arrow ids of P are rendered
    canonically as "(a|b)".
    """
    if f.cod != g.cod:
        raise GraphError("pullback requires a cospan: codomains differ")
    nodes_over: dict[str, list[str]] = {}
    for b in g.dom.sorted_nodes:
        nodes_over.setdefault(g.node_map[b], []).append(b)
    nodes = []
    node_p: dict[str, str] = {}
    node_q: dict[str, str] = {}
    for a in f.dom.sorted_nodes:
        for b in nodes_over.get(f.node_map[a], ()):
            pid = pair_id(a, b)
            nodes.append(pid)
            node_p[pid] = a
            node_q[pid] = b
    arrows_over: dict[str, list[Arrow]] = {}
    for y in g.dom.sorted_arrows:
        arrows_over.setdefault(g.arrow_map[y.id], []).append(y)
    arrows = []
    arrow_p: dict[str, str] = {}
    arrow_q: dict[str, str] = {}
    for x in f.dom.sorted_arrows:
        for y in arrows_over.get(f.arrow_map[x.id], ()):
            pid = pair_id(x.id, y.id)
            arrows.append((pid, pair_id(x.src, y.src), pair_id(x.tgt, y.tgt)))
            arrow_p[pid] = x.id
            arrow_q[pid] = y.id
    p_graph = Graph.build(nodes, arrows)

    def projection(cod: Graph, node_map: dict, arrow_map: dict) -> GraphMorphism:
        return _trusted_morphism(
            p_graph, cod, dict(sorted(node_map.items())), dict(sorted(arrow_map.items()))
        )

    return (
        p_graph,
        projection(f.dom, node_p, arrow_p),
        projection(g.dom, node_q, arrow_q),
    )


def _find(parent, x):
    """Root of x in a union-find `parent` (a list or dict), halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y) -> None:
    """Merge the classes of x and y; the lesser root becomes the root."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


def _side_tag(side: str, raw: str) -> str:
    """"L:raw" or "R:raw", with `\\ ~` escaped in raw so class ids cannot collide."""
    if "~" in raw or "\\" in raw:
        raw = raw.replace("\\", "\\\\").replace("~", "\\~")
    return f"{side}:{raw}"


def pushout(
    f: GraphMorphism, g: GraphMorphism
) -> tuple[Graph, GraphMorphism, GraphMorphism]:
    """Pushout of a span cod(f) <- C -> cod(g).

    Returns (P, into_left: cod(f) -> P, into_right: cod(g) -> P): the
    quotient of the disjoint union of cod(f) and cod(g) by the equivalence
    generated by f(c) ~ g(c), on nodes and arrows separately.  A class is
    named by its members, tagged "L:" or "R:" by side, sorted and joined
    by "~".
    """
    if f.dom != g.dom:
        raise GraphError("pushout requires a span: domains differ")
    node_parent: dict[str, str] = {}  # union-find parents of tagged ids
    arrow_parent: dict[str, str] = {}
    ends: dict[str, tuple[str, str]] = {}
    for side, graph in (("L", f.cod), ("R", g.cod)):
        for n in graph.nodes:
            tagged = _side_tag(side, n)
            node_parent[tagged] = tagged
        for a in graph.arrows:
            tagged = _side_tag(side, a.id)
            arrow_parent[tagged] = tagged
            ends[tagged] = (_side_tag(side, a.src), _side_tag(side, a.tgt))
    for c in f.dom.nodes:
        _union(node_parent, _side_tag("L", f.node_map[c]), _side_tag("R", g.node_map[c]))
    for c in f.dom.arrow_by_id:
        _union(arrow_parent, _side_tag("L", f.arrow_map[c]), _side_tag("R", g.arrow_map[c]))

    def class_ids(parent: dict[str, str]) -> dict[str, str]:
        """Each root, the least member of its class, to the class id."""
        members: dict[str, list[str]] = {}
        for x in parent:
            members.setdefault(_find(parent, x), []).append(x)
        return {root: "~".join(sorted(ms)) for root, ms in members.items()}

    node_id = class_ids(node_parent)
    arrow_id = class_ids(arrow_parent)

    def node_class(tagged: str) -> str:
        return node_id[_find(node_parent, tagged)]

    def arrow_class(tagged: str) -> str:
        return arrow_id[_find(arrow_parent, tagged)]

    arrows = [
        (arrow_id[root], node_class(ends[root][0]), node_class(ends[root][1]))
        for root in arrow_id
    ]
    p_graph = Graph.build(node_id.values(), arrows)

    def into(side: str, graph: Graph) -> GraphMorphism:
        return GraphMorphism(
            graph,
            p_graph,
            {n: node_class(_side_tag(side, n)) for n in graph.nodes},
            {a: arrow_class(_side_tag(side, a)) for a in graph.arrow_by_id},
        )

    return p_graph, into("L", f.cod), into("R", g.cod)


# ---------------------------------------------------------------------------
# Canonical forms


@dataclass(frozen=True)
class CanonicalForm:
    graph: Graph
    relabeling: GraphMorphism  # isomorphism input -> canonical graph

    @cached_property
    def bytes(self) -> bytes:
        return serialize_graph(self.graph)


def serialize_graph(g: Graph) -> bytes:
    return json.dumps(g.to_json(), sort_keys=True, separators=(",", ":")).encode()


def _refine(cols: list, outs: list, ins: list) -> list[int]:
    """Colour refinement to the coarsest equitable partition finer than `cols`.

    `outs[x]` / `ins[x]` list (arrow label, neighbour) pairs of node x.  The
    result renumbers the cells 0, 1, ... in the order of the input colours:
    refinement splits cells but never reorders them, so a node individualized
    at the front of its cell keeps that place in every leaf below it.
    """
    n = len(cols)
    cells = len(set(cols))
    if cells == n:
        rank = {c: r for r, c in enumerate(sorted(cols))}
        return [rank[c] for c in cols]
    while True:
        sigs = [
            (
                c,
                tuple(sorted([(label, cols[y]) for label, y in out])),
                tuple(sorted([(label, cols[y]) for label, y in into])),
            )
            for c, out, into in zip(cols, outs, ins)
        ]
        rank = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        cols = [rank[sig] for sig in sigs]
        if len(rank) == cells or len(rank) == n:
            return cols
        cells = len(rank)


def _target_cell(cols: list[int]) -> Optional[list[int]]:
    """Members of the first cell with more than one node, or None if discrete."""
    if len(set(cols)) == len(cols):
        return None
    members: dict[int, list[int]] = {}
    for x, c in enumerate(cols):
        members.setdefault(c, []).append(x)
    return members[min(c for c, m in members.items() if len(m) > 1)]


def _leaf_order(cols: list[int]) -> list[int]:
    order = [0] * len(cols)
    for x, c in enumerate(cols):
        order[c] = x
    return order


def _encode(order: list[int], outs: list, names: list[str]) -> tuple:
    pos = [0] * len(order)
    for i, x in enumerate(order):
        pos[x] = i
    return (
        len(order),
        tuple(names[x] for x in order),
        tuple(
            sorted(
                (pos[x], pos[y], label)
                for x, out in enumerate(outs)
                for label, y in out
            )
        ),
    )


def _twin_swaps(cols: list[int], outs: list, ins: list) -> list[dict[int, int]]:
    """Automorphisms known up front: swaps of twins.

    Two nodes of one colour with the same arrows (label and neighbour) out
    and in are exchanged by an automorphism; so are any two of a class of
    such twins, which the chain of adjacent swaps generates.
    """
    classes: dict[tuple, list[int]] = {}
    for x, (c, out, into) in enumerate(zip(cols, outs, ins)):
        classes.setdefault((c, tuple(sorted(out)), tuple(sorted(into))), []).append(x)
    return [
        {a: b, b: a}
        for members in classes.values()
        for a, b in zip(members, members[1:])
    ]


class _Level:
    """A node of the search tree: its partition and the children tried so far.

    `orbits` is a union-find over the orbits of the automorphisms found so
    far that fix the path to this node pointwise; `applied` counts the
    automorphisms already merged into it.
    """

    __slots__ = ("cols", "cell", "next", "tried", "orbits", "applied")

    def __init__(self, cols: list[int], cell: list[int]) -> None:
        self.cols = cols
        self.cell = cell
        self.next = 0
        self.tried: list[int] = []
        self.orbits: Optional[list[int]] = None
        self.applied = 0

    def next_candidate(
        self, path: list[int], autos: list[dict[int, int]]
    ) -> Optional[int]:
        """The next node of the cell to individualize, skipping explored orbits."""
        while self.next < len(self.cell):
            v = self.cell[self.next]
            self.next += 1
            if self.tried:
                if self.orbits is None:
                    self.orbits = list(range(len(self.cols)))
                if self.applied < len(autos):
                    on_path = set(path)
                    for gamma in autos[self.applied :]:
                        if on_path.isdisjoint(gamma):
                            for x, y in gamma.items():
                                _union(self.orbits, x, y)
                    self.applied = len(autos)
                root = _find(self.orbits, v)
                if any(_find(self.orbits, u) == root for u in self.tried):
                    continue
            self.tried.append(v)
            return v
        return None


def _search(root: list[int], outs: list, ins: list, names: list[str]) -> tuple:
    """Least leaf encoding of the individualization-refinement tree below `root`.

    Depth-first: each node of the first non-singleton cell in turn is
    individualized and the partition refined again, down to discrete leaves.
    A candidate in the orbit of an explored sibling, under the automorphisms
    found so far that fix the path pointwise, has an equivalent subtree and
    is skipped.  Automorphisms are twin swaps known up front and the map
    between two leaves with equal encodings; such a leaf also shows that
    the whole subtree below the point where its path leaves the earlier
    leaf's path is equivalent to one explored, so the search jumps back
    there.  Returns (encoding, order) of the least leaf.
    """
    autos = _twin_swaps(root, outs, ins)
    first: Optional[tuple] = None  # (encoding, order, path) of a leaf
    best: Optional[tuple] = None
    path: list[int] = []
    stack = [_Level(root, _target_cell(root))]  # stack[d] is reached by path[:d]
    while stack:
        level = stack[-1]
        del path[len(stack) - 1 :]
        v = level.next_candidate(path, autos)
        if v is None:
            stack.pop()
            continue
        path.append(v)
        cols = _refine([(c, x != v) for x, c in enumerate(level.cols)], outs, ins)
        cell = _target_cell(cols)
        if cell is not None:
            stack.append(_Level(cols, cell))
            continue
        order = _leaf_order(cols)
        encoding = _encode(order, outs, names)
        if first is None:
            first = best = (encoding, order, list(path))
            continue
        for other in (first, best):
            if encoding == other[0]:
                autos.append({a: b for a, b in zip(other[1], order) if a != b})
                common = 0
                while path[common] == other[2][common]:
                    common += 1
                del stack[common + 1 :]
                break
        else:
            if encoding < best[0]:
                best = (encoding, order, list(path))
    return best[0], best[1]


def _components(outs: list, ins: list) -> list[list[int]]:
    """Weakly connected components, each listed from its least node."""
    seen = [False] * len(outs)
    components = []
    for start in range(len(outs)):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        for x in members:
            for _, y in outs[x] + ins[x]:
                if not seen[y]:
                    seen[y] = True
                    members.append(y)
        components.append(members)
    return components


def _canonical_component(
    members: list[int], outs: list, ins: list, names: list[str]
) -> tuple[tuple, list[int]]:
    """(encoding, members in canonical order) of one weakly connected component."""
    if len(members) == 1:
        x = members[0]
        loops = tuple(sorted((0, 0, label) for label, _ in outs[x]))
        return (1, (names[x],), loops), members
    if len(members) == len(outs):
        members = list(range(len(outs)))
        c_outs, c_ins, c_names = outs, ins, names
    else:
        local = {x: i for i, x in enumerate(members)}
        c_outs = [[(label, local[y]) for label, y in outs[x]] for x in members]
        c_ins = [[(label, local[y]) for label, y in ins[x]] for x in members]
        c_names = [names[x] for x in members]
    cols = _refine(c_names, c_outs, c_ins)
    if _target_cell(cols) is None:
        order = _leaf_order(cols)
        encoding = _encode(order, c_outs, c_names)
    else:
        encoding, order = _search(cols, c_outs, c_ins, c_names)
    return encoding, [members[x] for x in order]


def canonicalize(
    g: Graph,
    max_nodes: Optional[int] = None,
    node_colors: Optional[Mapping[str, str]] = None,
    arrow_labels: Optional[Mapping[str, str]] = None,
) -> CanonicalForm:
    """Deterministic canonical form: canonical bytes agree iff graphs are isomorphic.

    The graph is split into weakly connected components.  Each component is
    put in canonical order by colour refinement and, where refinement leaves
    a cell of several nodes, an individualization-refinement search for the
    least adjacency encoding, pruned by the automorphisms it finds (twin
    swaps and maps between leaves with equal encodings).  Isolated nodes and
    components that refinement already orders take no search.  Components
    follow one another in the order of their encodings.  Optional node
    colors / arrow labels restrict the isomorphisms considered (used to
    canonicalize typed instances); labels must be drawn from a shared
    vocabulary for cross-graph byte comparison.  A graph with more nodes
    than `max_nodes` (default: DCL_SIZE_GUARD, else 64) raises
    SizeGuardError.
    """
    guard = max_nodes if max_nodes is not None else _size_guard()
    if len(g.nodes) > guard:
        raise SizeGuardError(
            f"refusing to canonicalize a graph with {len(g.nodes)} nodes "
            f"(guard is {guard}; set DCL_SIZE_GUARD to override)"
        )
    labels = arrow_labels if arrow_labels is not None else {a.id: "" for a in g.arrows}
    nodes = g.sorted_nodes
    if node_colors is None:
        names = [""] * len(nodes)
    else:
        names = [node_colors[n] for n in nodes]
    position = {n: i for i, n in enumerate(nodes)}
    outs: list[list[tuple[str, int]]] = [[] for _ in nodes]
    ins: list[list[tuple[str, int]]] = [[] for _ in nodes]
    for a in g.arrows:
        s, t, label = position[a.src], position[a.tgt], labels[a.id]
        outs[s].append((label, t))
        ins[t].append((label, s))
    parts = sorted(
        _canonical_component(members, outs, ins, names)
        for members in _components(outs, ins)
    )
    order = [nodes[x] for _, members in parts for x in members]
    index = {n: i for i, n in enumerate(order)}
    node_map = {n: f"n{index[n]}" for n in nodes}
    arrow_order = sorted(
        g.arrows, key=lambda a: (index[a.src], index[a.tgt], labels[a.id], a.id)
    )
    arrow_map = dict(sorted((a.id, f"e{i}") for i, a in enumerate(arrow_order)))
    canonical = Graph.build(
        node_map.values(),
        [(arrow_map[a.id], node_map[a.src], node_map[a.tgt]) for a in g.arrows],
    )
    return CanonicalForm(canonical, _trusted_morphism(g, canonical, node_map, arrow_map))


def canonical_bytes(g: Graph, max_nodes: Optional[int] = None) -> bytes:
    return canonicalize(g, max_nodes).bytes
