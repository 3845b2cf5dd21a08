"""Finite directed multigraphs, their morphisms, limits/colimits, canonical forms.

Node and arrow ids are opaque strings.  All values are immutable; every
operation returns fresh values, so anything here can be shared freely
between threads.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional


class GraphError(ValueError):
    """Malformed graph data or a non-composable / mismatched operation."""


class BoundExceeded(Exception):
    """A search spent its work bound: the answer is Unknown, not an error.
    Not a GraphError, so no handler for malformed input catches it."""


class Budget:
    """Work spent against a limit; `charge` raises BoundExceeded past it."""

    def __init__(self, bound: str, limit: int) -> None:
        self.bound, self.limit, self.spent = bound, limit, 0

    def charge(self, units: int = 1) -> None:
        self.spent += units
        if self.spent > self.limit:
            raise self.exceeded()

    @property
    def usage(self) -> str:
        return f"spent {self.spent} of {self.limit} units"

    def exceeded(self) -> BoundExceeded:
        """The error of a spent bound: it names the bound, the work spent and the limit."""
        return BoundExceeded(f"{self.bound} bound exceeded: {self.usage}")


# Work units one `_canonical_order` call may spend: a unit is one node or arrow
# incidence of a component, per refinement call and per refinement round.
CANONICAL_WORK_LIMIT = 2_000_000


def _trusted(cls, *values):
    """A frozen `cls` made from `values` without `__post_init__`, for a value the
    library built valid: its fields in declaration order, maps keyed in sorted
    order as the checks would leave them, then the extras the class holds (its
    `_held` names, such as an instance's `_fibres`).  `_FILLERS` sets each in
    turn, not by `__dict__.update`, so that instances of one class keep sharing
    their dict keys."""
    out = object.__new__(cls)
    _FILLERS[cls](out, *values)
    return out


class _Fillers(dict):
    """`cls` -> the positional setter of its fields and held extras, made on first
    use as `dataclasses` makes `__init__`: one `object.__setattr__` per name."""

    def __missing__(self, cls):
        names = [f.name for f in dataclasses.fields(cls)] + list(getattr(cls, "_held", ()))
        body = "".join(f"    setattr(out, {name!r}, {name})\n" for name in names)
        scope = {"setattr": object.__setattr__}
        exec(f"def fill(out, {', '.join(names)}):\n{body}", scope)
        fill = self[cls] = scope["fill"]
        return fill


_FILLERS = _Fillers()


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

    def __eq__(self, other) -> bool:
        # a graph is most often compared with itself, by the guards of every restriction
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nodes == other.nodes and self.arrows == other.arrows

    @classmethod
    def build(
        cls, nodes: Iterable[str], arrows: Iterable[tuple[str, str, str]] = ()
    ) -> "Graph":
        return cls(frozenset(nodes), frozenset(Arrow(*a) for a in arrows))

    @classmethod
    def empty(cls) -> "Graph":
        return _trusted(cls, frozenset(), frozenset())

    @cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    @cached_property
    def sorted_nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def sorted_arrows(self) -> tuple[Arrow, ...]:
        return tuple(sorted(self.arrows))

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
            nodes, arrow_list = data["nodes"], data["arrows"]
            if not isinstance(nodes, list) or not isinstance(arrow_list, list):
                raise TypeError("nodes and arrows must be lists")
            arrows = [(a["id"], a["src"], a["tgt"]) for a in arrow_list]
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

    def node_fibres(self) -> dict[str, list[str]]:
        """Each codomain node to its preimage, in sorted order; rebuilt per call."""
        out: dict[str, list[str]] = {n: [] for n in self.cod.sorted_nodes}
        for n in self.dom.sorted_nodes:
            out[self.node_map[n]].append(n)
        return out

    def arrow_fibres(self) -> dict[str, list[Arrow]]:
        """Each codomain arrow id to its preimage arrows, in sorted order; rebuilt per call."""
        out: dict[str, list[Arrow]] = {a.id: [] for a in self.cod.sorted_arrows}
        for a in self.dom.sorted_arrows:
            out[self.arrow_map[a.id]].append(a)
        return out

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
            nodes, arrows = data["nodes"], data["arrows"]
            if not isinstance(nodes, dict) or not isinstance(arrows, dict):
                raise TypeError("nodes and arrows must be objects")
            return cls(dom, cod, nodes, arrows)
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed morphism JSON: {exc}")

    def __repr__(self) -> str:
        return f"GraphMorphism({self.dom!r} -> {self.cod!r})"


def identity(graph: Graph) -> GraphMorphism:
    nodes, arrows = graph.sorted_nodes, [a.id for a in graph.sorted_arrows]
    node_map, arrow_map = dict(zip(nodes, nodes)), dict(zip(arrows, arrows))
    return _trusted(GraphMorphism, graph, graph, node_map, arrow_map)


def compose(f: GraphMorphism, g: GraphMorphism) -> GraphMorphism:
    if f.cod != g.dom:
        raise GraphError(
            f"cannot compose: codomain {f.cod!r} differs from domain {g.dom!r}"
        )
    node_map = {n: g.node_map[v] for n, v in f.node_map.items()}
    arrow_map = {a: g.arrow_map[v] for a, v in f.arrow_map.items()}
    return _trusted(GraphMorphism, f.dom, g.cod, node_map, arrow_map)


# ---------------------------------------------------------------------------
# Morphism search


def search_morphisms(
    g: Graph,
    h: Graph,
    typings: Optional[tuple[GraphMorphism, GraphMorphism]] = None,
    pins: Optional[tuple[Mapping[str, str], Mapping[str, str]]] = None,
) -> Iterator[GraphMorphism]:
    """Incidence-preserving morphisms g -> h, by backtracking over indices.

    Order: node ids of g are assigned in sorted order, each trying its
    candidates in sorted order (node assignments vary slowest), then arrow
    images follow in sorted arrow order, each over its candidates sorted
    by id.  A plan of g, an index of h (nodes by colour, arrow ids by
    (label, src, tgt)) and a run over both with the pins make the search;
    assigning a node checks only the arrows of g it closes (forward checking).

    `typings`, a pair (g -> S, h -> S) over one schema S, limits the search
    to morphisms that commute with them: node colours and arrow labels are
    the typings' images.  `pins` (node map, arrow map), each partial on g,
    fixes those images; the result is the unpinned search filtered by the
    pins, in the same order.  A pattern with an arrow label that h lacks is
    refused at once.
    """
    g_typing, h_typing = typings or (None, None)
    plan = _pattern_plan(g, g_typing)
    fibres = h_typing and (h_typing.node_fibres(), h_typing.arrow_fibres())
    found = _run_search(plan, _target_index(h, fibres), pins)
    return (_morphism(plan, h, images) for images in found)


def _pattern_plan(g: Graph, typing: Optional[GraphMorphism] = None) -> tuple:
    """What the search needs of a pattern, whatever the target: (g, sorted nodes,
    their colours, each node's forward checks, arrow ids, arrow ends as (label,
    source position, target position, pin None), and the labels used)."""
    label = typing.arrow_map if typing else dict.fromkeys(g.arrow_by_id)
    nodes = g.sorted_nodes
    colours = [typing.node_map[n] for n in nodes] if typing else [None] * len(nodes)
    position = {n: i for i, n in enumerate(nodes)}
    checks: list[list[tuple]] = [[] for _ in nodes]
    ends = []
    for a in g.sorted_arrows:
        s, t = position[a.src], position[a.tgt]
        checks[max(s, t)].append((label[a.id], s, t))
        ends.append((label[a.id], s, t, None))
    used = {end[0] for end in ends}
    return g, nodes, colours, checks, [a.id for a in g.sorted_arrows], ends, used


def _target_index(h: Graph, fibres: Optional[tuple] = None) -> tuple:
    """What the search needs of a target, whatever the pattern: (its nodes by
    colour, its arrow ids by (label, src, tgt), sorted, labels used), read from
    `fibres`, a typing's (node_fibres(), arrow_fibres()) keyed by colour and label;
    without them, h's nodes and arrows have the colour and label None."""
    by_colour, by_label = fibres or ({None: h.sorted_nodes}, {None: h.sorted_arrows})
    index: dict[tuple, list[str]] = {}
    for label, arrows in by_label.items():
        for a in arrows:
            index.setdefault((label, a.src, a.tgt), []).append(a.id)
    return by_colour, index, {key[0] for key in index}


def _run_search(plan: tuple, target: tuple, pins=None) -> Iterator[tuple]:
    """`search_morphisms` of a planned pattern into an indexed target, as (node images,
    arrow images) in plan order; none, at once, if the pattern uses a label h lacks."""
    _, nodes, colours, checks, arrow_ids, ends, used = plan
    by_colour, index, cod_used = target
    if not used <= cod_used:
        return
    node_pins, arrow_pins = pins if pins is not None else ({}, {})
    candidates = []
    for n, colour in zip(nodes, colours):
        options = by_colour.get(colour, [])
        pinned = node_pins.get(n)
        candidates.append(options if pinned is None else [c for c in options if c == pinned])
    if not all(candidates):
        return
    if arrow_pins:
        ends = [(*end[:3], arrow_pins.get(a)) for a, end in zip(arrow_ids, ends)]

    def complete(image: list[str]) -> Iterator[tuple]:
        options = []
        for label, s, t, pinned in ends:
            found = index[(label, image[s], image[t])]
            options.append(found if pinned is None else [x for x in found if x == pinned])
        node_images = tuple(image)  # a copy: the backtracking reuses `image`
        for images in itertools.product(*options):
            yield node_images, images

    if not nodes:
        yield from complete([])
        return
    image: list = [None] * len(nodes)
    pending = [iter(candidates[0])]
    while pending:
        depth = len(pending) - 1
        for c in pending[depth]:
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


def _image_maps(plan: tuple, images: tuple) -> tuple[dict, dict]:
    """The node and arrow maps that `_run_search` of the plan yields as `images`."""
    return dict(zip(plan[1], images[0])), dict(zip(plan[4], images[1]))


def _morphism(plan: tuple, h: Graph, images: tuple) -> GraphMorphism:
    """The morphism to h that `_run_search` of the plan yields as `images`."""
    return _trusted(GraphMorphism, plan[0], h, *_image_maps(plan, images))


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
    q, _, p_maps = _pullback((f.node_fibres(), f.arrow_fibres()), g)
    return q.dom, _projection(q, f.dom, p_maps), q


def _pullback(f_fibres: tuple, g: GraphMorphism) -> tuple:
    """(q, q's fibres, p's maps) of `pullback(f, g)`, made fibre by fibre over B
    from f's (node_fibres(), arrow_fibres()), all it reads of f.  The fibres of q
    are as q.node_fibres() and q.arrow_fibres() give them: sorted by pair id,
    which need not be the order of the A sides.  p is left to `_projection`, as
    not every caller needs it."""
    f_nodes, f_arrows = f_fibres
    node_fibres, node_p, node_q, pids = {}, {}, {}, {}  # pids: b -> a -> pair id
    for b in g.dom.sorted_nodes:
        fibre = node_fibres[b] = []
        over = pids[b] = {}
        for a in f_nodes[g.node_map[b]]:
            over[a] = pid = pair_id(a, b)
            node_p[pid], node_q[pid] = a, b
            fibre.append(pid)
        fibre.sort()
    arrow_fibres, arrow_p, arrow_q = {}, {}, {}
    for y in g.dom.sorted_arrows:
        fibre = arrow_fibres[y.id] = []
        srcs, tgts = pids[y.src], pids[y.tgt]
        for x in f_arrows[g.arrow_map[y.id]]:
            pid = pair_id(x.id, y.id)
            arrow_p[pid], arrow_q[pid] = x.id, y.id
            fibre.append(Arrow(pid, srcs[x.src], tgts[x.tgt]))
        fibre.sort()
    p_graph = _trusted(Graph, frozenset(node_q), frozenset(itertools.chain(*arrow_fibres.values())))
    node_map = {x: node_q[x] for x in sorted(node_q)}
    arrow_map = {x: arrow_q[x] for x in sorted(arrow_q)}
    q = _trusted(GraphMorphism, p_graph, g.dom, node_map, arrow_map)
    return q, (node_fibres, arrow_fibres), (node_p, arrow_p)


def _projection(q: GraphMorphism, cod: Graph, p_maps: tuple) -> GraphMorphism:
    """The leg p: P -> cod of a `_pullback`, from its maps, keyed in q's order."""
    node_p, arrow_p = p_maps
    node_map, arrow_map = {x: node_p[x] for x in q.node_map}, {x: arrow_p[x] for x in q.arrow_map}
    return _trusted(GraphMorphism, q.dom, cod, node_map, arrow_map)


def _pair_map(p: GraphMorphism, q: GraphMorphism, k: GraphMorphism, cod: Graph) -> GraphMorphism:
    """The map (x|h) -> (k(x)|h) that k: A -> A' induces from a `_pullback` P, with
    legs p: P -> A and q: P -> H, to `cod`, A' pulled back along H; keyed as p."""
    node_map = {x: pair_id(k.node_map[a], q.node_map[x]) for x, a in p.node_map.items()}
    arrow_map = {x: pair_id(k.arrow_map[a], q.arrow_map[x]) for x, a in p.arrow_map.items()}
    return _trusted(GraphMorphism, p.dom, cod, node_map, arrow_map)


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
    generated by f(c) ~ g(c), in one union-find over nodes and arrows: no
    node shares an id with an arrow, and the span glues nodes to nodes and
    arrows to arrows.  A class is named by its members, tagged "L:" or "R:"
    by side, sorted and joined by "~".
    """
    if f.dom != g.dom:
        raise GraphError("pushout requires a span: domains differ")
    parent: dict[str, str] = {}  # union-find parents of tagged ids
    ends: dict[str, tuple[str, str]] = {}  # tagged arrow -> its tagged ends
    for side, graph in (("L", f.cod), ("R", g.cod)):
        for x in itertools.chain(graph.nodes, graph.arrow_by_id):
            tagged = _side_tag(side, x)
            parent[tagged] = tagged
        for a in graph.arrows:
            ends[_side_tag(side, a.id)] = (_side_tag(side, a.src), _side_tag(side, a.tgt))
    for f_map, g_map in ((f.node_map, g.node_map), (f.arrow_map, g.arrow_map)):
        for c, x in f_map.items():
            _union(parent, _side_tag("L", x), _side_tag("R", g_map[c]))
    members: dict[str, list[str]] = {}  # each root, the least member of its class
    for x in parent:
        members.setdefault(_find(parent, x), []).append(x)
    class_id = {root: "~".join(sorted(ms)) for root, ms in members.items()}

    def cls(tagged: str) -> str:
        return class_id[_find(parent, tagged)]

    nodes = [i for root, i in class_id.items() if root not in ends]
    arrows = [Arrow(i, cls(ends[r][0]), cls(ends[r][1])) for r, i in class_id.items() if r in ends]
    p_graph = _trusted(Graph, frozenset(nodes), frozenset(arrows))

    def into(side: str, dom: Graph) -> GraphMorphism:
        node_map = {n: cls(_side_tag(side, n)) for n in dom.sorted_nodes}
        arrow_map = {a.id: cls(_side_tag(side, a.id)) for a in dom.sorted_arrows}
        return _trusted(GraphMorphism, dom, p_graph, node_map, arrow_map)

    return p_graph, into("L", f.cod), into("R", g.cod)


# ---------------------------------------------------------------------------
# Canonical forms


def _refine(cols: list, outs: list, ins: list, budget: Budget) -> list[int]:
    """Colour refinement to the coarsest equitable partition finer than `cols`.

    `outs[x]` / `ins[x]` list (arrow label, neighbour) pairs of node x, each
    arrow once in each: a round reads the arrows from `outs`.  The result
    renumbers the cells 0, 1, ... in the order of the input colours:
    refinement splits cells but never reorders them, so a node individualized
    at the front of its cell keeps that place in every leaf below it.  The
    call and each round charge `budget` one unit per node and incidence.
    """
    n = len(cols)
    work = n + sum(map(len, outs)) + sum(map(len, ins))
    budget.charge(work)
    cells = len(set(cols))
    if cells == n:
        rank = {c: r for r, c in enumerate(sorted(cols))}
        return [rank[c] for c in cols]
    while True:
        budget.charge(work)
        out_sigs: list[list] = [[] for _ in cols]
        in_sigs: list[list] = [[] for _ in cols]
        for x, out in enumerate(outs):
            for label, y in out:
                out_sigs[x].append((label, cols[y]))
                in_sigs[y].append((label, cols[x]))
        for sig in itertools.chain(out_sigs, in_sigs):
            sig.sort()
        sigs = list(zip(cols, map(tuple, out_sigs), map(tuple, in_sigs)))
        rank = dict(zip(sorted(set(sigs)), itertools.count()))
        cols = list(map(rank.__getitem__, sigs))
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


def _encode(order: list[int], outs: list, names: list[str]) -> tuple:
    pos = [0] * len(order)
    for i, x in enumerate(order):
        pos[x] = i
    return (
        len(order),
        tuple(map(names.__getitem__, order)),
        tuple(
            sorted(
                (pos[x], pos[y], label)
                for x, out in enumerate(outs)
                for label, y in out
            )
        ),
    )


def _twin_classes(cols: list[int], outs: list, ins: list) -> list[list[int]]:
    """Classes of twins: nodes of one colour with the same arrows (label and
    neighbour) out and in.  Any two twins are exchanged by an automorphism."""
    classes: dict[tuple, list[int]] = {}
    for x, (c, out, into) in enumerate(zip(cols, outs, ins)):
        classes.setdefault((c, tuple(sorted(out)), tuple(sorted(into))), []).append(x)
    return list(classes.values())


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


def _search(root: list[int], outs: list, ins: list, names: list[str], budget: Budget) -> tuple:
    """Least leaf encoding of the individualization-refinement tree below `root`.

    Depth-first: each node of the first non-singleton cell in turn is
    individualized and the partition refined again, down to discrete leaves.
    A candidate in the orbit of an explored sibling, under the automorphisms
    found so far that fix the path pointwise, has an equivalent subtree and
    is skipped.  Automorphisms are the chain of adjacent swaps in each class
    of twins, known up front, which generates its permutations, and the map
    between two leaves with equal encodings; such a leaf also shows that
    the whole subtree below the point where its path leaves the earlier
    leaf's path is equivalent to one explored, so the search jumps back
    there.  Returns (encoding, order) of the least leaf.
    """
    autos = [
        {a: b, b: a}
        for members in _twin_classes(root, outs, ins)
        for a, b in zip(members, members[1:])
    ]
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
        cols = _refine([(c, x != v) for x, c in enumerate(level.cols)], outs, ins, budget)
        cell = _target_cell(cols)
        if cell is not None:
            stack.append(_Level(cols, cell))
            continue
        order = sorted(range(len(cols)), key=cols.__getitem__)
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


def _canonical_component(
    members: list[int], outs: list, ins: list, names: list[str], budget: Budget
) -> tuple[tuple, list[int]]:
    """(encoding, members in canonical order) of one weakly connected component.

    A single element is its own order and charges nothing.  Members of distinct
    colours are ordered by colour and charge the one pass of `_refine`, which
    would find every cell a single member."""
    if len(members) == 1:
        x = members[0]
        loops = tuple(sorted((0, 0, label) for label, _ in outs[x]))
        return (1, (names[x],), loops), members
    colours = list(map(names.__getitem__, members))
    if len(set(colours)) == len(members):
        budget.charge(len(members) + 2 * sum(map(len, map(outs.__getitem__, members))))
        order = sorted(members, key=names.__getitem__)
        place = dict(zip(order, itertools.count()))
        triples = sorted((place[x], place[y], label) for x in order for label, y in outs[x])
        return (len(order), tuple(sorted(colours)), tuple(triples)), order
    if len(members) == len(outs):
        members, colours = range(len(outs)), names
        c_outs, c_ins = outs, ins
    else:
        local = dict(zip(members, itertools.count()))
        c_outs, c_ins = [[] for _ in members], [[] for _ in members]
        for x, i in local.items():
            for label, y in outs[x]:
                c_outs[i].append((label, local[y]))
                c_ins[local[y]].append((label, i))
    cols = _refine(colours, c_outs, c_ins, budget)
    cells = len(set(cols))
    if cells == len(cols) or cells == len(_twin_classes(cols, c_outs, c_ins)):
        # every cell is one class of twins: individualizing a twin splits only
        # its own cell, so `_search` would return its first leaf, this order
        order = sorted(range(len(cols)), key=cols.__getitem__)
        encoding = _encode(order, c_outs, colours)
    else:
        encoding, order = _search(cols, c_outs, c_ins, colours, budget)
    return encoding, list(map(members.__getitem__, order))


def _canonical_order(names: list, arrows: list[tuple[int, str, int]]) -> list[tuple]:
    """The canonical parts of nodes 0..n-1, node x coloured `names[x]` (colours
    sort together), given the arrows as (source, label, target) triples, for
    `instances._canonical_numbered` to name and `instances._diagram_key` to
    compare.  A part is (encoding, members) of one weakly connected component,
    members in canonical order (by `_search` where refinement leaves a cell that
    is not a twin class), encoded as (size, colours, sorted (source, target,
    label) triples over places 0..size-1).  Parts are sorted, so their members
    in turn are the canonical order.  Components are found from their least
    node; a node on no arrow is a part at once.  Past CANONICAL_WORK_LIMIT
    units of refinement work the call raises BoundExceeded."""
    outs: list[list[tuple[str, int]]] = [[] for _ in names]
    ins: list[list[tuple[str, int]]] = [[] for _ in names]
    for x, label, y in arrows:
        outs[x].append((label, y))
        ins[y].append((label, x))
    budget = Budget("canonical-form", CANONICAL_WORK_LIMIT)
    parts = []
    seen = [False] * len(names)
    for start, colour in enumerate(names):
        if seen[start]:
            continue
        if not outs[start] and not ins[start]:
            parts.append(((1, (colour,), ()), [start]))
            continue
        seen[start] = True
        members = [start]
        for x in members:
            for _, y in outs[x] + ins[x]:
                if not seen[y]:
                    seen[y] = True
                    members.append(y)
        parts.append(_canonical_component(members, outs, ins, names, budget))
    parts.sort()
    return parts
