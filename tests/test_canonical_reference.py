"""The canonical form against a frozen reference.

The reference below is `_refine`, `_canonical_component`, `_canonical_order`
and `_canonical_numbered`, with the search they call, as they stood before
the fast paths: a single element and a component of distinct colours go
straight to their encoded part, and places are named from tables.  The
fast paths must change nothing a caller can see: the canonical bytes, the
`named` map, the held fibres, the total budget spent, and the text of
BoundExceeded at any limit.
"""

from __future__ import annotations

import itertools
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcl.graphs
from dcl import graphs, instances
from dcl.graphs import Arrow, Budget, BoundExceeded, Graph, GraphMorphism, _find, _union
from dcl.instances import TypedInstance, serialize_instance

# ---------------------------------------------------------------------------
# The reference, verbatim but for the budget, looked up at call time so that
# a test can record it, and the naming pass, which builds with the public
# constructors.


def _refine(cols: list, outs: list, ins: list, budget: Budget) -> list[int]:
    """Colour refinement to the coarsest equitable partition finer than `cols`.

    `outs[x]` / `ins[x]` list (arrow label, neighbour) pairs of node x.  The
    result renumbers the cells 0, 1, ... in the order of the input colours:
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
    members: list[int], outs: list, ins: list, names: list[str], budget: Budget
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
    cols = _refine(c_names, c_outs, c_ins, budget)
    cells = len(set(cols))
    if cells == len(cols) or cells == len(_twin_classes(cols, c_outs, c_ins)):
        # every cell is one class of twins: individualizing a twin splits only
        # its own cell, so `_search` would return its first leaf, this order
        order = sorted(range(len(cols)), key=lambda x: (cols[x], x))
        encoding = _encode(order, c_outs, c_names)
    else:
        encoding, order = _search(cols, c_outs, c_ins, c_names, budget)
    return encoding, [members[x] for x in order]


def _canonical_order(names: list, arrows: list[tuple[int, str, int]]) -> list[tuple]:
    """The canonical parts of nodes 0..n-1, node x coloured `names[x]` (colours
    sort together), given the arrows as (source, label, target) triples, for
    `instances._canonical_numbered` to name and `instances._diagram_key` to
    compare.  A part is (encoding, members) of one weakly connected component,
    members in canonical order (by `_search` where refinement leaves a cell that
    is not a twin class), encoded as (size, colours, sorted (source, target,
    label) triples over places 0..size-1).  Parts are sorted, so their members
    in turn are the canonical order.  Past CANONICAL_WORK_LIMIT units of
    refinement work the call raises BoundExceeded."""
    outs: list[list[tuple[str, int]]] = [[] for _ in names]
    ins: list[list[tuple[str, int]]] = [[] for _ in names]
    for x, label, y in arrows:
        outs[x].append((label, y))
        ins[y].append((label, x))
    budget = dcl.graphs.Budget("canonical-form", dcl.graphs.CANONICAL_WORK_LIMIT)
    return sorted(
        _canonical_component(members, outs, ins, names, budget)
        for members in _components(outs, ins)
    )


def _canonical_numbered(names: tuple, links: tuple, arity: Graph) -> tuple[TypedInstance, dict, tuple]:
    colours, ranked, order = [], [], []
    for (_, part_colours, triples), members in _canonical_order(names, links):
        ranked += [(len(colours) + x, len(colours) + y, k) for x, y, k in triples]
        colours += part_colours
        order += members
    nodes = [f"n{i}" for i in range(len(colours))]
    node_map, node_fibres = {}, {h: [] for h in arity.sorted_nodes}
    for i in sorted(range(len(nodes)), key=str):
        node_map[nodes[i]] = colours[i]
        node_fibres[colours[i]].append(nodes[i])
    arrow_map, arrow_fibres = {}, {k.id: [] for k in arity.sorted_arrows}
    for j in sorted(range(len(ranked)), key=str):
        x, y, k = ranked[j]
        arrow_map[f"e{j}"] = k
        arrow_fibres[k].append(Arrow(f"e{j}", nodes[x], nodes[y]))
    arrows = frozenset(itertools.chain.from_iterable(arrow_fibres.values()))
    carrier = Graph(frozenset(node_map), arrows)
    typing = GraphMorphism(carrier, arity, node_map, arrow_map)
    return TypedInstance(typing), dict(zip(nodes, order)), (node_fibres, arrow_fibres)


# ---------------------------------------------------------------------------
# Inputs

ARITY = Graph.build(
    ["A", "B", "C"],
    [("r", "A", "B"), ("s", "A", "A"), ("t", "B", "C"), ("u", "C", "A"), ("v", "B", "B")],
)


@st.composite
def numbered(draw, max_elements=14, max_links=12):
    """(names, links) over ARITY, as `_numbered_restriction` gives them: element
    i coloured names[i], a link (source, arrow, target) along an arrow of ARITY.
    Names come fibre by fibre, as restrictions number them, or in any order, as
    `_canonical_delta` numbers an apex.  The links reach single elements with
    and without loops, components of distinct colours, twin classes, cycles
    that refinement cannot split, and 11 or more places (`n10` before `n2`)."""
    colours = draw(st.lists(st.sampled_from("ABC"), max_size=max_elements))
    if draw(st.booleans()):
        colours.sort()
    links = []
    for arrow in draw(st.lists(st.sampled_from(ARITY.sorted_arrows), max_size=max_links)):
        sources = [x for x, c in enumerate(colours) if c == arrow.src]
        targets = [x for x, c in enumerate(colours) if c == arrow.tgt]
        if sources and targets:
            links.append((draw(st.sampled_from(sources)), arrow.id, draw(st.sampled_from(targets))))
    return tuple(colours), tuple(links)


ISOLATED = (tuple("A" * 6 + "B" * 6), ())  # twelve places, no link
ELEVEN = (  # eleven places and eleven links, the least count named out of place order
    tuple("A" * 6 + "B" * 5),
    tuple((x, "r", 6 + x % 5) for x in range(6)) + tuple((y, "v", y) for y in range(6, 11)),
)
CHAIN = (("A", "B", "C"), ((0, "r", 1), (1, "t", 2), (2, "u", 0)))  # distinct colours
HUB = (("A", "B", "B", "B"), ((0, "r", 1), (0, "r", 2), (0, "r", 3)))  # one twin class
CYCLE = (("B",) * 4, ((0, "v", 1), (1, "v", 2), (2, "v", 3), (3, "v", 0)))  # to the search
LOOPS = (("A", "A", "B"), ((0, "s", 0), (1, "s", 1), (1, "s", 1), (2, "v", 2)))


class _Recorded(Budget):
    made: list = []

    def __init__(self, bound: str, limit: int) -> None:
        super().__init__(bound, limit)
        _Recorded.made.append(self)


def _outcome(call, limit: Optional[int] = None) -> tuple:
    """(result or BoundExceeded text, units spent over every budget the call made)."""
    _Recorded.made = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dcl.graphs, "Budget", _Recorded)
        if limit is not None:
            patch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", limit)
        try:
            result = call()
        except BoundExceeded as exc:
            result = str(exc)
    return result, sum(b.spent for b in _Recorded.made)


def _view(result) -> tuple:
    """What a caller sees of `_canonical_numbered`: the canonical bytes, the
    `named` map and the fibres the instance holds (for the reference, those
    of its naming pass), in dict and list order; or the BoundExceeded text."""
    if isinstance(result, str):
        return (result,)
    instance, named, *fibres = result
    fibres = fibres[0] if fibres else instance.fibres
    return serialize_instance(instance), list(named.items()), [list(f.items()) for f in fibres]


# ---------------------------------------------------------------------------
# Tests


class TestFastPathsMatchTheReference:
    @given(numbered())
    @example(ISOLATED)
    @example(ELEVEN)
    @example(CHAIN)
    @example(HUB)
    @example(CYCLE)
    @example(LOOPS)
    @settings(max_examples=300, deadline=None)
    def test_canonical_numbered(self, case):
        names, links = case
        got, spent = _outcome(lambda: instances._canonical_numbered(names, links, ARITY))
        want, want_spent = _outcome(lambda: _canonical_numbered(names, links, ARITY))
        assert _view(got) == _view(want)
        assert spent == want_spent

    @given(numbered())
    @example(ELEVEN)
    @example(CYCLE)
    @settings(max_examples=300, deadline=None)
    def test_canonical_order(self, case):
        # `_diagram_key` compares these parts directly
        assert _outcome(lambda: graphs._canonical_order(*case)) == _outcome(
            lambda: _canonical_order(*case)
        )

    @given(numbered(max_elements=8), st.integers(0, 80))
    @example(CHAIN, 6)
    @example(HUB, 8)
    @example(CYCLE, 30)
    @settings(max_examples=300, deadline=None)
    def test_bound_text_at_small_limits(self, case, limit):
        names, links = case
        got = _outcome(lambda: instances._canonical_numbered(names, links, ARITY), limit)
        want = _outcome(lambda: _canonical_numbered(names, links, ARITY), limit)
        assert _view(got[0]) == _view(want[0])
        assert got[1] == want[1]
