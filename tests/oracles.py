"""Test references that the library itself does not use.

`isomorphisms` is written from the definition of an isomorphism of typed
instances, not from the morphism search it checks: it imports nothing of
`dcl`'s search.  `iter_typed_instances` is the labelled enumeration whose
isomorphism classes `iter_instance_classes` yields.
"""

import itertools
from collections import Counter
from typing import Iterator

from dcl.graphs import Graph, GraphMorphism
from dcl.instances import SliceMorphism, TypedInstance, _families, _instance


def is_bijective(m: GraphMorphism) -> bool:
    """m sends the nodes and the arrows of its domain one to one onto those of its codomain."""
    return sorted(m.node_map.values()) == list(m.cod.sorted_nodes) and sorted(
        m.arrow_map.values()
    ) == sorted(m.cod.arrow_by_id)


def _ends(t: TypedInstance) -> dict[str, Counter]:
    """Each element's arrow ends, as counts of (link type, is source)."""
    ends = {n: Counter() for n in t.carrier.nodes}
    for a in t.carrier.arrows:
        ends[a.src][(t.typing.arrow_map[a.id], True)] += 1
        ends[a.tgt][(t.typing.arrow_map[a.id], False)] += 1
    return ends


def _buckets(t: TypedInstance) -> dict[tuple, list[str]]:
    """Link ids by (link type, source, target), sorted."""
    buckets: dict[tuple, list[str]] = {}
    for a in t.carrier.sorted_arrows:
        buckets.setdefault((t.typing.arrow_map[a.id], a.src, a.tgt), []).append(a.id)
    return buckets


def _closed(t: TypedInstance, x: str, place: dict) -> Counter:
    """The links of t between x and the elements `place` numbers (x among
    them), as counts of (link type, source place, target place)."""
    return Counter(
        (t.typing.arrow_map[a.id], place[a.src], place[a.tgt])
        for a in t.carrier.arrows
        if x in (a.src, a.tgt) and a.src in place and a.tgt in place
    )


def isomorphisms(s: TypedInstance, t: TypedInstance) -> Iterator[SliceMorphism]:
    """Every typing-preserving isomorphism s -> t.

    Elements of s, in sorted order, are sent one to one onto elements of t, in
    sorted order, of the same type and with the same arrow ends; an element is
    kept only if the links it closes with the elements placed before it match
    those of its image, by type and by the places of their ends.  Links of one
    (type, source, target) are then sent one to one onto the links of the
    image bucket: links in sorted order, each over its candidates by id.  So
    the isomorphisms come as those of the hom search s -> t that are
    bijective, in its order.  Plain graphs are compared as `as_slice` views.
    """
    if s.schema != t.schema or len(s.carrier.nodes) != len(t.carrier.nodes):
        return
    if len(s.carrier.arrows) != len(t.carrier.arrows):
        return
    s_ends, t_ends = _ends(s), _ends(t)
    nodes = s.carrier.sorted_nodes
    candidates = [
        [
            c
            for c in t.carrier.sorted_nodes
            if t.typing.node_map[c] == s.typing.node_map[n] and t_ends[c] == s_ends[n]
        ]
        for n in nodes
    ]
    t_buckets = _buckets(t)
    arrows = s.carrier.sorted_arrows
    arrow_type = s.typing.arrow_map
    node_map: dict[str, str] = {}
    s_place: dict[str, int] = {}
    t_place: dict[str, int] = {}

    def place(depth: int) -> Iterator[dict]:
        if depth == len(nodes):
            yield dict(node_map)
            return
        n = nodes[depth]
        s_place[n] = depth
        closed = _closed(s, n, s_place)
        for c in candidates[depth]:
            if c in t_place:
                continue
            t_place[c] = depth
            if _closed(t, c, t_place) == closed:
                node_map[n] = c
                yield from place(depth + 1)
            del t_place[c]
        del s_place[n]

    def match(k: int, images: dict, arrow_map: dict, taken: set) -> Iterator[dict]:
        if k == len(arrows):
            yield dict(arrow_map)
            return
        a = arrows[k]
        for x in t_buckets[(arrow_type[a.id], images[a.src], images[a.tgt])]:
            if x not in taken:
                arrow_map[a.id] = x
                taken.add(x)
                yield from match(k + 1, images, arrow_map, taken)
                taken.discard(x)

    # every pair of elements was compared, by its links, when the later was placed
    for images in place(0):
        for arrow_map in match(0, images, {}, set()):
            yield SliceMorphism(s, t, GraphMorphism(s.carrier, t.carrier, images, arrow_map))


def iter_typed_instances(
    schema: Graph, max_per_node: int, max_parallel: int = 2
) -> Iterator[TypedInstance]:
    """All typed instances with at most max_per_node elements per schema node
    and at most max_parallel parallel links per (schema arrow, element pair)."""
    for fibers, slots in _families(schema, max_per_node):
        for counts in itertools.product(range(max_parallel + 1), repeat=len(slots)):
            yield _instance(schema, fibers, slots, counts)
