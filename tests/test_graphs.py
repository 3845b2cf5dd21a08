import gc
import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dcl.graphs
from dcl.fixtures import span_signature
from dcl.graphs import (
    BoundExceeded,
    Budget,
    Graph,
    GraphError,
    GraphMorphism,
    _canonical_component,
    _refine,
    _search,
    _twin_classes,
    compose,
    find_isomorphism,
    identity,
    pair_id,
    pullback,
    pushout,
    search_morphisms,
)
from dcl.instances import (
    TypedInstance,
    _canonical_delta,
    as_slice,
    canonical_bytes,
    canonical_restriction,
    cod_lift,
    find_instance_isomorphism,
    identity_delta,
    iter_instance_classes,
    iter_typed_instances,
    restrict,
    serialize_instance,
)
from dcl.randgen import random_graph, random_morphism_into
from dcl.signature import (
    ConstraintSymbol,
    Dependency,
    JointlyMonic,
    Multiplicity,
    Signature,
    Table,
    evaluate,
    verify_dependency_soundness,
)
from dcl.verdicts import Status


def triangle():
    return Graph.build(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a")])


class TestGraphValidation:
    def test_arrow_endpoint_outside_nodes(self):
        with pytest.raises(GraphError):
            Graph.build(["a"], [("e", "a", "missing")])

    def test_duplicate_arrow_ids(self):
        with pytest.raises(GraphError):
            Graph.build(["a", "b"], [("e", "a", "a"), ("e", "a", "b")])

    def test_node_arrow_id_clash(self):
        with pytest.raises(GraphError):
            Graph.build(["a", "x"], [("x", "a", "a")])

    def test_json_roundtrip(self):
        g = triangle()
        assert Graph.from_json(g.to_json()) == g

    def test_malformed_json(self):
        with pytest.raises(GraphError):
            Graph.from_json({"nodes": ["a"]})


class TestMorphisms:
    def test_totality_enforced(self):
        g, h = triangle(), triangle()
        with pytest.raises(GraphError):
            GraphMorphism(g, h, {"a": "a"}, {})

    def test_incidence_enforced(self):
        g = Graph.build(["a", "b"], [("e", "a", "b")])
        h = Graph.build(["x", "y"], [("f", "x", "y")])
        with pytest.raises(GraphError):
            GraphMorphism(g, h, {"a": "y", "b": "x"}, {"e": "f"})

    def test_identity_laws(self):
        g = triangle()
        h = Graph.build(["x"], [("l", "x", "x")])
        m = GraphMorphism(g, h, {n: "x" for n in g.nodes}, {a.id: "l" for a in g.arrows})
        assert compose(identity(g), m) == m
        assert compose(m, identity(h)) == m

    def test_compose_associative(self):
        rng = random.Random(1)
        for _ in range(20):
            c = random_graph(rng, 4, 5)
            h = random_morphism_into(rng, c)
            g = random_morphism_into(rng, h.dom)
            f = random_morphism_into(rng, g.dom)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))

    def test_compose_mismatch(self):
        g, h = triangle(), Graph.build(["x"])
        with pytest.raises(GraphError):
            compose(identity(g), identity(h))


class TestHomSearch:
    def test_count_into_complete_graph(self):
        # 2-chain into the 2-clique with loops absent: 2 node choices each,
        # arrow forced when endpoints differ
        chain = Graph.build(["a", "b"], [("e", "a", "b")])
        k2 = Graph.build(["x", "y"], [("xy", "x", "y"), ("yx", "y", "x")])
        homs = list(search_morphisms(chain, k2))
        assert len(homs) == 2

    def test_deterministic_order(self):
        chain = Graph.build(["a", "b"], [("e", "a", "b")])
        k2 = Graph.build(["x", "y"], [("xy", "x", "y"), ("yx", "y", "x")])
        first = [m.node_map for m in search_morphisms(chain, k2)]
        second = [m.node_map for m in search_morphisms(chain, k2)]
        assert first == second

    def test_empty_domain_has_unique_hom(self):
        assert len(list(search_morphisms(Graph.empty(), triangle()))) == 1

    def test_no_homs_into_empty(self):
        assert list(search_morphisms(triangle(), Graph.empty())) == []

    def test_parallel_arrows_multiply(self):
        par = Graph.build(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
        homs = list(search_morphisms(par, par))
        # node map a->a,b->b gives 2*2 arrow choices; no other node maps
        # admit arrows between the images
        assert len(homs) == 4

    def test_find_isomorphism(self):
        g = triangle()
        h = Graph.build(["p", "q", "r"], [("x", "p", "q"), ("y", "q", "r"), ("z", "r", "p")])
        iso = find_isomorphism(g, h)
        assert iso is not None and iso.is_bijective
        assert find_isomorphism(g, Graph.build(["p", "q", "r"])) is None


# ids built from the characters that pair and class ids are made of
ADVERSARIAL_IDS = st.text("xy|()~:#\\", min_size=1, max_size=4)


@st.composite
def graph_over(draw, base: Graph, ids=ADVERSARIAL_IDS, max_size: int = 9):
    """A graph with ids drawn from `ids` and a morphism from it into `base`."""
    names = draw(st.lists(ids, unique=True, max_size=max_size))
    cut = draw(st.integers(0, len(names)))
    nodes, arrow_ids = names[:cut], names[cut:] if base.arrows else []
    node_map = {n: draw(st.sampled_from(base.sorted_nodes)) for n in nodes}
    arrows, arrow_map = [], {}
    for a in arrow_ids:
        e = draw(st.sampled_from(base.sorted_arrows))
        srcs = [n for n in nodes if node_map[n] == e.src]
        tgts = [n for n in nodes if node_map[n] == e.tgt]
        if srcs and tgts:
            arrows.append((a, draw(st.sampled_from(srcs)), draw(st.sampled_from(tgts))))
            arrow_map[a] = e.id
    return GraphMorphism(Graph.build(nodes, arrows), base, node_map, arrow_map)


@st.composite
def cospans(draw):
    base = Graph.build(["c", "d"], [("cc", "c", "c"), ("cd", "c", "d"), ("dc", "d", "c")])
    return draw(graph_over(base)), draw(graph_over(base))


@st.composite
def spans(draw):
    """Two maps out of one graph C into graphs with adversarial ids.

    Each C node and C arrow picks its images, so the pushout glues both
    nodes and arrows.
    """
    left = draw(graph_over(Graph.build(["c"], [("l", "c", "c")]))).dom
    right = draw(graph_over(Graph.build(["c"], [("l", "c", "c")]))).dom
    if not left.nodes or not right.nodes:
        return (
            GraphMorphism(Graph.empty(), left, {}, {}),
            GraphMorphism(Graph.empty(), right, {}, {}),
        )
    nodes, arrows, maps = [], [], ({}, {}, {}, {})
    for i in range(draw(st.integers(0, 3))):
        nodes.append(f"n{i}")
        maps[0][f"n{i}"] = draw(st.sampled_from(left.sorted_nodes))
        maps[1][f"n{i}"] = draw(st.sampled_from(right.sorted_nodes))
    if left.arrows and right.arrows:
        for i in range(draw(st.integers(0, 2))):
            x = draw(st.sampled_from(left.sorted_arrows))
            y = draw(st.sampled_from(right.sorted_arrows))
            src, tgt = f"s{i}", f"t{i}"
            nodes += [src, tgt]
            arrows.append((f"a{i}", src, tgt))
            maps[0].update({src: x.src, tgt: x.tgt})
            maps[1].update({src: y.src, tgt: y.tgt})
            maps[2][f"a{i}"], maps[3][f"a{i}"] = x.id, y.id
    c = Graph.build(nodes, arrows)
    return GraphMorphism(c, left, maps[0], maps[2]), GraphMorphism(c, right, maps[1], maps[3])


def class_ids(elements: list, glue: list) -> dict:
    """Each (side, id) of `elements` to the id of its class under the
    equivalence generated by `glue`: the members, tagged "L:" or "R:" with
    backslash and "~" escaped, sorted and joined by "~"."""
    parent = {x: x for x in elements}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in glue:
        parent[root(x)] = root(y)
    members: dict = {}
    for side, raw in elements:
        escaped = raw.replace("\\", "\\\\").replace("~", "\\~")
        members.setdefault(root((side, raw)), []).append(f"{side}:{escaped}")
    return {x: "~".join(sorted(members[root(x)])) for x in elements}


class TestPullback:
    def test_projections_commute(self):
        rng = random.Random(2)
        for _ in range(25):
            c = random_graph(rng, 4, 5)
            f = random_morphism_into(rng, c)
            g = random_morphism_into(rng, c)
            p_graph, p, q = pullback(f, g)
            assert compose(p, f) == compose(q, g)

    def test_universal_property(self):
        rng = random.Random(3)
        for _ in range(10):
            c = random_graph(rng, 3, 3)
            f = random_morphism_into(rng, c, 3, 3)
            g = random_morphism_into(rng, c, 3, 3)
            p_graph, p, q = pullback(f, g)
            # any competitor cone factors uniquely
            z = random_morphism_into(rng, f.dom, 3, 3)
            w_node = {n: g.node_map for n in ()}
            # build a competitor by pairing z with a compatible map into g.dom
            for h in search_morphisms(z.dom, g.dom):
                if compose(z, f) != compose(h, g):
                    continue
                mediators = [
                    u
                    for u in search_morphisms(z.dom, p_graph)
                    if compose(u, p) == z and compose(u, q) == h
                ]
                assert len(mediators) == 1
                break

    def test_pullback_along_identity(self):
        g = triangle()
        p_graph, p, q = pullback(identity(g), identity(g))
        assert len(p_graph.nodes) == 3 and len(p_graph.arrows) == 3
        assert "(a|a)" in p_graph.nodes

    def test_pair_ids(self):
        assert pair_id("x", "y") == "(x|y)"

    def test_pair_ids_do_not_collide(self):
        one = Graph.build(["c"])
        a = Graph.build(["x|y", "x"])
        b = Graph.build(["z", "y|z"])
        p_graph, _, _ = pullback(
            GraphMorphism(a, one, {"x|y": "c", "x": "c"}, {}),
            GraphMorphism(b, one, {"z": "c", "y|z": "c"}, {}),
        )
        assert len(p_graph.nodes) == 4

    @given(cospans())
    @settings(max_examples=150, deadline=None)
    def test_sizes_over_adversarial_ids(self, cospan):
        f, g = cospan
        p_graph, p, q = pullback(f, g)
        fiber = lambda m, x: sum(1 for v in m.values() if v == x)
        assert len(p_graph.nodes) == sum(
            fiber(f.node_map, c) * fiber(g.node_map, c) for c in f.cod.nodes
        )
        assert len(p_graph.arrows) == sum(
            fiber(f.arrow_map, e) * fiber(g.arrow_map, e) for e in f.cod.arrow_by_id
        )
        assert compose(p, f) == compose(q, g)
        for m in (f, g):
            arrow_images = {a: m.arrow_map[a.id] for a in m.dom.arrows}
            for fibres, images, cod in (
                (m.node_fibres(), m.node_map, m.cod.nodes),
                (m.arrow_fibres(), arrow_images, m.cod.arrow_by_id.keys()),
            ):
                assert fibres.keys() == cod
                assert all(over == sorted(over) for over in fibres.values())
                pairs = [(x, c) for c, over in fibres.items() for x in over]
                assert sorted(pairs) == sorted(images.items())


class TestPushout:
    def test_injections_commute(self):
        rng = random.Random(4)
        checked = 0
        for _ in range(40):
            dom = random_graph(rng, 3, 3, min_nodes=0)
            codl = random_graph(rng, 4, 5)
            codr = random_graph(rng, 4, 5)
            homl = list(itertools.islice(search_morphisms(dom, codl), 5))
            homr = list(itertools.islice(search_morphisms(dom, codr), 5))
            if not homl or not homr:
                continue
            checked += 1
            fl, fr = homl[0], homr[0]
            p_graph, il, ir = pushout(fl, fr)
            assert compose(fl, il) == compose(fr, ir)
        assert checked >= 10

    def test_universal_property_small(self):
        dom = Graph.build(["s"])
        codl = Graph.build(["x", "y"], [("e", "x", "y")])
        codr = Graph.build(["u"])
        fl = GraphMorphism(dom, codl, {"s": "x"}, {})
        fr = GraphMorphism(dom, codr, {"s": "u"}, {})
        p_graph, il, ir = pushout(fl, fr)
        # x and u are identified; y stays separate
        assert len(p_graph.nodes) == 2 and len(p_graph.arrows) == 1
        # competitor: collapse everything to a loop graph
        z = Graph.build(["z"], [("l", "z", "z")])
        zl = GraphMorphism(codl, z, {"x": "z", "y": "z"}, {"e": "l"})
        zr = GraphMorphism(codr, z, {"u": "z"}, {})
        mediators = [
            u
            for u in search_morphisms(p_graph, z)
            if compose(il, u) == zl and compose(ir, u) == zr
        ]
        assert len(mediators) == 1

    def test_class_ids_do_not_collide(self):
        c = Graph.build(["c"])
        left = Graph.build(["a", "a~R:b"])
        right = Graph.build(["b"])
        p_graph, _, _ = pushout(
            GraphMorphism(c, left, {"c": "a"}, {}), GraphMorphism(c, right, {"c": "b"}, {})
        )
        assert len(p_graph.nodes) == 2

    @given(spans())
    @settings(max_examples=150, deadline=None)
    def test_class_counts_over_adversarial_ids(self, span):
        f, g = span
        p_graph, into_left, into_right = pushout(f, g)
        assert compose(f, into_left) == compose(g, into_right)
        nodes = [("L", n) for n in f.cod.nodes] + [("R", n) for n in g.cod.nodes]
        glue = [(("L", f.node_map[c]), ("R", g.node_map[c])) for c in f.dom.nodes]
        node_ids = class_ids(nodes, glue)
        assert p_graph.nodes == set(node_ids.values())
        arrows = [("L", a) for a in f.cod.arrow_by_id] + [("R", a) for a in g.cod.arrow_by_id]
        glue = [(("L", f.arrow_map[c]), ("R", g.arrow_map[c])) for c in f.dom.arrow_by_id]
        arrow_ids = class_ids(arrows, glue)
        assert set(p_graph.arrow_by_id) == set(arrow_ids.values())
        assert p_graph.nodes.isdisjoint(p_graph.arrow_by_id)
        for side, into in (("L", into_left), ("R", into_right)):
            assert all(node_ids[side, n] == m for n, m in into.node_map.items())
            assert all(arrow_ids[side, a] == m for a, m in into.arrow_map.items())
            for a in into.dom.arrows:
                image = p_graph.arrow_by_id[arrow_ids[side, a.id]]
                assert (image.src, image.tgt) == (node_ids[side, a.src], node_ids[side, a.tgt])

    def test_pushout_over_empty_is_disjoint_union(self):
        empty = Graph.empty()
        a = Graph.build(["n"], [("l", "n", "n")])
        b = Graph.build(["m"])
        p_graph, il, ir = pushout(
            GraphMorphism(empty, a, {}, {}), GraphMorphism(empty, b, {}, {})
        )
        assert len(p_graph.nodes) == 2 and len(p_graph.arrows) == 1


def canonical_graph(g: Graph) -> Graph:
    """The canonical form of a plain graph: the carrier of its canonical
    form in the slice over the terminal graph."""
    return canonical_restriction(as_slice(g)).carrier


def renaming(g: Graph) -> GraphMorphism:
    """The isomorphism canonical_graph(g) -> g that canonical delta apexes take."""
    return _canonical_delta(identity_delta(as_slice(g))).left.map


class TestCanonicalForms:
    def test_iso_invariance(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_graph(rng, 6, 8)
            # random relabeling
            perm = list(g.sorted_nodes)
            rng.shuffle(perm)
            node_map = dict(zip(g.sorted_nodes, perm))
            arrows = [(f"r_{a.id}", node_map[a.src], node_map[a.tgt]) for a in g.sorted_arrows]
            h = Graph.build(perm, arrows)
            assert canonical_bytes(g) == canonical_bytes(h)

    def test_distinguishes_non_isomorphic(self):
        g = Graph.build(["a", "b"], [("e", "a", "b")])
        h = Graph.build(["a", "b"], [("e", "a", "a")])
        assert canonical_bytes(g) != canonical_bytes(h)

    def test_idempotent(self):
        rng = random.Random(6)
        for _ in range(20):
            g = random_graph(rng, 5, 6)
            c1 = canonical_graph(g)
            c2 = canonical_graph(c1)
            assert c1 == c2

    def test_relabeling_is_iso(self):
        g = triangle()
        back = renaming(g)
        assert back.is_bijective
        assert back.dom == canonical_graph(g) and back.cod == g

    @pytest.mark.parametrize(
        "nodes,loops,classes", [(3, False, 16), (3, True, 104), (4, False, 218)]
    )
    def test_census_of_simple_digraphs(self, nodes, loops, classes):
        # every labelled simple digraph on `nodes` nodes gives one canonical
        # form per isomorphism class: OEIS A000273 without loops, A000595 with
        names = [f"v{i}" for i in range(nodes)]
        pairs = [(s, t) for s in names for t in names if loops or s != t]
        forms = set()
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            arrows = [(f"{s}>{t}", s, t) for (s, t), on in zip(pairs, chosen) if on]
            forms.add(canonical_bytes(Graph.build(names, arrows)))
        assert len(forms) == classes

    def test_regular_graph_needs_individualization(self):
        # two directed 3-cycles vs a directed 6-cycle: same degree sequence
        two = Graph.build(
            ["a", "b", "c", "d", "e", "f"],
            [("1", "a", "b"), ("2", "b", "c"), ("3", "c", "a"),
             ("4", "d", "e"), ("5", "e", "f"), ("6", "f", "d")],
        )
        six = Graph.build(
            ["a", "b", "c", "d", "e", "f"],
            [("1", "a", "b"), ("2", "b", "c"), ("3", "c", "d"),
             ("4", "d", "e"), ("5", "e", "f"), ("6", "f", "a")],
        )
        assert canonical_bytes(two) != canonical_bytes(six)

    def test_size_guard(self, monkeypatch):
        # the bound is on refinement work: a triangle's one refinement call
        # costs 3 nodes + 6 incidences, and its round as much again
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 10)
        with pytest.raises(BoundExceeded) as hit:
            canonical_bytes(triangle())
        assert str(hit.value) == "canonical-form bound exceeded: spent 18 of 10 units"
        assert not isinstance(hit.value, GraphError)
        # isolated nodes take no refinement, so size alone never hits it
        assert canonical_bytes(Graph.build([f"n{i}" for i in range(100)]))

    def test_size_guard_env(self, monkeypatch):
        # the old node-count variable is no longer read; the work limit is
        # read on every call, and a triangle spends 54 units
        monkeypatch.setenv("DCL_SIZE_GUARD", "2")
        canonical_bytes(triangle())
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 53)
        with pytest.raises(BoundExceeded):
            canonical_bytes(triangle())
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 54)
        canonical_bytes(triangle())


# ---------------------------------------------------------------------------
# Canonical-form search on symmetric inputs

SCHEMA = Graph.build(["A", "B"], [("r", "A", "B"), ("s", "A", "A"), ("t", "B", "A")])


@st.composite
def typed_components(draw, max_nodes=4, max_arrows=5):
    """(node types, arrows as (src index, tgt index, schema arrow)) over SCHEMA."""
    types = draw(st.lists(st.sampled_from(["A", "B"]), min_size=1, max_size=max_nodes))
    labels = draw(st.lists(st.sampled_from(SCHEMA.sorted_arrows), max_size=max_arrows))
    arrows = []
    for label in labels:
        srcs = [i for i, t in enumerate(types) if t == label.src]
        tgts = [i for i, t in enumerate(types) if t == label.tgt]
        if srcs and tgts:
            src, tgt = draw(st.sampled_from(srcs)), draw(st.sampled_from(tgts))
            arrows.append((src, tgt, label.id))
    return types, arrows


@st.composite
def symmetric_shapes(draw):
    """Disjoint unions of repeated components, optionally joined by a hub node."""
    types: list[str] = []
    arrows: list[tuple[int, int, str]] = []
    roots = []
    parts = draw(st.lists(typed_components(), min_size=1, max_size=2))
    for part_types, part_arrows in parts:
        for _ in range(draw(st.integers(1, 6))):
            base = len(types)
            roots.append((base, part_types[0]))
            types += part_types
            arrows += [(base + i, base + j, label) for i, j, label in part_arrows]
    if draw(st.booleans()):
        hub = len(types)
        types.append("A")
        arrows += [(hub, root, "s" if t == "A" else "r") for root, t in roots]
    return types, arrows


def shaped_instance(types, arrows, rng: random.Random, names=None) -> TypedInstance:
    """The shape with node and arrow ids given in an order drawn from rng.

    `names` lists the node ids, then the arrow ids (default x0.., a0..).
    """
    if names is None:
        names = [f"x{i}" for i in range(len(types))] + [f"a{k}" for k in range(len(arrows))]
    ids, arrow_ids = names[: len(types)], names[len(types) :]
    rng.shuffle(ids)
    order = list(range(len(arrows)))
    rng.shuffle(order)
    carrier = Graph.build(
        ids,
        [(arrow_ids[k], ids[arrows[i][0]], ids[arrows[i][1]]) for k, i in enumerate(order)],
    )
    return TypedInstance.build(
        SCHEMA,
        carrier,
        {ids[i]: t for i, t in enumerate(types)},
        {arrow_ids[k]: arrows[i][2] for k, i in enumerate(order)},
    )


@st.composite
def graph_pairs(draw, max_nodes=5, max_arrows=6):
    """Two graphs with the same numbers of nodes and of arrows."""
    n = draw(st.integers(1, max_nodes))
    m = draw(st.integers(0, max_arrows))
    node = st.integers(0, n - 1)
    ends = st.lists(st.tuples(node, node), min_size=m, max_size=m)
    return tuple(
        Graph.build(
            [f"v{i}" for i in range(n)],
            [(f"e{k}", f"v{s}", f"v{t}") for k, (s, t) in enumerate(draw(ends))],
        )
        for _ in range(2)
    )


@st.composite
def out_regular_graphs(draw, max_nodes=6):
    """Graphs whose nodes all have the same number of outgoing arrows.

    Colour refinement splits such graphs little, so their canonical form
    rests on the search: its automorphism pruning and its backjumps.
    """
    n = draw(st.integers(2, max_nodes))
    degree = draw(st.integers(1, 2))
    node = st.integers(0, n - 1)
    outs = st.lists(node, min_size=degree, max_size=degree)
    targets = draw(st.lists(outs, min_size=n, max_size=n))
    return Graph.build(
        [f"v{i}" for i in range(n)],
        [
            (f"e{i}_{k}", f"v{i}", f"v{t}")
            for i, ts in enumerate(targets)
            for k, t in enumerate(ts)
        ],
    )


@st.composite
def coloured_lists(draw, max_nodes=7, max_arrows=6):
    """(names, outs, ins) as `_canonical_order` builds them, for a graph whose
    node colours and arrow labels come from "AB", or are all blank."""
    n = draw(st.integers(1, max_nodes))
    colour = st.sampled_from(draw(st.sampled_from([[""], ["A", "B"]])))
    names = draw(st.lists(colour, min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    outs: list = [[] for _ in range(n)]
    ins: list = [[] for _ in range(n)]
    for s, t, label in draw(st.lists(st.tuples(node, node, colour), max_size=max_arrows)):
        outs[s].append((label, t))
        ins[t].append((label, s))
    return names, outs, ins


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """g with its node ids permuted and its arrow ids renamed."""
    perm = list(g.sorted_nodes)
    rng.shuffle(perm)
    node_map = dict(zip(g.sorted_nodes, perm))
    return Graph.build(
        perm, [(f"r{a.id}", node_map[a.src], node_map[a.tgt]) for a in g.arrows]
    )


def de_bruijn(bits: int) -> Graph:
    """The binary de Bruijn graph: an arrow from each word w to w[1:] + b."""
    words = ["".join(w) for w in itertools.product("01", repeat=bits)]
    return Graph.build(words, [(f"{w}>{b}", w, w[1:] + b) for w in words for b in "01"])


def hub(branches: int) -> Graph:
    """A hub node with `branches` isomorphic two-arrow paths leaving it."""
    nodes = ["h"]
    arrows = []
    for i in range(branches):
        nodes += [f"a{i}", f"b{i}"]
        arrows += [(f"ha{i}", "h", f"a{i}"), (f"ab{i}", f"a{i}", f"b{i}")]
    return Graph.build(nodes, arrows)


def repeated_paths(copies: int) -> Graph:
    """`copies` disjoint two-arrow paths."""
    nodes = []
    arrows = []
    for i in range(copies):
        nodes += [f"a{i}", f"b{i}", f"c{i}"]
        arrows += [(f"ab{i}", f"a{i}", f"b{i}"), (f"bc{i}", f"b{i}", f"c{i}")]
    return Graph.build(nodes, arrows)


def star(leaves: int) -> Graph:
    """A hub node with an arrow to each of `leaves` twin nodes."""
    return Graph.build(
        ["h"] + [f"l{i}" for i in range(leaves)],
        [(f"e{i}", "h", f"l{i}") for i in range(leaves)],
    )


class TestCanonicalSearch:
    @given(
        symmetric_shapes(),
        st.randoms(use_true_random=False),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_bytes_invariant_under_relabelling(self, shape, rng1, rng2):
        t1 = shaped_instance(*shape, rng1)
        t2 = shaped_instance(*shape, rng2)
        assert canonical_bytes(t1.carrier) == canonical_bytes(t2.carrier)
        assert canonical_restriction(t1) == canonical_restriction(t2)

    @given(symmetric_shapes(), st.randoms(use_true_random=False), st.data())
    @settings(deadline=None)
    def test_bytes_invariant_over_adversarial_ids(self, shape, rng, data):
        # ids made of the characters pair and class ids are built from
        types, arrows = shape
        size = len(types) + len(arrows)
        names = data.draw(st.lists(ADVERSARIAL_IDS, min_size=size, max_size=size, unique=True))
        plain = shaped_instance(*shape, random.Random(0))
        odd = shaped_instance(*shape, rng, names)
        assert canonical_bytes(plain.carrier) == canonical_bytes(odd.carrier)
        assert canonical_restriction(plain) == canonical_restriction(odd)

    @given(out_regular_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_out_regular_bytes_invariant_under_relabelling(self, g, rng):
        assert canonical_bytes(g) == canonical_bytes(relabelled(g, rng))

    @pytest.mark.parametrize("bits", [2, 3])
    def test_de_bruijn_bytes_invariant_under_relabelling(self, bits):
        # every node has two arrows in and two out, so refinement splits
        # nothing and every relabelling takes another path through the search
        g = de_bruijn(bits)
        rng = random.Random(bits)
        expected = canonical_bytes(g)
        for _ in range(40):
            assert canonical_bytes(relabelled(g, rng)) == expected

    @given(graph_pairs())
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_iff_isomorphic(self, pair):
        g, h = pair
        isomorphic = find_isomorphism(g, h) is not None
        assert (canonical_bytes(g) == canonical_bytes(h)) == isomorphic

    @pytest.mark.parametrize(
        "g",
        [hub(30), repeated_paths(40), star(60)],
        ids=["hub-30", "components-40", "star-60"],
    )
    def test_symmetric_graphs_stay_tractable(self, g):
        # a hub of isomorphic branches and a union of isomorphic components
        # have factorially many automorphisms; pruning must keep them cheap
        h = relabelled(g, random.Random(11))
        assert renaming(g).is_bijective
        assert canonical_bytes(g) == canonical_bytes(h)

    @given(coloured_lists())
    @settings(max_examples=300, deadline=None)
    def test_twin_cells_take_the_search_result(self, lists):
        # refinement leaves cells that are each one class of twins: the
        # component's order skips the search and must equal what it returns
        names, outs, ins = lists
        unbounded = Budget("test", float("inf"))
        cols = _refine(names, outs, ins, unbounded)
        cells = len(set(cols))
        if cells == len(cols) or cells != len(_twin_classes(cols, outs, ins)):
            return
        everything = list(range(len(names)))
        expected = _search(cols, outs, ins, names, unbounded)
        assert _canonical_component(everything, outs, ins, names, unbounded) == expected

    def test_leaves_no_reference_cycles(self):
        # run with the collector off, as the benchmark does: a cycle would
        # keep the call's index alive until the next collection
        for g in (hub(4), repeated_paths(3)):
            gc.collect()
            gc.disable()
            try:
                canonical_bytes(g)
                assert gc.collect() == 0
            finally:
                gc.enable()


@st.composite
def adversarial_schemas(draw):
    """(schema, iso onto the same shape with plain ids) for a schema on at
    most two nodes and two arrows (loops and parallels allowed) whose ids
    are drawn from the characters pair, class and link ids are made of."""
    n = draw(st.integers(1, 2))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
    size = n + len(ends)
    ids = draw(st.lists(ADVERSARIAL_IDS, min_size=size, max_size=size, unique=True))
    odd = Graph.build(ids[:n], [(ids[n + k], ids[s], ids[t]) for k, (s, t) in enumerate(ends)])
    plain = Graph.build(
        [f"N{i}" for i in range(n)],
        [(f"R{k}", f"N{s}", f"N{t}") for k, (s, t) in enumerate(ends)],
    )
    return GraphMorphism(
        odd,
        plain,
        {ids[i]: f"N{i}" for i in range(n)},
        {ids[n + k]: f"R{k}" for k in range(len(ends))},
    )


def moved_bytes(instances, iso=None) -> list[bytes]:
    """Canonical bytes of each instance, retyped along the schema iso first."""
    out = []
    for t in instances:
        if iso is not None:
            t = TypedInstance(compose(t.typing, iso))
        out.append(serialize_instance(canonical_restriction(t)))
    return out


def renamed_jm_signature(ids: list[str]) -> tuple[Signature, GraphMorphism]:
    """`span_signature` with arity ids `ids` in place of 0, 1, 2, 01,
    02, and the iso from its span arity onto the plain one."""
    n0, n1, n2, e01, e02 = ids
    span = Graph.build([n0, n1, n2], [(e01, n0, n1), (e02, n0, n2)])
    leg = Graph.build([n0, n1], [(e01, n0, n1)])
    jm = ConstraintSymbol("[jm]", span, JointlyMonic(e01, e02))
    one = ConstraintSymbol("[1]", leg, Multiplicity(((1, 1),)))
    deps = (
        Dependency("d1", "[jm]", "[1]", GraphMorphism(leg, span, {n0: n0, n1: n1}, {e01: e01})),
        Dependency("d2", "[jm]", "[1]", GraphMorphism(leg, span, {n0: n0, n1: n2}, {e01: e02})),
    )
    plain = span_signature().symbols["[jm]"].arity
    iso = GraphMorphism(
        span, plain, {n0: "0", n1: "1", n2: "2"}, {e01: "01", e02: "02"}
    )
    return Signature({"[jm]": jm, "[1]": one}, deps), iso


PLAIN_IDS = st.text("abc", min_size=1, max_size=3)


@st.composite
def restriction_cases(draw, ids) -> tuple[TypedInstance, GraphMorphism]:
    """(t, b): an instance t over a schema G and a binding b: H -> G, both
    drawn over G, so b may send several nodes or arrows of H to one of G."""
    schema_ids = draw(st.lists(ids, unique=True, min_size=2, max_size=5))
    cut = draw(st.integers(1, len(schema_ids) - 1))
    nodes = schema_ids[:cut]
    pick = st.sampled_from(nodes)
    schema = Graph.build(nodes, [(a, draw(pick), draw(pick)) for a in schema_ids[cut:]])
    t = TypedInstance(draw(graph_over(schema, ids, max_size=10)))
    return t, draw(graph_over(schema, ids, max_size=6))


BUDGET_HIT = re.compile(r"canonical-form bound exceeded: spent \d+ of 2 units")


class TestCanonicalRestriction:
    """canonical_restriction(t, b) is the canonical form of restrict(t, b)."""

    def check(self, t, b):
        fused = canonical_restriction(t, b)
        restricted = restrict(t, b)
        assert find_instance_isomorphism(restricted, fused) is not None
        assert serialize_instance(fused) == serialize_instance(canonical_restriction(restricted))
        assert canonical_restriction(t) == canonical_restriction(t, identity(t.schema))
        # a fresh instance with t's typing groups its fibres afresh
        assert canonical_restriction(TypedInstance(t.typing), b) == fused
        # with a work limit of 2 units, any component of two or more
        # elements spends it; isolated elements, loops included, spend none
        symbol = ConstraintSymbol("[t]", b.dom, Table())
        with mock.patch.object(dcl.graphs, "CANONICAL_WORK_LIMIT", 2):
            verdicts = [evaluate(symbol, t, b), evaluate(symbol, restricted)]
            if any(a.src != a.tgt for a in restricted.carrier.arrows):
                assert all(v.status is Status.UNKNOWN for v in verdicts)
                assert all(BUDGET_HIT.fullmatch(v.detail) for v in verdicts)
                with pytest.raises(BoundExceeded, match=BUDGET_HIT):
                    canonical_restriction(restricted)
            else:
                assert all(v.status is Status.INVALID for v in verdicts)

    @given(restriction_cases(PLAIN_IDS))
    @settings(deadline=None)
    def test_equals_canonical_form_of_restriction(self, case):
        self.check(*case)

    @given(restriction_cases(ADVERSARIAL_IDS))
    @settings(deadline=None)
    def test_equals_canonical_form_over_adversarial_ids(self, case):
        self.check(*case)

    @given(restriction_cases(PLAIN_IDS), st.data())
    @settings(deadline=None)
    def test_value_equality_is_byte_equality(self, case, data):
        # a second small instance over the same schema is often isomorphic
        t, _ = case
        u = TypedInstance(data.draw(graph_over(t.schema, PLAIN_IDS, max_size=3)))
        for a, b in itertools.combinations([t, u, restrict(t, identity(t.schema))], 2):
            a, b = canonical_restriction(a), canonical_restriction(b)
            assert (a == b) == (serialize_instance(a) == serialize_instance(b))

    @staticmethod
    def two_links() -> TypedInstance:
        schema = Graph.build(["A", "B"], [("r", "A", "B")])
        carrier = Graph.build(["a1", "a2", "b1"], [("l1", "a1", "b1"), ("l2", "a2", "b1")])
        typing = {"a1": "A", "a2": "A", "b1": "B"}
        return TypedInstance(GraphMorphism(carrier, schema, typing, {"l1": "r", "l2": "r"}))

    def test_non_injective_binding(self):
        # X and Y both land on A, u and v both on r: the restriction holds
        # two copies of the A-elements, each linked to b1 as in t
        t = self.two_links()
        h = Graph.build(["X", "Y", "Z"], [("u", "X", "Z"), ("v", "Y", "Z")])
        b = GraphMorphism(h, t.schema, {"X": "A", "Y": "A", "Z": "B"}, {"u": "r", "v": "r"})
        assert len(canonical_restriction(t, b).carrier.arrows) == 4
        self.check(t, b)

    def test_codomain_must_be_the_schema(self):
        m = GraphMorphism(Graph.build(["X"]), Graph.build(["X"]), {"X": "X"}, {})
        with pytest.raises(GraphError):
            canonical_restriction(self.two_links(), m)


def prefixed_case() -> tuple[TypedInstance, GraphMorphism]:
    """(t, b) whose pair ids sort otherwise than their elements: "(x1|h)" comes
    before "(x|h)", and `( \\ |` are escaped inside pair ids."""
    schema = Graph.build(["s"], [("r", "s", "s")])
    carrier = Graph.build(
        ["x", "x1", "x(", "x\\"], [("y", "x", "x1"), ("y1", "x1", "x"), ("y|", "x(", "x\\")]
    )
    t = TypedInstance.build(
        schema, carrier, dict.fromkeys(carrier.nodes, "s"), dict.fromkeys(carrier.arrow_by_id, "r")
    )
    h = Graph.build(["h", "h1"], [("k", "h", "h1"), ("k1", "h1", "h")])
    return t, GraphMorphism(h, schema, {"h": "s", "h1": "s"}, {"k": "r", "k1": "r"})


class TestRestrictionFibres:
    """A restriction holds the fibres its pullback grouped, as its typing groups them."""

    @given(restriction_cases(ADVERSARIAL_IDS))
    @example(prefixed_case())
    @settings(deadline=None)
    def test_held_fibres_are_the_typings(self, case):
        t, b = case
        for held_by in (t, TypedInstance(t.typing)):  # t's own fibres, or none held
            for restricted in (restrict(held_by, b), cod_lift(held_by, b).lifted):
                typing = restricted.typing
                grouped = (typing.node_fibres(), typing.arrow_fibres())
                # dict and list order included
                held = vars(restricted)["_fibres"]
                assert [list(f.items()) for f in held] == [list(f.items()) for f in grouped]

    def test_pair_ids_sort_otherwise_than_elements(self):
        t, b = prefixed_case()
        held = vars(restrict(t, b))["_fibres"][0]["h"]
        assert held == sorted(held)
        assert held != [pair_id(x, "h") for x in t.carrier.sorted_nodes]

    def test_projection_is_keyed_as_the_restriction(self):
        t, b = prefixed_case()
        lift = cod_lift(t, b)
        restricted, p = lift.lifted, lift.carrier_map
        _, p_plain, q_plain = pullback(t.typing, b)
        assert restricted.typing == q_plain and p == p_plain
        assert list(p.node_map) == list(restricted.typing.node_map)
        assert list(p.arrow_map) == list(restricted.typing.arrow_map)


class TestEnumerationOverAdversarialIds:
    def test_link_names_do_not_collide(self):
        # links named arrow#src#tgt#j collided here: both were r#A#B#0#T#0#0
        schema = Graph.build(["A#B", "B", "T"], [("r", "A#B", "T"), ("r#A", "B", "T")])
        assert len(list(iter_typed_instances(schema, 1, 1))) == 13
        assert len(list(iter_instance_classes(schema, 1, 1))) == 13

    @given(adversarial_schemas())
    @settings(deadline=None)
    def test_typed_instances_match_plain_ids(self, iso):
        odd = moved_bytes(iter_typed_instances(iso.dom, 1, 2), iso)
        plain = moved_bytes(iter_typed_instances(iso.cod, 1, 2))
        assert sorted(odd) == sorted(plain)

    @given(adversarial_schemas())
    @settings(deadline=None)
    def test_instance_classes_match_plain_ids(self, iso):
        odd = moved_bytes(iter_instance_classes(iso.dom, 2, 1), iso)
        plain = moved_bytes(iter_instance_classes(iso.cod, 2, 1))
        assert len(set(odd)) == len(odd)
        assert sorted(odd) == sorted(plain)

    @given(st.lists(ADVERSARIAL_IDS, min_size=5, max_size=5, unique=True))
    @settings(deadline=None)
    def test_dependency_sweep_matches_plain_ids(self, ids):
        sig, iso = renamed_jm_signature(ids)
        odd = verify_dependency_soundness(sig, 1)
        plain = verify_dependency_soundness(span_signature(), 1)
        assert odd.checked == plain.checked > 0

        def violations(report, iso=None):
            witnesses = moved_bytes([v.witness for v in report.violations], iso)
            return sorted(
                (v.dependency, v.verdict.status.value, w)
                for v, w in zip(report.violations, witnesses)
            )

        assert violations(odd, iso) == violations(plain)
