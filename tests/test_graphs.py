import gc
import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcl.graphs import (
    Graph,
    GraphError,
    GraphMorphism,
    SizeGuardError,
    canonical_bytes,
    canonicalize,
    compose,
    find_isomorphism,
    identity,
    iter_homomorphisms,
    pair_id,
    pullback,
    pushout,
)
from dcl.instances import (
    TypedInstance,
    canonicalize_instance,
    iter_instance_classes,
    iter_typed_instances,
)
from dcl.randgen import random_graph, random_morphism_into
from dcl.signature import (
    ConstraintSymbol,
    Dependency,
    JointlyMonic,
    Multiplicity,
    Signature,
    jointly_monic_signature,
    verify_dependency_soundness,
)


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

    def test_inverse_of_non_iso(self):
        g = Graph.build(["a", "b"])
        h = Graph.build(["x"])
        m = GraphMorphism(g, h, {"a": "x", "b": "x"}, {})
        with pytest.raises(GraphError):
            m.inverse()


class TestHomSearch:
    def test_count_into_complete_graph(self):
        # 2-chain into the 2-clique with loops absent: 2 node choices each,
        # arrow forced when endpoints differ
        chain = Graph.build(["a", "b"], [("e", "a", "b")])
        k2 = Graph.build(["x", "y"], [("xy", "x", "y"), ("yx", "y", "x")])
        homs = list(iter_homomorphisms(chain, k2))
        assert len(homs) == 2

    def test_deterministic_order(self):
        chain = Graph.build(["a", "b"], [("e", "a", "b")])
        k2 = Graph.build(["x", "y"], [("xy", "x", "y"), ("yx", "y", "x")])
        first = [m.node_map for m in iter_homomorphisms(chain, k2)]
        second = [m.node_map for m in iter_homomorphisms(chain, k2)]
        assert first == second

    def test_empty_domain_has_unique_hom(self):
        assert len(list(iter_homomorphisms(Graph.empty(), triangle()))) == 1

    def test_no_homs_into_empty(self):
        assert list(iter_homomorphisms(triangle(), Graph.empty())) == []

    def test_parallel_arrows_multiply(self):
        par = Graph.build(["a", "b"], [("e1", "a", "b"), ("e2", "a", "b")])
        homs = list(iter_homomorphisms(par, par))
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
def adversarial_graph_over(draw, base: Graph):
    """A graph with adversarial ids and a morphism from it into `base`."""
    ids = draw(st.lists(ADVERSARIAL_IDS, unique=True, max_size=9))
    cut = draw(st.integers(0, len(ids)))
    nodes, arrow_ids = ids[:cut], ids[cut:]
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
    return draw(adversarial_graph_over(base)), draw(adversarial_graph_over(base))


@st.composite
def spans(draw):
    """Two maps out of one graph C into graphs with adversarial ids.

    Each C node and C arrow picks its images, so the pushout glues both
    nodes and arrows.
    """
    left = draw(adversarial_graph_over(Graph.build(["c"], [("l", "c", "c")]))).dom
    right = draw(adversarial_graph_over(Graph.build(["c"], [("l", "c", "c")]))).dom
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


def count_classes(elements: list, glue: list) -> int:
    """Number of classes of the equivalence on `elements` generated by `glue`."""
    parent = {x: x for x in elements}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in glue:
        parent[root(x)] = root(y)
    return len({root(x) for x in elements})


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
            for h in iter_homomorphisms(z.dom, g.dom):
                if compose(z, f) != compose(h, g):
                    continue
                mediators = [
                    u
                    for u in iter_homomorphisms(z.dom, p_graph)
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


class TestPushout:
    def test_injections_commute(self):
        rng = random.Random(4)
        checked = 0
        for _ in range(40):
            dom = random_graph(rng, 3, 3, min_nodes=0)
            codl = random_graph(rng, 4, 5)
            codr = random_graph(rng, 4, 5)
            homl = list(itertools.islice(iter_homomorphisms(dom, codl), 5))
            homr = list(itertools.islice(iter_homomorphisms(dom, codr), 5))
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
            for u in iter_homomorphisms(p_graph, z)
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
        assert len(p_graph.nodes) == count_classes(nodes, glue)
        arrows = [("L", a) for a in f.cod.arrow_by_id] + [("R", a) for a in g.cod.arrow_by_id]
        glue = [(("L", f.arrow_map[c]), ("R", g.arrow_map[c])) for c in f.dom.arrow_by_id]
        assert len(p_graph.arrows) == count_classes(arrows, glue)

    def test_pushout_over_empty_is_disjoint_union(self):
        empty = Graph.empty()
        a = Graph.build(["n"], [("l", "n", "n")])
        b = Graph.build(["m"])
        p_graph, il, ir = pushout(
            GraphMorphism(empty, a, {}, {}), GraphMorphism(empty, b, {}, {})
        )
        assert len(p_graph.nodes) == 2 and len(p_graph.arrows) == 1


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
            c1 = canonicalize(g).graph
            c2 = canonicalize(c1).graph
            assert c1 == c2

    def test_relabeling_is_iso(self):
        g = triangle()
        cf = canonicalize(g)
        assert cf.relabeling.is_bijective
        assert cf.relabeling.dom == g and cf.relabeling.cod == cf.graph

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

    def test_size_guard(self):
        big = Graph.build([f"n{i}" for i in range(100)])
        with pytest.raises(SizeGuardError):
            canonicalize(big)
        assert canonicalize(big, max_nodes=100).graph is not None

    def test_size_guard_env(self, monkeypatch):
        monkeypatch.setenv("DCL_SIZE_GUARD", "2")
        with pytest.raises(SizeGuardError):
            canonicalize(triangle())
        monkeypatch.setenv("DCL_SIZE_GUARD", "200")
        canonicalize(triangle())


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
        assert canonicalize_instance(t1).bytes == canonicalize_instance(t2).bytes

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
        assert canonicalize_instance(plain).bytes == canonicalize_instance(odd).bytes

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
        cf = canonicalize(g, max_nodes=len(g.nodes))
        assert cf.relabeling.is_bijective
        assert cf.bytes == canonicalize(h, max_nodes=len(g.nodes)).bytes

    def test_leaves_no_reference_cycles(self):
        # run with the collector off, as the benchmark does: a cycle would
        # keep the call's index alive until the next collection
        for g in (hub(4), repeated_paths(3)):
            gc.collect()
            gc.disable()
            try:
                canonicalize(g)
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
        out.append(canonicalize_instance(t).bytes)
    return out


def renamed_jm_signature(ids: list[str]) -> tuple[Signature, GraphMorphism]:
    """`jointly_monic_signature` with arity ids `ids` in place of 0, 1, 2, 01,
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
    plain = jointly_monic_signature().symbols["[jm]"].arity
    iso = GraphMorphism(
        span, plain, {n0: "0", n1: "1", n2: "2"}, {e01: "01", e02: "02"}
    )
    return Signature({"[jm]": jm, "[1]": one}, deps), iso


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
        plain = verify_dependency_soundness(jointly_monic_signature(), 1)
        assert odd.checked == plain.checked > 0

        def violations(report, iso=None):
            witnesses = moved_bytes([v.witness for v in report.violations], iso)
            return sorted(
                (v.dependency, v.verdict.status.value, w)
                for v, w in zip(report.violations, witnesses)
            )

        assert violations(odd, iso) == violations(plain)
