"""The indexed morphism search against the plain backtracking search it replaced.

`reference_homomorphisms` is a copy of the hom search as it was before the
indexed search: it fixes the order of the results, on which seeded
generation (`randgen` picks homomorphisms by index) depends.
`reference_formulas_isomorphic` and `reference_deltas_equivalent` are the
isomorphism searches that the diagram keys replaced; the proof search keys
its objects by diagram key, where it once took their canonical bytes.
"""

import itertools
import json
import signal

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dcl.signature
from dcl.fixtures import existence_symbol, outgoing_edge_theory, uniqueness_symbol
from dcl.graphs import (
    Graph,
    GraphMorphism,
    _morphism,
    _pattern_plan,
    _run_search,
    _target_index,
    compose,
    find_isomorphism,
    search_morphisms,
)
from dcl.instances import (
    Delta,
    SliceMorphism,
    TypedInstance,
    _diagram_key,
    canonical_restriction,
    deltas_equivalent,
    iter_factorizations,
    iter_slice_morphisms,
    iter_typed_instances,
    serialize_instance,
)
from dcl.injlogic import formulas_isomorphic, semantic_entails
from dcl.signature import (
    ConstraintSymbol,
    Regular,
    check_injectivity,
    evaluate,
    parallel_pair_arity,
    regular_to_lifting,
    single_arrow_arity,
)
from dcl.verdicts import Counterexample, Evidence, Status, Verdict


def reference_homomorphisms(g: Graph, h: Graph):
    """(node map, arrow map) of every hom g -> h, by plain backtracking."""
    nodes = g.sorted_nodes
    cod_nodes = h.sorted_nodes
    if g.nodes and not h.nodes:
        return
    arrows_between: dict = {}  # (src, tgt) -> arrows, sorted
    for a in h.sorted_arrows:
        arrows_between.setdefault((a.src, a.tgt), []).append(a)

    def assign(i, node_map):
        if i == len(nodes):
            yield dict(node_map)
            return
        n = nodes[i]
        for candidate in cod_nodes:
            node_map[n] = candidate
            ok = True
            for a in g.sorted_arrows:
                s = node_map.get(a.src)
                t = node_map.get(a.tgt)
                if s is not None and t is not None and (s, t) not in arrows_between:
                    ok = False
                    break
            if ok:
                yield from assign(i + 1, node_map)
            del node_map[n]

    arrow_ids = [a.id for a in g.sorted_arrows]
    for node_map in assign(0, {}):
        candidates = []
        for a in g.sorted_arrows:
            key = (node_map[a.src], node_map[a.tgt])
            candidates.append([x.id for x in arrows_between.get(key, ())])
        for images in itertools.product(*candidates):
            yield node_map, dict(zip(arrow_ids, images))


def maps(morphisms):
    return [(m.node_map, m.arrow_map) for m in morphisms]


def small_graphs():
    """Every graph on at most two nodes with at most one arrow per ordered
    pair, and the one-node graphs with up to two parallel loops."""
    out = []
    for n in range(3):
        nodes = [f"n{i}" for i in range(n)]
        slots = [(s, t) for s in nodes for t in nodes]
        for counts in itertools.product(range(3 if n == 1 else 2), repeat=len(slots)):
            arrows = [
                (f"e{k}{j}", s, t)
                for k, ((s, t), c) in enumerate(zip(slots, counts))
                for j in range(c)
            ]
            out.append(Graph.build(nodes, arrows))
    return out


@st.composite
def graphs(draw, max_nodes=4, max_arrows=5):
    """Graphs with ids whose sorted order differs from their drawing order."""
    nodes = draw(st.lists(st.text("abc", min_size=1, max_size=2), unique=True, max_size=max_nodes))
    if not nodes:
        return Graph.empty()
    ends = draw(
        st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)), max_size=max_arrows)
    )
    arrow_ids = draw(
        st.lists(st.text("xyz", min_size=1, max_size=2), unique=True, min_size=len(ends), max_size=len(ends))
    )
    return Graph.build(nodes, [(a, s, t) for a, (s, t) in zip(arrow_ids, ends)])


SCHEMA = Graph.build(["A", "B"], [("r", "A", "B"), ("s", "A", "A"), ("t", "B", "A")])


@st.composite
def typed_instances(draw, max_nodes=4, max_arrows=5, min_nodes=0, schema=SCHEMA):
    """Instances over `schema`, with ids drawn as in `graphs`."""
    nodes = draw(
        st.lists(
            st.text("abc", min_size=1, max_size=2),
            unique=True,
            min_size=min_nodes,
            max_size=max_nodes,
        )
    )
    types = {n: draw(st.sampled_from(schema.sorted_nodes)) for n in nodes}
    arrows, arrow_types = [], {}
    for k, label in enumerate(draw(st.lists(st.sampled_from(schema.sorted_arrows), max_size=max_arrows))):
        srcs = [n for n in nodes if types[n] == label.src]
        tgts = [n for n in nodes if types[n] == label.tgt]
        if srcs and tgts:
            arrows.append((f"x{k}", draw(st.sampled_from(srcs)), draw(st.sampled_from(tgts))))
            arrow_types[f"x{k}"] = label.id
    return TypedInstance.build(schema, Graph.build(nodes, arrows), types, arrow_types)


def sub_instance(t: TypedInstance, nodes, arrows) -> TypedInstance:
    """The part of t on `nodes`, `arrows` and the arrows' endpoints."""
    nodes = set(nodes) | {a.src for a in arrows} | {a.tgt for a in arrows}
    return TypedInstance.build(
        t.schema,
        Graph.build(nodes, arrows),
        {n: t.typing.node_map[n] for n in nodes},
        {a.id: t.typing.arrow_map[a.id] for a in arrows},
    )


def with_twins(t: TypedInstance) -> TypedInstance:
    """t with a parallel link of the same type next to each link."""
    twins = [(f"{a.id}'", a.src, a.tgt) for a in t.carrier.arrows]
    typing = dict(t.typing.arrow_map)
    typing.update((f"{a.id}'", typing[a.id]) for a in t.carrier.arrows)
    carrier = Graph.build(t.carrier.nodes, [*t.carrier.arrows, *twins])
    return TypedInstance.build(t.schema, carrier, t.typing.node_map, typing)


@st.composite
def factorization_problems(draw):
    """(f, x, t) with f: s -> q and x: s -> t drawn from the slice searches.

    s is part of q, so some f exists.  t is drawn, or is q with twinned
    links, so that x exists and a factorization's arrows have parallel
    rivals that only x's arrow images rule out.
    """
    q = draw(typed_instances())
    s = sub_instance(
        q,
        draw(st.sets(st.sampled_from(q.carrier.sorted_nodes))) if q.carrier.nodes else (),
        draw(st.sets(st.sampled_from(q.carrier.sorted_arrows))) if q.carrier.arrows else (),
    )
    t = with_twins(q) if draw(st.booleans()) else draw(typed_instances(max_arrows=7))
    xs = list(iter_slice_morphisms(s, t))
    assume(xs)
    f = draw(st.sampled_from(list(iter_slice_morphisms(s, q))))
    return f, draw(st.sampled_from(xs)).map, t


@st.composite
def pins_for(draw, g: Graph, h: Graph):
    """A partial node map and a partial arrow map g -> h, not necessarily valid."""
    node_pins = {
        n: draw(st.sampled_from(h.sorted_nodes))
        for n in g.sorted_nodes
        if h.nodes and draw(st.booleans())
    }
    arrow_pins = {
        a.id: draw(st.sampled_from([x.id for x in h.sorted_arrows]))
        for a in g.sorted_arrows
        if h.arrows and draw(st.booleans())
    }
    return node_pins, arrow_pins


def respects(m: GraphMorphism, pins) -> bool:
    node_pins, arrow_pins = pins
    return all(m.node_map[n] == v for n, v in node_pins.items()) and all(
        m.arrow_map[a] == v for a, v in arrow_pins.items()
    )


def is_monic(m: GraphMorphism) -> bool:
    return len(set(m.node_map.values())) == len(m.node_map) and len(
        set(m.arrow_map.values())
    ) == len(m.arrow_map)


def assert_valid(m: GraphMorphism) -> None:
    """m is what the validating constructor makes of its maps, keys sorted."""
    assert GraphMorphism(m.dom, m.cod, m.node_map, m.arrow_map) == m
    assert list(m.node_map) == sorted(m.node_map)
    assert list(m.arrow_map) == sorted(m.arrow_map)


# patterns refused before any candidate: an arrow into a graph with nodes and
# no arrows, and a link type (`s`) that the target does not have, though its
# carrier has an arrow for the link
ARROW_INTO_BARE_NODES = (Graph.build(["a", "b"], [("x", "a", "b")]), Graph.build(["p", "q"]))
TYPE_THE_TARGET_LACKS = (
    TypedInstance.build(
        SCHEMA, Graph.build(["a", "b"], [("x", "a", "b")]), {"a": "A", "b": "A"}, {"x": "s"}
    ),
    TypedInstance.build(
        SCHEMA, Graph.build(["p", "q"], [("y", "p", "q")]), {"p": "A", "q": "B"}, {"y": "r"}
    ),
)


class TestHomSearch:
    def test_small_graphs_match_reference(self):
        pool = small_graphs()
        for g, h in itertools.product(pool, pool):
            assert maps(search_morphisms(g, h)) == list(reference_homomorphisms(g, h))

    @given(graphs(), graphs(max_arrows=7))
    @example(*ARROW_INTO_BARE_NODES)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, g, h):
        found = list(search_morphisms(g, h))
        assert maps(found) == list(reference_homomorphisms(g, h))
        for m in found:
            assert_valid(m)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_pinned_is_filtered(self, data):
        g, h = data.draw(graphs()), data.draw(graphs(max_arrows=7))
        pins = data.draw(pins_for(g, h))
        everything = list(search_morphisms(g, h))
        assert maps(search_morphisms(g, h, pins=pins)) == maps(
            m for m in everything if respects(m, pins)
        )

    @given(graphs(), graphs(max_arrows=7))
    @example(*ARROW_INTO_BARE_NODES)
    @settings(max_examples=300, deadline=None)
    def test_injective_is_filtered(self, g, h):
        everything = list(search_morphisms(g, h))
        injective = list(search_morphisms(g, h, injective=True))
        assert maps(injective) == maps(m for m in everything if is_monic(m))
        if len(g.nodes) == len(h.nodes) and len(g.arrows) == len(h.arrows):
            assert maps(injective) == maps(m for m in everything if m.is_bijective)

    def test_arrow_into_bare_nodes_yields_nothing(self):
        g, h = ARROW_INTO_BARE_NODES
        for pins in (None, ({"a": "p"}, {}), ({"a": "p", "b": "q"}, {})):
            for injective in (False, True):
                assert list(search_morphisms(g, h, pins=pins, injective=injective)) == []

    def test_small_graphs_injective_is_bijective_filter(self):
        pool = small_graphs()
        for g, h in itertools.product(pool, pool):
            if len(g.nodes) != len(h.nodes) or len(g.arrows) != len(h.arrows):
                continue
            everything = list(search_morphisms(g, h))
            assert maps(search_morphisms(g, h, injective=True)) == maps(
                m for m in everything if m.is_bijective
            )


def within_seconds(seconds: int, search):
    """search(), or TimeoutError once `seconds` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"search still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return search()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestIsomorphismSearchIsPruned:
    """Isomorphisms are found without enumerating what cannot extend to one."""

    def test_parallel_arrows(self):
        # 12 parallel loops: the first injective arrow choice in product
        # order comes after about 12**11 repeating ones
        g = Graph.build(["p"], [(f"l{i}", "p", "p") for i in range(12)])
        h = Graph.build(["q"], [(f"m{i}", "q", "q") for i in range(12)])
        iso = within_seconds(10, lambda: find_isomorphism(g, h))
        assert iso.arrow_map == {f"l{i}": f"m{i}" for i in range(12)}

    def test_isolated_nodes_before_an_arrow_end(self):
        # the arrow's target sorts first and its source last; a target tried
        # on an isolated node used to fail only after every arrangement of
        # the isolated nodes in between
        nodes = [f"a{i:02}" for i in range(12)]
        g = Graph.build([*nodes, "z"], [("r", "z", "a00")])
        h = Graph.build([*nodes, "z"], [("r", "z", "a11")])
        iso = within_seconds(10, lambda: find_isomorphism(g, h))
        assert iso.node_map["a00"] == "a11" and iso.node_map["z"] == "z"


class TestSliceSearch:
    @given(typed_instances(), typed_instances(max_arrows=7))
    @example(*TYPE_THE_TARGET_LACKS)
    @settings(max_examples=300, deadline=None)
    def test_is_hom_search_filtered_by_typing(self, s, t):
        found = list(iter_slice_morphisms(s, t))
        assert maps(x.map for x in found) == maps(
            m for m in search_morphisms(s.carrier, t.carrier) if compose(m, t.typing) == s.typing
        )
        for x in found:
            assert_valid(x.map)
            assert SliceMorphism(x.from_, x.to, x.map) == x

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_pinned_and_injective_are_filtered(self, data):
        s, t = data.draw(typed_instances()), data.draw(typed_instances(max_arrows=7))
        pins = data.draw(pins_for(s.carrier, t.carrier))
        everything = [x.map for x in iter_slice_morphisms(s, t)]
        assert maps(x.map for x in iter_slice_morphisms(s, t, pins)) == maps(
            m for m in everything if respects(m, pins)
        )
        assert maps(x.map for x in iter_slice_morphisms(s, t, pins, injective=True)) == maps(
            m for m in everything if respects(m, pins) and is_monic(m)
        )

    def test_type_the_target_lacks_yields_nothing(self):
        s, t = TYPE_THE_TARGET_LACKS
        assert list(search_morphisms(s.carrier, t.carrier))  # untyped, x has an image
        for pins in (None, ({"a": "p"}, {}), ({"a": "p"}, {"x": "y"})):
            for injective in (False, True):
                assert list(iter_slice_morphisms(s, t, pins, injective)) == []

    @given(factorization_problems())
    @settings(max_examples=300, deadline=None)
    def test_factorizations_are_filtered(self, problem):
        f, x, t = problem
        expected = [
            y.map for y in iter_slice_morphisms(f.to, t) if compose(f.map, y.map) == x
        ]
        assert maps(y.map for y in iter_factorizations(f, x, t)) == maps(expected)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_plan_and_index_serve_many_pins(self, data):
        # what check_injectivity does: plan s and index t once, then run the
        # search for every pin set; each run must equal a fresh search
        s, t = data.draw(typed_instances()), data.draw(typed_instances(max_arrows=7))
        typings = (s.typing, t.typing) if data.draw(st.booleans()) else None
        plan = _pattern_plan(s.carrier, typings and typings[0])
        index = _target_index(t.carrier, typings and t.fibres)
        pin_sets = data.draw(st.lists(pins_for(s.carrier, t.carrier), max_size=4))
        for pins, injective in itertools.product([None, *pin_sets], (False, True)):
            found = _run_search(plan, index, pins, injective)
            assert maps(_morphism(plan, t.carrier, images) for images in found) == maps(
                search_morphisms(s.carrier, t.carrier, typings, pins, injective)
            )


def same_size(s: TypedInstance, t: TypedInstance) -> bool:
    return len(s.carrier.nodes) == len(t.carrier.nodes) and len(s.carrier.arrows) == len(
        t.carrier.arrows
    )


def instance_isomorphisms(s: TypedInstance, t: TypedInstance):
    """The typing-preserving isomorphisms s -> t, by search."""
    return iter_slice_morphisms(s, t, injective=True) if same_size(s, t) else iter(())


def reference_formulas_isomorphic(f: SliceMorphism, g: SliceMorphism) -> bool:
    """The search that decided formula isomorphism before the diagram key:
    for each isomorphism a of the domains, an isomorphism of the codomains
    with f;b == a;g is an injective map between codomains of one size,
    pinned on the image of f to what a;g forces."""
    if f.from_.schema != g.from_.schema or not same_size(f.to, g.to):
        return False
    for a in instance_isomorphisms(f.from_, g.from_):
        x = compose(a.map, g.map)
        pins: tuple[dict, dict] = ({}, {})
        forced = all(
            pinned.setdefault(image, x_map[e]) == x_map[e]
            for pinned, f_map, x_map in zip(
                pins, (f.map.node_map, f.map.arrow_map), (x.node_map, x.arrow_map)
            )
            for e, image in f_map.items()
        )
        if forced and next(iter_slice_morphisms(f.to, g.to, pins, injective=True), None):
            return True
    return False


def reference_deltas_equivalent(d1: Delta, d2: Delta) -> bool:
    """The search that decided delta equivalence before the diagram key: an
    isomorphism of the apexes that commutes with both legs."""
    if d1.source != d2.source or d1.target != d2.target:
        return False
    return any(
        compose(iso.map, d2.left.map) == d1.left.map
        and compose(iso.map, d2.right.map) == d1.right.map
        for iso in instance_isomorphisms(d1.apex, d2.apex)
    )


@st.composite
def relabelled(draw, t: TypedInstance):
    """(a copy of t with fresh ids in a drawn order, the isomorphisms t -> copy
    and copy -> t)."""
    nodes, arrows = t.carrier.sorted_nodes, t.carrier.sorted_arrows
    node_map = dict(zip(nodes, draw(st.permutations([f"m{i}" for i in range(len(nodes))]))))
    arrow_ids = draw(st.permutations([f"k{i}" for i in range(len(arrows))]))
    arrow_map = {a.id: k for a, k in zip(arrows, arrow_ids)}
    carrier = Graph.build(
        node_map.values(), [(arrow_map[a.id], node_map[a.src], node_map[a.tgt]) for a in arrows]
    )
    copy = TypedInstance.build(
        SCHEMA,
        carrier,
        {node_map[n]: h for n, h in t.typing.node_map.items()},
        {arrow_map[a]: k for a, k in t.typing.arrow_map.items()},
    )
    back = GraphMorphism(
        carrier,
        t.carrier,
        {v: k for k, v in node_map.items()},
        {v: k for k, v in arrow_map.items()},
    )
    return copy, GraphMorphism(t.carrier, carrier, node_map, arrow_map), back


@st.composite
def sub_instances(draw, t: TypedInstance) -> TypedInstance:
    nodes = draw(st.sets(st.sampled_from(t.carrier.sorted_nodes), min_size=1)) if t.carrier.nodes else ()
    arrows = draw(st.sets(st.sampled_from(t.carrier.sorted_arrows))) if t.carrier.arrows else ()
    return sub_instance(t, nodes, arrows)


def first_maps(s: TypedInstance, t: TypedInstance) -> list[SliceMorphism]:
    """Up to 50 of the slice morphisms s -> t: twinned links multiply them."""
    return list(itertools.islice(iter_slice_morphisms(s, t), 50))


@st.composite
def formula_pairs(draw):
    """(f, g): g is f carried to relabelled copies of its endpoints, or
    another map between those copies, isomorphic to f only through an
    automorphism.  The codomain's links are twinned at times, so that its
    automorphisms move the image of f."""
    q = draw(typed_instances(max_arrows=3, min_nodes=2))
    s = draw(sub_instances(q))
    q = with_twins(q) if draw(st.booleans()) else q
    fs = first_maps(s, q)
    assume(fs)
    f = draw(st.sampled_from(fs))
    (s2, _, back), (q2, b, _) = draw(relabelled(s)), draw(relabelled(q))
    carried = SliceMorphism(s2, q2, compose(compose(back, f.map), b))
    others = [g for g in first_maps(s2, q2) if g.map != carried.map]
    return f, draw(st.sampled_from(others)) if others and draw(st.integers(0, 2)) else carried


@st.composite
def delta_pairs(draw):
    """(d1, d2) with equal endpoints: d2's apex is a relabelled copy of d1's,
    each leg carried over to it or drawn afresh.  The apex is part of the
    source, whose links are twinned at times."""
    source = draw(typed_instances(max_arrows=3))
    apex = draw(sub_instances(source))
    source = with_twins(source) if draw(st.booleans()) else source
    target = draw(st.one_of(st.just(source), typed_instances(max_arrows=3)))
    rights = first_maps(apex, target)
    assume(rights)
    d1 = Delta(draw(st.sampled_from(first_maps(apex, source))), draw(st.sampled_from(rights)))
    copy, _, back = draw(relabelled(apex))
    legs = [
        SliceMorphism(copy, leg.to, compose(back, leg.map))
        if draw(st.booleans())
        else draw(st.sampled_from(first_maps(copy, leg.to)))
        for leg in (d1.left, d1.right)
    ]
    return d1, Delta(*legs)


def bare_nodes(*nodes: str) -> TypedInstance:
    return TypedInstance.build(SCHEMA, Graph.build(nodes), dict.fromkeys(nodes, "A"), {})


def onto(s: TypedInstance, t: TypedInstance, node_map) -> SliceMorphism:
    return SliceMorphism(s, t, GraphMorphism(s.carrier, t.carrier, node_map, {}))


# a -> b1 and a -> b2 differ by the automorphism that swaps b1 and b2
INTO_TWINS = tuple(onto(bare_nodes("a"), bare_nodes("b1", "b2"), {"a": b}) for b in ("b1", "b2"))


class TestIsomorphismKeysMatchSearch:
    """Formula and delta isomorphism by diagram key, against the searches
    they replaced."""

    @given(formula_pairs())
    @example(INTO_TWINS)
    @settings(max_examples=300, deadline=None)
    def test_formulas(self, pair):
        f, g = pair
        assert formulas_isomorphic(f, g) == reference_formulas_isomorphic(f, g)
        assert formulas_isomorphic(g, f) == formulas_isomorphic(f, g)

    @given(delta_pairs())
    @settings(max_examples=300, deadline=None)
    def test_deltas(self, pair):
        d1, d2 = pair
        assert deltas_equivalent(d1, d2) == reference_deltas_equivalent(d1, d2)

    def test_symmetric_apex_ends_within_the_guard(self):
        # apexes of 10 bare nodes over 5 source nodes, in fibres 2,2,2,2,2
        # and 3,1,2,2,2: a search over the 10! apex isomorphisms ran past
        # the guard
        apex = bare_nodes(*(f"a{i}" for i in range(10)))
        source, target = bare_nodes(*(f"b{j}" for j in range(5))), bare_nodes("c")
        right = onto(apex, target, dict.fromkeys(apex.carrier.nodes, "c"))

        def delta(sizes):
            owner = [f"b{j}" for j, k in enumerate(sizes) for _ in range(k)]
            left = onto(apex, source, dict(zip(apex.carrier.sorted_nodes, owner)))
            return Delta(left, right)

        pairs = delta([2, 2, 2, 2, 2])
        assert not within_seconds(10, lambda: deltas_equivalent(pairs, delta([3, 1, 2, 2, 2])))
        assert within_seconds(10, lambda: deltas_equivalent(pairs, delta([2, 2, 2, 2, 2])))


@st.composite
def instance_pairs(draw):
    """(t, u): u is a relabelled copy of t, of t with twinned links, of a part
    of t, or of an instance drawn afresh."""
    t = draw(typed_instances(max_arrows=4))
    u = draw(
        st.one_of(
            st.just(t), st.just(with_twins(t)), sub_instances(t), typed_instances(max_arrows=4)
        )
    )
    return t, draw(relabelled(u))[0]


class TestObjectKeyMatchesCanonicalBytes:
    @given(instance_pairs())
    @settings(max_examples=300, deadline=None)
    def test_single_object_keys(self, pair):
        t, u = pair
        same_key = _diagram_key([(t, False)], []) == _diagram_key([(u, False)], [])
        same_bytes = serialize_instance(canonical_restriction(t)) == serialize_instance(
            canonical_restriction(u)
        )
        assert same_key == same_bytes


def factorization_table(formula, t):
    """The evidence table of the filtering search the pinned one replaced:
    for each testing map x, the least y with f;y == x (None if one has none)."""
    table = []
    for x in iter_slice_morphisms(formula.from_, t):
        ys = [
            y for y in iter_slice_morphisms(formula.to, t) if compose(formula.map, y.map) == x.map
        ]
        if not ys:
            return None
        table.append({"x": as_json(x.map), "y": as_json(ys[0].map)})
    return table


def as_json(m: GraphMorphism) -> dict:
    return {"nodes": dict(m.node_map), "arrows": dict(m.arrow_map)}


class TestRegularLiftingAgreement:
    def test_statuses_and_factorizations_equal(self):
        for symbol in (existence_symbol(), uniqueness_symbol()):
            lifting = ConstraintSymbol(
                symbol.name, symbol.arity, regular_to_lifting(symbol.arity, symbol.semantics)
            )
            for t in iter_typed_instances(single_arrow_arity(), 2, 2):
                regular, lifted = evaluate(symbol, t), evaluate(lifting, t)
                assert regular.status is lifted.status
                assert regular.status is not Status.UNKNOWN
                if regular.is_valid:
                    assert regular.evidence.witness == lifted.evidence.witness
                    assert "factorizations" in regular.evidence.witness
                else:
                    assert regular.counterexample == lifted.counterexample

    def test_canonical_instance_grouped_once(self, monkeypatch):
        # evaluate groups t to restrict it; the search reads the naming pass's
        # fibres, not a second grouping of the canonical instance
        symbol = existence_symbol()
        lifting = ConstraintSymbol(
            symbol.name, symbol.arity, regular_to_lifting(symbol.arity, symbol.semantics)
        )
        grouped = []
        real = GraphMorphism.node_fibres
        monkeypatch.setattr(GraphMorphism, "node_fibres", lambda m: grouped.append(m) or real(m))
        instances = list(iter_typed_instances(single_arrow_arity(), 2, 2))
        for s in (symbol, lifting):
            grouped.clear()
            for t in instances:
                evaluate(s, t)
            assert len(grouped) == len(instances) == 107

    def test_each_formula_planned_once(self, monkeypatch):
        planned = []
        real = dcl.signature._pattern_plan
        monkeypatch.setattr(
            dcl.signature, "_pattern_plan", lambda *a: planned.append(a) or real(*a)
        )
        symbol = existence_symbol()
        lifting = ConstraintSymbol(
            symbol.name, symbol.arity, regular_to_lifting(symbol.arity, symbol.semantics)
        )
        assert len(planned) == 4  # both sides of the formula and of its lifting translation
        for t in iter_typed_instances(single_arrow_arity(), 2, 2):
            evaluate(symbol, t)
            evaluate(lifting, t)
        assert len(planned) == 4
        # a sweep plans each formula of the theory and the goal once
        theory = outgoing_edge_theory()
        planned.clear()
        result = semantic_entails(theory, theory.formulas["out-edge"], 3, 1)
        assert result.entailed and result.models_checked > len(theory.formulas) + 1
        assert len(planned) == 2 * (len(theory.formulas) + 1)

    def test_factorizations_match_filtering_search(self):
        for symbol in (existence_symbol(), uniqueness_symbol()):
            formula = symbol.semantics.formula
            for t in iter_typed_instances(single_arrow_arity(), 2, 2):
                verdict = check_injectivity(t, Regular(formula))
                expected = factorization_table(formula, t)
                assert verdict.is_valid == (expected is not None)
                if expected is not None:
                    assert verdict.evidence.witness == {"factorizations": expected}


def reference_injectivity(t: TypedInstance, spec: Regular) -> Verdict:
    """`check_injectivity` rebuilt from the public searches: the testing maps
    of `iter_slice_morphisms`, each with the first y of `iter_factorizations`,
    charging 1 per x and 1 per y against the spec's `search_limit`."""
    formula, limit, spent, table = spec.formula, spec.search_limit, 0, []
    spent_all = f"spent {limit + 1} of {limit} units"
    unknown = Verdict(detail=f"injectivity-search bound exceeded: {spent_all}")
    for x in iter_slice_morphisms(formula.from_, t):
        spent += 1
        if spent > limit:
            return unknown
        y = next(iter_factorizations(formula, x.map, t), None)
        if y is None:
            return Verdict(counterexample=Counterexample(t, (x.map.to_json(inline=False),)))
        spent += 1
        if spent > limit:
            return unknown
        table.append({"x": x.map.to_json(inline=False), "y": y.map.to_json(inline=False)})
    return Verdict(Evidence(t, {"factorizations": table}))


LOOP_ARITY = Graph.build(["A"], [("l", "A", "A")])
ARITIES = (SCHEMA, single_arrow_arity(), parallel_pair_arity(), LOOP_ARITY)


def without_types(t: TypedInstance, types) -> TypedInstance:
    """t without its links of the given types."""
    kept = [a for a in t.carrier.arrows if t.typing.arrow_map[a.id] not in types]
    return sub_instance(t, t.carrier.nodes, kept)


@st.composite
def injectivity_problems(draw):
    """(t, spec): a formula s -> q over a small arity, s part of q (whose links
    are twinned at times), and t over the same arity, drawn or part of q, less
    the links of some types, so that at times it lacks a type the formula uses."""
    arity = draw(st.sampled_from(ARITIES))
    q = draw(typed_instances(max_nodes=3, max_arrows=4, schema=arity))
    s = draw(sub_instances(q))
    q = with_twins(q) if draw(st.booleans()) else q
    formula = draw(st.sampled_from(first_maps(s, q)))
    t = draw(st.one_of(typed_instances(max_nodes=3, max_arrows=4, schema=arity), sub_instances(q)))
    t = without_types(t, draw(st.sets(st.sampled_from([a.id for a in arity.sorted_arrows]))))
    return t, Regular(formula, draw(st.integers(0, 6)))


def single_arrow_problem(t_links: bool, s_links: bool, limit: int = 4):
    """Over A -r-> B: the formula (a, with its r link when s_links) -> (a -r-> b),
    and t = (p -r-> q) with or without its link."""
    arity = single_arrow_arity()
    q = TypedInstance.build(
        arity, Graph.build(["a", "b"], [("x", "a", "b")]), {"a": "A", "b": "B"}, {"x": "r"}
    )
    s = q if s_links else sub_instance(q, ["a"], [])
    nodes = {"a": "a", "b": "b"} if s_links else {"a": "a"}
    formula = SliceMorphism(
        s, q, GraphMorphism(s.carrier, q.carrier, nodes, {"x": "x"} if s_links else {})
    )
    arrows = [("y", "p", "q")] if t_links else []
    t = TypedInstance.build(
        arity, Graph.build(["p", "q"], arrows), {"p": "A", "q": "B"}, {"y": "r"} if t_links else {}
    )
    return t, Regular(formula, limit)


class TestInjectivityMatchesPublicPath:
    """`check_injectivity`, which reads its searches' images, against the
    verdict rebuilt from the public slice and factorization searches."""

    @given(injectivity_problems())
    @example(single_arrow_problem(t_links=False, s_links=False))  # no y: counterexample
    @example(single_arrow_problem(t_links=False, s_links=True))  # no x: empty table
    @example(single_arrow_problem(t_links=True, s_links=False, limit=1))  # Unknown at the y
    @settings(max_examples=300, deadline=None)
    def test_verdicts_equal(self, problem):
        t, spec = problem
        verdict, expected = check_injectivity(t, spec), reference_injectivity(t, spec)
        assert verdict.status is expected.status
        assert verdict.evidence == expected.evidence
        assert verdict.counterexample == expected.counterexample
        assert verdict.detail == expected.detail
        assert json.dumps(verdict.to_json()) == json.dumps(expected.to_json())

    def test_examples_reach_each_outcome(self):
        outcomes = [
            check_injectivity(*single_arrow_problem(*flags, limit)).status
            for *flags, limit in ((False, False, 4), (False, True, 4), (True, False, 1))
        ]
        assert outcomes == [Status.INVALID, Status.VALID, Status.UNKNOWN]
