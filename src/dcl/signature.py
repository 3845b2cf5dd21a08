"""Constraint symbols: arity graphs, decision-procedure semantics, dependencies.

Builtin semantics cover multiplicities, keys, subsetting (plain and over
composed paths), joint monicity, path commutativity, explicit tables, and
the two structural kinds (regular = injectivity formulas, lifting pairs)
together with the translation between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union

from dcl.graphs import (
    Graph,
    GraphError,
    GraphMorphism,
    SizeGuardError,
    compose,
    factorization_pins,
    identity,
)
from dcl.instances import (
    SliceMorphism,
    TypedInstance,
    canonicalize_instance,
    iter_instance_classes,
    iter_slice_morphisms,
    restrict,
    serialize_instance,
    to_indexed,
)
from dcl.verdicts import Counterexample, Evidence, Status, Verdict

DEFAULT_SEARCH_LIMIT = 20_000


class SignatureError(GraphError):
    pass


# ---------------------------------------------------------------------------
# Arity shapes


def single_arrow_arity() -> Graph:
    return Graph.build(["A", "B"], [("r", "A", "B")])


def parallel_pair_arity() -> Graph:
    return Graph.build(["A", "B"], [("r1", "A", "B"), ("r2", "A", "B")])


def span_arity() -> Graph:
    return Graph.build(["0", "1", "2"], [("01", "0", "1"), ("02", "0", "2")])


def square_arity() -> Graph:
    # two composable paths A -r1-> B -r2-> D and A -s1-> C -s2-> D
    return Graph.build(
        ["A", "B", "C", "D"],
        [("r1", "A", "B"), ("r2", "B", "D"), ("s1", "A", "C"), ("s2", "C", "D")],
    )


def key_arity(attributes: Sequence[str]) -> Graph:
    nodes = ["C"] + [f"V{i}" for i in range(len(attributes))]
    arrows = [(a, "C", f"V{i}") for i, a in enumerate(attributes)]
    return Graph.build(nodes, arrows)


def triangle_arity() -> Graph:
    return Graph.build(
        ["A", "B", "C"], [("f", "A", "B"), ("g", "B", "C"), ("h", "A", "C")]
    )


# ---------------------------------------------------------------------------
# Semantics specs


Interval = tuple[int, Optional[int]]


@dataclass(frozen=True)
class Multiplicity:
    kind = "multiplicity"
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        ivs = tuple((int(lo), None if hi is None else int(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        prev_hi = -1
        for i, (lo, hi) in enumerate(ivs):
            if lo < 0 or (hi is not None and hi < lo):
                raise SignatureError(f"bad multiplicity interval [{lo}..{hi}]")
            if lo <= prev_hi:
                raise SignatureError("multiplicity intervals must be sorted and disjoint")
            if hi is None and i != len(ivs) - 1:
                raise SignatureError("unbounded interval must come last")
            prev_hi = hi if hi is not None else lo
        if not ivs:
            raise SignatureError("multiplicity needs at least one interval")

    def admits(self, count: int) -> bool:
        return any(lo <= count and (hi is None or count <= hi) for lo, hi in self.intervals)

    def decide(self, arity: Graph, t: TypedInstance) -> Verdict:
        arrow = _single_arrow(arity)
        counts = {a: 0 for a in t.node_fiber(arrow.src)}
        for link in t.arrow_fiber(arrow.id):
            counts[t.carrier.src(link)] += 1
        offenders = tuple(sorted(a for a, c in counts.items() if not self.admits(c)))
        if offenders:
            return Verdict(Status.INVALID, counterexample=Counterexample(t, offenders))
        return Verdict(Status.VALID, Evidence(t, {"counts": counts}))


@dataclass(frozen=True)
class Key:
    kind = "key"

    def decide(self, arity: Graph, t: TypedInstance) -> Verdict:
        sources = {a.src for a in arity.arrows}
        if len(sources) != 1:
            raise SignatureError("key arity must have a single common source node")
        (class_node,) = sources
        attrs = [a.id for a in arity.sorted_arrows]
        ix = to_indexed(t)
        tuples = {}
        for element in sorted(ix.node_sets[class_node]):
            tuples[element] = tuple(
                tuple(sorted(tgt for _, src, tgt in ix.arrow_spans[attr] if src == element))
                for attr in attrs
            )
        seen: dict[tuple, str] = {}
        for element, key in tuples.items():
            if key in seen:
                return Verdict(
                    Status.INVALID,
                    counterexample=Counterexample(t, (seen[key], element)),
                )
            seen[key] = element
        witness = {e: [list(v) for v in key] for e, key in tuples.items()}
        return Verdict(Status.VALID, Evidence(t, {"keys": witness}))


@dataclass(frozen=True)
class Subset:
    kind = "subset"
    first: str = "r1"
    second: str = "r2"

    def decide(self, arity: Graph, t: TypedInstance) -> Verdict:
        ix = to_indexed(t)
        second_pairs = {
            (src, tgt): link for link, src, tgt in sorted(ix.arrow_spans[self.second])
        }
        assignment = {}
        offenders = []
        for link, src, tgt in sorted(ix.arrow_spans[self.first]):
            match = second_pairs.get((src, tgt))
            if match is None:
                offenders.append(link)
            else:
                assignment[link] = match
        if offenders:
            return Verdict(
                Status.INVALID, counterexample=Counterexample(t, tuple(offenders))
            )
        return Verdict(Status.VALID, Evidence(t, {"inclusion": assignment}))


@dataclass(frozen=True)
class CompositeSubset4:
    """Span-composite of path1 pointwise included in span-composite of path2."""

    kind = "composite_subset4"
    path1: tuple[str, str] = ("r1", "r2")
    path2: tuple[str, str] = ("s1", "s2")

    def decide(self, arity: Graph, t: TypedInstance) -> Verdict:
        ix = to_indexed(t)
        r1, r2 = self.path1
        s1, s2 = self.path2
        cover_pairs = {}
        for m1, a, b in sorted(ix.arrow_spans[s1]):
            for m2, b2, c in sorted(ix.arrow_spans[s2]):
                if b == b2:
                    cover_pairs.setdefault((a, c), (m1, m2))
        assignment = {}
        offenders = []
        for l1, a, b in sorted(ix.arrow_spans[r1]):
            for l2, b2, c in sorted(ix.arrow_spans[r2]):
                if b != b2:
                    continue
                cover = cover_pairs.get((a, c))
                if cover is None:
                    offenders.append((l1, l2))
                else:
                    assignment[f"{l1}.{l2}"] = list(cover)
        if offenders:
            return Verdict(
                Status.INVALID, counterexample=Counterexample(t, tuple(offenders))
            )
        return Verdict(Status.VALID, Evidence(t, {"covers": assignment}))


@dataclass(frozen=True)
class JointlyMonic:
    """Pairing of the two legs is injective on apex elements.

    Distinct apex elements must differ in their leg-target multisets.  Leg
    functionality is deliberately not part of this check: it is imposed by
    the signature dependencies onto [1], made explicit by sketch closure.
    """

    kind = "jointly_monic"
    first: str = "01"
    second: str = "02"

    def decide(self, arity: Graph, t: TypedInstance) -> Verdict:
        apex = arity.arrow_by_id[self.first].src
        if arity.arrow_by_id[self.second].src != apex:
            raise SignatureError("jointly-monic legs must share their source node")
        ix = to_indexed(t)
        seen: dict[tuple, str] = {}
        pairs = {}
        for element in sorted(ix.node_sets[apex]):
            firsts = sorted(
                tgt for _, src, tgt in ix.arrow_spans[self.first] if src == element
            )
            seconds = sorted(
                tgt for _, src, tgt in ix.arrow_spans[self.second] if src == element
            )
            pair = (tuple(firsts), tuple(seconds))
            if pair in seen:
                return Verdict(
                    Status.INVALID,
                    counterexample=Counterexample(t, (seen[pair], element)),
                )
            seen[pair] = element
            pairs[element] = [list(pair[0]), list(pair[1])]
        return Verdict(Status.VALID, Evidence(t, pairs))


@dataclass(frozen=True)
class Commutativity:
    """Pointwise equality of the path composite with the direct arrow's span."""

    kind = "commutativity"
    path: tuple[str, str] = ("f", "g")
    direct: str = "h"

    def decide(self, arity: Graph, t: TypedInstance) -> Verdict:
        ix = to_indexed(t)
        f, g = self.path
        composite = set()
        for _, a, b in ix.arrow_spans[f]:
            for _, b2, c in ix.arrow_spans[g]:
                if b == b2:
                    composite.add((a, c))
        direct = {(a, c) for _, a, c in ix.arrow_spans[self.direct]}
        if composite != direct:
            diff = tuple(sorted(composite ^ direct))
            return Verdict(Status.INVALID, counterexample=Counterexample(t, diff))
        return Verdict(Status.VALID, Evidence(t, {"pairs": sorted(map(list, direct))}))


@dataclass(frozen=True)
class Regular:
    """Injectivity w.r.t. a formula morphism in the slice over the arity."""

    kind = "regular"
    formula: SliceMorphism = None  # type: ignore[assignment]
    search_limit: int = DEFAULT_SEARCH_LIMIT

    def decide(self, arity: Graph, t: TypedInstance) -> Verdict:
        if self.formula.from_.schema != arity:
            raise SignatureError("regular formula does not live over the arity")
        return check_injectivity(t, self.formula, self.search_limit)


@dataclass(frozen=True)
class Lifting:
    """Lifting pair (m: W -> R, n: R -> schema)."""

    kind = "lifting"
    m: GraphMorphism = None  # type: ignore[assignment]
    n: GraphMorphism = None  # type: ignore[assignment]
    search_limit: int = DEFAULT_SEARCH_LIMIT

    def __post_init__(self) -> None:
        if self.m.cod != self.n.dom:
            raise SignatureError("lifting pair does not compose")

    def decide(self, arity: Graph, t: TypedInstance) -> Verdict:
        """Decided as the regular formula `lifting_to_regular` gives."""
        schema, regular = lifting_to_regular(self)
        if schema != arity:
            raise SignatureError("lifting pair does not target the arity")
        return regular.decide(arity, t)


@dataclass(frozen=True)
class Table:
    """Extensional semantics: an explicit finite set of valid instances."""

    kind = "table"
    entries: tuple[tuple[str, TypedInstance], ...] = ()

    def __post_init__(self) -> None:
        canonical = []
        seen_bytes = set()
        seen_ids = set()
        for entry_id, instance in self.entries:
            ci = canonicalize_instance(instance)
            if ci.bytes in seen_bytes:
                raise SignatureError(f"duplicate table entry {entry_id!r}")
            if entry_id in seen_ids:
                raise SignatureError(f"duplicate table entry id {entry_id!r}")
            seen_bytes.add(ci.bytes)
            seen_ids.add(entry_id)
            canonical.append((entry_id, ci.instance))
        object.__setattr__(self, "entries", tuple(canonical))

    def decide(self, arity: Graph, t: TypedInstance) -> Verdict:
        wanted = serialize_instance(t)
        for entry_id, instance in self.entries:
            if serialize_instance(instance) == wanted:
                return Verdict(Status.VALID, Evidence(t, {"entry": entry_id}))
        return Verdict(Status.INVALID, counterexample=Counterexample(t, ()))


SemanticsSpec = Union[
    Multiplicity,
    Key,
    Subset,
    CompositeSubset4,
    JointlyMonic,
    Commutativity,
    Regular,
    Lifting,
    Table,
]


def _single_arrow(arity: Graph):
    if len(arity.arrows) != 1:
        raise SignatureError("expected an arity with exactly one arrow")
    return arity.sorted_arrows[0]


# ---------------------------------------------------------------------------
# Injectivity check


def check_injectivity(
    t: TypedInstance, formula: SliceMorphism, limit: int = DEFAULT_SEARCH_LIMIT
) -> Verdict:
    """Does every testing map from the formula's domain factor through it?

    For each testing map x: S -> t, the factorization y: Q -> t is searched
    with y pinned on the image of the formula to what x forces, so the first
    y found is the least one with f;y == x.  `limit` bounds the morphisms
    the searches enumerate, testing maps and factorizations together; past
    it the verdict is Unknown.  Pinning enumerates fewer morphisms than
    filtering every y would, so a bound can turn Unknown into a definite
    verdict, never Valid into Invalid or back.
    """
    budget = [limit]

    def bounded(it: Iterator[SliceMorphism]) -> Iterator[SliceMorphism]:
        for m in it:
            budget[0] -= 1
            if budget[0] < 0:
                raise _BudgetExhausted
            yield m

    table = []
    try:
        for x in bounded(iter_slice_morphisms(formula.from_, t)):
            pins = factorization_pins(formula.map, x.map)
            y = None
            if pins is not None:
                y = next(bounded(iter_slice_morphisms(formula.to, t, pins)), None)
            if y is None:
                return Verdict(
                    Status.INVALID,
                    counterexample=Counterexample(t, (x.map.to_json(inline=False),)),
                )
            table.append({"x": x.map.to_json(inline=False), "y": y.map.to_json(inline=False)})
    except _BudgetExhausted:
        return Verdict(Status.UNKNOWN, detail="hom-search limit exceeded")
    return Verdict(Status.VALID, Evidence(t, {"factorizations": table}))


class _BudgetExhausted(Exception):
    pass


def regular_to_lifting(arity: Graph, spec: Regular) -> Lifting:
    """Formula f_c over the arity becomes the pair (f_c carrier map, cod typing)."""
    return Lifting(
        m=spec.formula.map, n=spec.formula.to.typing, search_limit=spec.search_limit
    )


def lifting_to_regular(spec: Lifting) -> tuple[Graph, Regular]:
    """Lifting pair over schema S becomes the formula m viewed in the slice over S."""
    schema = spec.n.cod
    w_instance = TypedInstance(compose(spec.m, spec.n))
    r_instance = TypedInstance(spec.n)
    formula = SliceMorphism(w_instance, r_instance, spec.m)
    return schema, Regular(formula=formula, search_limit=spec.search_limit)


# ---------------------------------------------------------------------------
# Symbols and signatures


@dataclass(frozen=True)
class ConstraintSymbol:
    name: str
    arity: Graph
    semantics: SemanticsSpec

    __hash__ = None  # type: ignore[assignment]


def evaluate(symbol: ConstraintSymbol, t: TypedInstance) -> Verdict:
    """Run the symbol's decision procedure on an instance over its arity.

    The instance is canonicalized first, which makes the procedure
    iso-invariant by construction.  An instance too large to canonicalize
    (see DCL_SIZE_GUARD) gets an Unknown verdict naming the guard.
    """
    if t.schema != symbol.arity:
        raise SignatureError(
            f"instance schema differs from the arity of {symbol.name!r}"
        )
    try:
        canonical = canonicalize_instance(t).instance
    except SizeGuardError as exc:
        return Verdict(Status.UNKNOWN, detail=str(exc))
    return symbol.semantics.decide(symbol.arity, canonical)


@dataclass(frozen=True)
class Dependency:
    id: str
    source: str  # the depending symbol c
    target: str  # the contributed symbol c'
    arity_map: GraphMorphism  # arity(target) -> arity(source)

    __hash__ = None  # type: ignore[assignment]

    @property
    def is_identity(self) -> bool:
        return self.source == self.target and self.arity_map == identity(
            self.arity_map.dom
        )


@dataclass(frozen=True)
class Signature:
    symbols: Mapping[str, ConstraintSymbol]
    dependencies: tuple[Dependency, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", dict(sorted(self.symbols.items())))
        object.__setattr__(self, "dependencies", tuple(self.dependencies))
        for name, symbol in self.symbols.items():
            if name != symbol.name:
                raise SignatureError(f"symbol {symbol.name!r} stored under {name!r}")
        ids = [d.id for d in self.dependencies]
        if len(ids) != len(set(ids)):
            raise SignatureError("duplicate dependency ids")
        for d in self.dependencies:
            if d.source not in self.symbols or d.target not in self.symbols:
                raise SignatureError(f"dependency {d.id!r} names unknown symbols")
            if d.arity_map.dom != self.symbols[d.target].arity:
                raise SignatureError(f"dependency {d.id!r}: bad arity map domain")
            if d.arity_map.cod != self.symbols[d.source].arity:
                raise SignatureError(f"dependency {d.id!r}: bad arity map codomain")
            if d.source == d.target and not d.is_identity:
                raise SignatureError(f"dependency {d.id!r}: non-identity self-loop")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        edges: dict[str, list[str]] = {}
        for d in self.dependencies:
            if not d.is_identity:
                edges.setdefault(d.source, []).append(d.target)
        state: dict[str, int] = {}  # 1 on the depth-first path, 2 when done
        for root in self.symbols:
            if root in state:
                continue
            state[root] = 1
            path = [(root, iter(edges.get(root, ())))]
            while path:
                n, targets = path[-1]
                for m in targets:
                    if state.get(m) == 1:
                        raise SignatureError("dependency graph has a cycle")
                    if m not in state:
                        state[m] = 1
                        path.append((m, iter(edges.get(m, ()))))
                        break
                else:
                    state[n] = 2
                    path.pop()

    def dependencies_of(self, symbol_name: str) -> tuple[Dependency, ...]:
        return tuple(d for d in self.dependencies if d.source == symbol_name)

    def dependency(self, dependency_id: str) -> Dependency:
        for d in self.dependencies:
            if d.id == dependency_id:
                return d
        raise KeyError(dependency_id)


@dataclass(frozen=True)
class SoundnessViolation:
    dependency: str
    witness: TypedInstance
    verdict: Verdict


@dataclass(frozen=True)
class SoundnessReport:
    checked: int
    violations: tuple[SoundnessViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "violations": [
                {
                    "dependency": v.dependency,
                    "witness": v.witness.to_json(),
                    "status": v.verdict.status.value,
                }
                for v in self.violations
            ],
        }


# ---------------------------------------------------------------------------
# Builtin symbols


def format_intervals(intervals: Sequence[Interval]) -> str:
    parts = []
    for lo, hi in intervals:
        if hi is None:
            parts.append(f"{lo}..*")
        elif lo == hi:
            parts.append(str(lo))
        else:
            parts.append(f"{lo}..{hi}")
    return f"[{','.join(parts)}]"


def multiplicity_symbol(
    intervals: Sequence[Interval], name: Optional[str] = None
) -> ConstraintSymbol:
    spec = Multiplicity(tuple(intervals))
    return ConstraintSymbol(
        name if name is not None else format_intervals(spec.intervals),
        single_arrow_arity(),
        spec,
    )


def key_symbol(attributes: Sequence[str], name: str = "[key]") -> ConstraintSymbol:
    return ConstraintSymbol(name, key_arity(attributes), Key())


def subset_symbol(name: str = "[sub]") -> ConstraintSymbol:
    return ConstraintSymbol(name, parallel_pair_arity(), Subset())


def composite_subset_symbol(name: str = "[sub4]") -> ConstraintSymbol:
    return ConstraintSymbol(name, square_arity(), CompositeSubset4())


def jointly_monic_symbol(name: str = "[jm]") -> ConstraintSymbol:
    return ConstraintSymbol(name, span_arity(), JointlyMonic())


def commutativity_symbol(name: str = "[comm]") -> ConstraintSymbol:
    return ConstraintSymbol(name, triangle_arity(), Commutativity())


def jointly_monic_signature() -> Signature:
    """[jm] with its two dependencies onto [1], one per span leg."""
    jm = jointly_monic_symbol()
    one = multiplicity_symbol([(1, 1)])
    arity = single_arrow_arity()
    d1 = Dependency(
        "d1",
        jm.name,
        one.name,
        GraphMorphism(arity, jm.arity, {"A": "0", "B": "1"}, {"r": "01"}),
    )
    d2 = Dependency(
        "d2",
        jm.name,
        one.name,
        GraphMorphism(arity, jm.arity, {"A": "0", "B": "2"}, {"r": "02"}),
    )
    return Signature({jm.name: jm, one.name: one}, (d1, d2))


def verify_dependency_soundness(
    sig: Signature, size_bound: int, max_parallel: int = 2
) -> SoundnessReport:
    """Restriction of every small valid instance along every dependency must be valid.

    One canonical instance per class; the valid ones are found once per source symbol.
    """
    checked = 0
    violations = []
    valid: dict[str, list[TypedInstance]] = {}
    for dep in sig.dependencies:
        source = sig.symbols[dep.source]
        target = sig.symbols[dep.target]
        if dep.source not in valid:
            classes = iter_instance_classes(source.arity, size_bound, max_parallel)
            canonical = (canonicalize_instance(t).instance for t in classes)
            # already canonical, so decided directly, not through `evaluate`
            decide = source.semantics.decide
            valid[dep.source] = [t for t in canonical if decide(source.arity, t).is_valid]
        for t in valid[dep.source]:
            checked += 1
            verdict = evaluate(target, restrict(t, dep.arity_map))
            if not verdict.is_valid:
                violations.append(SoundnessViolation(dep.id, t, verdict))
    return SoundnessReport(checked, tuple(violations))
