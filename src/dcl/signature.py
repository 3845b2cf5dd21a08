"""Constraint symbols: arity graphs, decision-procedure semantics, dependencies.

Builtin semantics cover multiplicities, keys, subsetting (plain and over
composed paths), joint monicity, path commutativity, explicit tables, and
the two structural kinds (regular = injectivity formulas, lifting pairs)
together with the translation between them.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

from dcl.graphs import (
    Arrow,
    BoundExceeded,
    Budget,
    Graph,
    GraphError,
    GraphMorphism,
    _image_maps,
    _pattern_plan,
    _run_search,
    _target_index,
    _trusted,
    compose,
    identity,
)
from dcl.instances import (
    SliceMorphism,
    TypedInstance,
    _canonical_numbered,
    _factorization_pins,
    _iter_classes,
    _named,
    _numbered_restriction,
    canonical_restriction,
    serialize_instance,
)
from dcl.verdicts import Counterexample, Evidence, Status, Verdict

DEFAULT_SEARCH_LIMIT = 20_000
# violations, and likewise undecided entries, that a dependency sweep lists per dependency
SWEEP_WITNESS_LIMIT = 2_000
# units a dependency sweep or a model sweep may spend: count vectors visited and classes decided
MODEL_SWEEP_LIMIT = 1_000_000


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
        ivs = tuple((lo, hi) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        prev_hi = -1
        for i, (lo, hi) in enumerate(ivs):
            # `type(x) is int`, not isinstance: bools are not counts
            if type(lo) is not int or lo < 0 or hi is not None and (type(hi) is not int or hi < lo):
                raise SignatureError(f"bad multiplicity interval [{lo!r}..{hi!r}]")
            if lo <= prev_hi:
                raise SignatureError("multiplicity intervals must be sorted and disjoint")
            if hi is None and i != len(ivs) - 1:
                raise SignatureError("unbounded interval must come last")
            prev_hi = hi if hi is not None else lo
        if not ivs:
            raise SignatureError("multiplicity needs at least one interval")

    def admits(self, count: int) -> bool:
        return any(lo <= count and (hi is None or count <= hi) for lo, hi in self.intervals)

    def decide(self, t: TypedInstance) -> Verdict:
        arrow = t.schema.sorted_arrows[0]  # the only one, as the symbol checks
        node_fibres, arrow_fibres = t.fibres
        counts = dict.fromkeys(node_fibres[arrow.src], 0)
        for link in arrow_fibres[arrow.id]:
            counts[link.src] += 1
        offenders = tuple(sorted(a for a, c in counts.items() if not self.admits(c)))
        if offenders:
            return Verdict(counterexample=Counterexample(t, offenders))
        return Verdict(Evidence(t, {"counts": counts}))


@dataclass(frozen=True)
class Key:
    kind = "key"

    def decide(self, t: TypedInstance) -> Verdict:
        arrows = t.schema.sorted_arrows  # leaving one node, as the symbol checks
        keys = _distinct_targets(t, arrows[0].src, [a.id for a in arrows])
        if isinstance(keys, Verdict):
            return keys
        return Verdict(Evidence(t, {"keys": keys}))


@dataclass(frozen=True)
class Subset:
    kind = "subset"
    first: str = "r1"
    second: str = "r2"

    def decide(self, t: TypedInstance) -> Verdict:
        spans = t.fibres[1]
        second_pairs = {(src, tgt): link for link, src, tgt in spans[self.second]}
        assignment = {}
        offenders = []
        for link, src, tgt in spans[self.first]:
            match = second_pairs.get((src, tgt))
            if match is None:
                offenders.append(link)
            else:
                assignment[link] = match
        if offenders:
            return Verdict(counterexample=Counterexample(t, tuple(offenders)))
        return Verdict(Evidence(t, {"inclusion": assignment}))


@dataclass(frozen=True)
class CompositeSubset4:
    """Span-composite of path1 pointwise included in span-composite of path2."""

    kind = "composite_subset4"
    path1: tuple[str, str] = ("r1", "r2")
    path2: tuple[str, str] = ("s1", "s2")

    def decide(self, t: TypedInstance) -> Verdict:
        spans = t.fibres[1]
        r1, r2 = self.path1
        s1, s2 = self.path2
        s2_from = _links_from(spans[s2])
        cover_pairs = {}
        for m1, a, b in spans[s1]:
            for m2, c in s2_from.get(b, ()):
                cover_pairs.setdefault((a, c), (m1, m2))
        r2_from = _links_from(spans[r2])
        assignment = {}
        offenders = []
        for l1, a, b in spans[r1]:
            for l2, c in r2_from.get(b, ()):
                cover = cover_pairs.get((a, c))
                if cover is None:
                    offenders.append((l1, l2))
                else:
                    assignment[f"{l1}.{l2}"] = list(cover)
        if offenders:
            return Verdict(counterexample=Counterexample(t, tuple(offenders)))
        return Verdict(Evidence(t, {"covers": assignment}))


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

    def decide(self, t: TypedInstance) -> Verdict:
        apex = t.schema.arrow_by_id[self.first].src  # the legs', as the symbol checks
        pairs = _distinct_targets(t, apex, (self.first, self.second))
        if isinstance(pairs, Verdict):
            return pairs
        return Verdict(Evidence(t, pairs))


@dataclass(frozen=True)
class Commutativity:
    """Pointwise equality of the path composite with the direct arrow's span."""

    kind = "commutativity"
    path: tuple[str, str] = ("f", "g")
    direct: str = "h"

    def decide(self, t: TypedInstance) -> Verdict:
        spans = t.fibres[1]
        f, g = self.path
        g_from = _links_from(spans[g])
        composite = {(a, c) for _, a, b in spans[f] for _, c in g_from.get(b, ())}
        direct = {(a, c) for _, a, c in spans[self.direct]}
        if composite != direct:
            diff = tuple(sorted(composite ^ direct))
            return Verdict(counterexample=Counterexample(t, diff))
        return Verdict(Evidence(t, {"pairs": sorted(map(list, direct))}))


@dataclass(frozen=True)
class Regular:
    """Injectivity w.r.t. a formula morphism in the slice over the arity."""

    kind = "regular"
    formula: SliceMorphism = None  # type: ignore[assignment]
    search_limit: int = DEFAULT_SEARCH_LIMIT

    def __post_init__(self) -> None:
        if type(self.search_limit) is not int or self.search_limit < 0:
            raise SignatureError(f"search_limit is not a count: {self.search_limit!r}")
        # the search plans of both sides, not a field: equality and JSON ignore them
        sides = (self.formula.from_, self.formula.to)
        object.__setattr__(self, "_plans", tuple(_pattern_plan(s.carrier, s.typing) for s in sides))

    def decide(self, t: TypedInstance) -> Verdict:
        return check_injectivity(t, self)


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
        # a translation of the fields, not a field: equality and JSON ignore it
        object.__setattr__(self, "_regular", lifting_to_regular(self))

    def decide(self, t: TypedInstance) -> Verdict:
        """Decided as the regular formula `lifting_to_regular` gives."""
        if self.n.cod != t.schema:
            raise SignatureError("lifting pair does not target the arity")
        return self._regular.decide(t)


@dataclass(frozen=True)
class Table:
    """Extensional semantics: an explicit finite set of valid instances, held in
    canonical form, and an instance is valid when its canonical form is one."""

    kind = "table"
    entries: tuple[tuple[str, TypedInstance], ...] = ()

    def __post_init__(self) -> None:
        canonical = []
        seen_bytes = set()
        seen_ids = set()
        for entry_id, instance in self.entries:
            instance = canonical_restriction(instance)
            key = serialize_instance(instance)
            if key in seen_bytes:
                raise SignatureError(f"duplicate table entry {entry_id!r}")
            if entry_id in seen_ids:
                raise SignatureError(f"duplicate table entry id {entry_id!r}")
            seen_bytes.add(key)
            seen_ids.add(entry_id)
            canonical.append((entry_id, instance))
        object.__setattr__(self, "entries", tuple(canonical))

    def decide(self, t: TypedInstance) -> Verdict:
        try:
            canonical = canonical_restriction(t)
        except BoundExceeded as exc:
            return Verdict(detail=str(exc))
        for entry_id, instance in self.entries:
            if instance == canonical:
                return Verdict(Evidence(t, {"entry": entry_id}))
        return Verdict(counterexample=Counterexample(t, ()))


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


def _links_from(span: Sequence[Arrow]) -> dict[str, list[tuple[str, str]]]:
    """Each source element of a sorted arrow fibre to its (link, target) pairs,
    in link order."""
    out: dict[str, list[tuple[str, str]]] = {}
    for link, src, tgt in span:
        out.setdefault(src, []).append((link, tgt))
    return out


def _distinct_targets(
    t: TypedInstance, node: str, arrows: Sequence[str]
) -> Union[Verdict, dict[str, list]]:
    """Each element of `node`'s fibre, in sorted order, to the sorted targets
    of its links along each of `arrows`; or Invalid, naming the first
    element whose targets an earlier element shares."""
    node_fibres, spans = t.fibres
    links = [_links_from(spans[a]) for a in arrows]
    seen: dict[tuple, str] = {}
    for e in node_fibres[node]:
        key = tuple(tuple(sorted(tgt for _, tgt in by_src.get(e, ()))) for by_src in links)
        if key in seen:
            return Verdict(counterexample=Counterexample(t, (seen[key], e)))
        seen[key] = e
    return {e: [list(v) for v in key] for key, e in seen.items()}


# ---------------------------------------------------------------------------
# Injectivity check


def check_injectivity(t: TypedInstance, spec: Regular) -> Verdict:
    """Does every testing map from the spec's formula's domain factor through it?

    For each testing map x: S -> t, the first y: Q -> t that `iter_factorizations`
    yields is the least one with f;y == x.  The spec's `search_limit` bounds the
    morphisms the searches enumerate, testing maps and factorizations together;
    past it the verdict is Unknown, naming the bound.  Pinning enumerates fewer
    morphisms than filtering every y would, so a bound can turn Unknown into a
    definite verdict, never Valid into Invalid or back.  The searches share one
    index of t, read from `t.fibres`, and the spec's plan of each side of the
    formula; a formula over another schema is refused, and a side using a link type
    t lacks yields nothing, up front.  No morphism is built: x and y are written
    from the searches' images, as their morphisms' `to_json(inline=False)` would.
    """
    formula = spec.formula
    if formula.from_.schema != t.schema:
        raise SignatureError("formula does not live over the schema of the instance")
    budget = Budget("injectivity-search", spec.search_limit)
    target = _target_index(t.carrier, t.fibres)
    tests, factors = spec._plans
    table = []

    def maps(plan: tuple, images: tuple) -> dict:
        return dict(zip(("nodes", "arrows"), _image_maps(plan, images)))

    try:
        for x in _run_search(tests, target):
            budget.charge()
            pins = _factorization_pins(formula.map, x)
            y = None if pins is None else next(_run_search(factors, target, pins), None)
            if y is None:
                return Verdict(counterexample=Counterexample(t, (maps(tests, x),)))
            budget.charge()
            table.append({"x": maps(tests, x), "y": maps(factors, y)})
    except BoundExceeded as exc:
        return Verdict(detail=str(exc))
    return Verdict(Evidence(t, {"factorizations": table}))


def regular_to_lifting(arity: Graph, spec: Regular) -> Lifting:
    """Formula f_c over the arity becomes the pair (f_c carrier map, cod typing)."""
    return Lifting(
        m=spec.formula.map, n=spec.formula.to.typing, search_limit=spec.search_limit
    )


def lifting_to_regular(spec: Lifting) -> Regular:
    """Lifting pair over schema S becomes the formula m viewed in the slice over S."""
    w_instance = TypedInstance(compose(spec.m, spec.n))
    r_instance = TypedInstance(spec.n)
    formula = _trusted(SliceMorphism, w_instance, r_instance, spec.m)
    return Regular(formula=formula, search_limit=spec.search_limit)


# ---------------------------------------------------------------------------
# Symbols and signatures


@dataclass(frozen=True)
class ConstraintSymbol:
    name: str
    arity: Graph
    semantics: SemanticsSpec

    def __post_init__(self) -> None:
        # the arrows a semantics names must be arrows of the arity, and a
        # path a pair of them
        fields = vars(self.semantics)
        paths = [fields[f] for f in ("path", "path1", "path2") if f in fields]
        if not all(isinstance(p, tuple) and len(p) == 2 for p in paths):
            raise SignatureError(f"symbol {self.name!r}: a path is not a pair: {paths!r}")
        names = [fields[f] for f in ("first", "second", "direct") if f in fields]
        for name in names + [name for path in paths for name in path]:
            if not isinstance(name, str) or name not in self.arity.arrow_by_id:
                raise SignatureError(f"symbol {self.name!r}: {name!r} is not an arrow of its arity")
        # the arity shapes that multiplicities, keys and [jm] read unchecked
        arrows, kind = self.arity.arrow_by_id, self.semantics.kind
        if kind == "multiplicity" and len(arrows) != 1:
            raise SignatureError(f"symbol {self.name!r}: a multiplicity needs exactly one arrow")
        legs = {"key": list(arrows), "jointly_monic": names}.get(kind)
        if legs is not None and len({arrows[a].src for a in legs}) != 1:
            raise SignatureError(f"symbol {self.name!r}: a {kind} needs arrows, all from one node")
        # the paths (an arrow is one) that subsets, composite subsets and commutativities compare
        if kind in ("subset", "composite_subset4", "commutativity"):
            ends = {(arrows[p[0]].src, arrows[p[-1]].tgt) for p in paths + [(n,) for n in names]}
            if len(ends) > 1 or any(arrows[a].tgt != arrows[b].src for a, b in paths):
                message = "needs paths that compose, all between the same two nodes"
                raise SignatureError(f"symbol {self.name!r}: a {kind} {message}")
        # a table entry, a formula and a lifting pair must live over the arity
        overs = [t.schema for _, t in fields.get("entries", ())]
        if "formula" in fields:
            overs.append(self.semantics.formula.from_.schema)
        if "n" in fields:
            overs.append(self.semantics.n.cod)
        if any(over != self.arity for over in overs):
            raise SignatureError(f"symbol {self.name!r}: its semantics lives over another graph")

    __hash__ = None  # type: ignore[assignment]

    @cached_property
    def _plan(self) -> tuple:
        """The search plan of the arity, made on first use; not a field."""
        return _pattern_plan(self.arity)


def evaluate(
    symbol: ConstraintSymbol, t: TypedInstance, binding: Optional[GraphMorphism] = None
) -> Verdict:
    """Decide the symbol on t restricted along `binding`, or on t over its arity without one."""
    return decide_numbered(symbol, *numbering(symbol, t, binding))


def numbering(symbol: ConstraintSymbol, t: TypedInstance, m: Optional[GraphMorphism]) -> tuple:
    """(names, links) of t restricted along m, whose domain must be the symbol's arity."""
    if (t.schema if m is None else m.dom) != symbol.arity:
        raise SignatureError(f"instance schema differs from the arity of {symbol.name!r}")
    return _numbered_restriction(t, m)


def decide_numbered(symbol: ConstraintSymbol, names: tuple, links: tuple) -> Verdict:
    """The decision on a numbered restriction, made on its canonical form: so equal numberings,
    and isomorphic ones, are decided alike.  A canonical form that spends its work bound
    gives an Unknown verdict whose detail names the bound, its limit and the work spent."""
    try:
        canonical = _canonical_numbered(names, links, symbol.arity)[0]
    except BoundExceeded as exc:
        return Verdict(detail=str(exc))
    return symbol.semantics.decide(canonical)


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
        dependency_graph = graphlib.TopologicalSorter()
        for d in self.dependencies:
            if d.source not in self.symbols or d.target not in self.symbols:
                raise SignatureError(f"dependency {d.id!r} names unknown symbols")
            if d.arity_map.dom != self.symbols[d.target].arity:
                raise SignatureError(f"dependency {d.id!r}: bad arity map domain")
            if d.arity_map.cod != self.symbols[d.source].arity:
                raise SignatureError(f"dependency {d.id!r}: bad arity map codomain")
            if d.source == d.target and not d.is_identity:
                raise SignatureError(f"dependency {d.id!r}: non-identity self-loop")
            if d.source != d.target:  # identity self-loops are no cycle
                dependency_graph.add(d.target, d.source)
        try:
            dependency_graph.prepare()
        except graphlib.CycleError:
            raise SignatureError("dependency graph has a cycle")

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
    on: Optional[str] = None  # if undecided: "class", the source decision, or "restriction"


@dataclass(frozen=True)
class SoundnessReport:
    checked: int
    violations: tuple[SoundnessViolation, ...]  # Invalid restrictions
    undecided: tuple[SoundnessViolation, ...] = ()  # Unknown, at the source or the restriction
    # dependency -> {"violations": n, "undecided": m} past SWEEP_WITNESS_LIMIT, if any
    dropped: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    stopped: tuple[str, ...] = ()  # source symbols whose sweep ended once settled Invalid
    bound: Optional[str] = None  # the spent model-sweep bound, if the sweep ended there

    @property
    def ok(self) -> bool:
        return not self.violations and not self.undecided and self.bound is None

    @property
    def status(self) -> Status:
        """Invalid on any violation, else Unknown while anything is undecided
        or the sweep spent its bound."""
        if self.violations:
            return Status.INVALID
        return Status.VALID if self.ok else Status.UNKNOWN

    def to_json(self) -> dict:
        def entry(v: SoundnessViolation) -> dict:
            return {
                "dependency": v.dependency,
                "witness": v.witness.to_json(),
                "status": v.verdict.status.value,
            }

        out = {"ok": self.ok, "checked": self.checked}
        out["violations"] = [entry(v) for v in self.violations]
        if self.undecided:  # only then, so a fully decided report keeps its bytes
            out["undecided"] = [
                {**entry(v), "detail": v.verdict.detail, "on": v.on} for v in self.undecided
            ]
        if self.dropped:  # likewise only past the cap
            out["dropped"] = self.dropped
        if self.stopped:
            out["stopped"] = list(self.stopped)
        if self.bound is not None:
            out["bound"] = self.bound
        return out


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


def verify_dependency_soundness(
    sig: Signature, size_bound: int, max_parallel: int = 2
) -> SoundnessReport:
    """Restriction of every small valid instance along every dependency must be valid.

    The classes of each source symbol are walked once, as `_iter_classes` yields them, and
    each class runs all of that symbol's dependencies.  The source decides a class on its
    own numbering (`_named`), and a target each numbered restriction once per call.  An
    Unknown verdict, from the source or on a restriction, is undecided, not a violation.  A
    listed witness is the class's canonical form, made once per class, or the class as
    enumerated when that form spends its bound.  Results are listed dependency by dependency,
    at most SWEEP_WITNESS_LIMIT violations and as many undecided per dependency; the rest
    are counted.  Once every dependency of a source symbol has dropped a violation, the
    symbol's result is settled Invalid and its sweep stops.  The whole call spends one
    `model-sweep` budget of MODEL_SWEEP_LIMIT units, a unit per count vector visited and
    per class decided; past it the sweep ends, and the report names the bound.
    """
    checked = 0
    found = {d.id: {"violations": [], "undecided": []} for d in sig.dependencies}
    dropped = {d.id: {"violations": 0, "undecided": 0} for d in sig.dependencies}
    stopped = []
    decided: dict[tuple, Verdict] = {}  # (target symbol, names, links) -> verdict
    budget, bound = Budget("model-sweep", MODEL_SWEEP_LIMIT), None
    try:
        for name in dict.fromkeys(d.source for d in sig.dependencies):
            source, deps = sig.symbols[name], sig.dependencies_of(name)
            classes = _iter_classes(source.arity, size_bound, max_parallel, budget)
            for names, links, labelled in classes:
                t = _named(names, links, source.arity)
                source_verdict = source.semantics.decide(t)
                if source_verdict.status is Status.INVALID:
                    continue
                witness = None
                for dep in deps:
                    verdict, on = source_verdict, "class"
                    if source_verdict.is_valid:
                        checked += 1
                        key = (dep.target, *_numbered_restriction(t, dep.arity_map))
                        if key not in decided:
                            decided[key] = decide_numbered(sig.symbols[dep.target], *key[1:])
                        verdict = decided[key]
                        on = "restriction" if verdict.status is Status.UNKNOWN else None
                    if verdict.is_valid:
                        continue
                    kind = "undecided" if on else "violations"
                    listed = found[dep.id][kind]
                    if len(listed) < SWEEP_WITNESS_LIMIT:
                        witness = witness or _printed_class(names, links, source.arity, labelled)
                        listed.append(SoundnessViolation(dep.id, witness, verdict, on))
                    else:
                        dropped[dep.id][kind] += 1
                if all(dropped[dep.id]["violations"] for dep in deps):
                    stopped.append(name)
                    break
    except BoundExceeded as exc:  # only the sweep's own bound escapes a decision
        bound = str(exc)
    violations = tuple(v for listed in found.values() for v in listed["violations"])
    undecided = tuple(v for listed in found.values() for v in listed["undecided"])
    dropped = {d: counts for d, counts in dropped.items() if any(counts.values())}
    return SoundnessReport(checked, violations, undecided, dropped, tuple(stopped), bound)


def _printed_class(names: tuple, links: tuple, schema: Graph, labelled) -> TypedInstance:
    """What a class sweep prints for a class of `_iter_classes`: its canonical form, or
    `labelled()`, the class as enumerated, when that form spends its bound."""
    try:
        return _canonical_numbered(names, links, schema)[0]
    except BoundExceeded:
        return labelled()
