"""Injectivity logic: theories of formula-morphisms, derivations, entailment.

An object A is injective w.r.t. a formula f: S -> Q when every map S -> A
factors through f.  The calculus derives new formulas from a theory by
Composition, Identity, Cancellation, and Pushout; Coproduct is a derived
macro (two pushouts and a composition).  The ambient category is always a
slice of graphs over a base; plain graphs are the slice over the terminal
graph (one node, one loop).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from dcl.graphs import (
    BoundExceeded,
    Budget,
    Graph,
    GraphError,
    GraphMorphism,
    compose,
    factorization_pins,
    identity,
    pushout,
)
from dcl.instances import (
    SliceMorphism,
    TypedInstance,
    canonicalize_instance,
    iter_instance_classes,
    iter_instance_isomorphisms,
    iter_slice_morphisms,
)
from dcl.signature import DEFAULT_SEARCH_LIMIT, check_injectivity
from dcl.verdicts import Status


def terminal_graph() -> Graph:
    return Graph.build(["pt"], [("loop", "pt", "pt")])


def as_slice(g: Graph, base: Optional[Graph] = None) -> TypedInstance:
    """View a plain graph as an object of the slice over the terminal graph."""
    base = base if base is not None else terminal_graph()
    if len(base.nodes) != 1 or len(base.arrows) != 1:
        raise GraphError("as_slice expects the one-node one-loop base")
    (node,) = base.nodes
    (arrow,) = base.arrow_by_id
    return TypedInstance.build(
        base, g, {n: node for n in g.nodes}, {a: arrow for a in g.arrow_by_id}
    )


def as_slice_morphism(m: GraphMorphism, base: Optional[Graph] = None) -> SliceMorphism:
    base = base if base is not None else terminal_graph()
    return SliceMorphism(as_slice(m.dom, base), as_slice(m.cod, base), m)


@dataclass(frozen=True)
class InjTheory:
    base: Graph  # ambient = slice over this graph
    formulas: Mapping[str, SliceMorphism]

    def __post_init__(self) -> None:
        object.__setattr__(self, "formulas", dict(sorted(self.formulas.items())))
        for name, f in self.formulas.items():
            if f.from_.schema != self.base:
                raise GraphError(f"formula {name!r} lives over a different base")


# ---------------------------------------------------------------------------
# Semantic entailment by finite-model enumeration


@dataclass(frozen=True)
class SemanticResult:
    status: str  # "entailed" | "refuted" | "unknown"
    models_checked: int
    counterexample: Optional[TypedInstance] = None

    @property
    def entailed(self) -> bool:
        return self.status == "entailed"


def semantic_entails(
    theory: InjTheory,
    goal: SliceMorphism,
    size_bound: int,
    max_parallel: int = 2,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> SemanticResult:
    """Every small model of the theory must be injective w.r.t. the goal.

    Exhaustive over instances with at most size_bound elements per base
    node and max_parallel parallel links, one per isomorphism class
    (`iter_instance_classes`), each checked in canonical form.
    """
    checked = 0
    unknown = False
    for a in iter_instance_classes(theory.base, size_bound, max_parallel):
        ci = canonicalize_instance(a)
        model = True
        for f in theory.formulas.values():
            v = check_injectivity(ci.instance, f, limit)
            if v.status is Status.UNKNOWN:
                unknown = True
                model = False
                break
            if not v.is_valid:
                model = False
                break
        if not model:
            continue
        checked += 1
        v = check_injectivity(ci.instance, goal, limit)
        if v.status is Status.UNKNOWN:
            unknown = True
            continue
        if not v.is_valid:
            return SemanticResult("refuted", checked, ci.instance)
    return SemanticResult("unknown" if unknown else "entailed", checked)


# ---------------------------------------------------------------------------
# Derivations


@dataclass(frozen=True)
class Derivation:
    conclusion: SliceMorphism
    rule: str  # Axiom | Identity | Composition | Cancellation | Pushout | CoproductMacro
    premises: tuple["Derivation", ...] = ()
    side: Optional[SliceMorphism] = None  # Pushout: the map pushed along;
    # Cancellation: the second factor

    __hash__ = None  # type: ignore[assignment]

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.premises)

    def rules_used(self) -> tuple[str, ...]:
        out = [self.rule]
        for p in self.premises:
            out.extend(p.rules_used())
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "conclusion": self.conclusion.to_json(),
            "premises": [p.to_json() for p in self.premises],
        }


def slice_pushout(
    f: SliceMorphism, g: SliceMorphism
) -> tuple[TypedInstance, SliceMorphism, SliceMorphism]:
    """Pushout of a span of slice morphisms; the typing is induced on classes."""
    if f.from_ != g.from_:
        raise GraphError("slice pushout requires a span")
    p_graph, into_left, into_right = pushout(f.map, g.map)
    node_typing: dict[str, str] = {}
    arrow_typing: dict[str, str] = {}
    for n, cls in into_left.node_map.items():
        node_typing[cls] = f.to.typing.node_map[n]
    for n, cls in into_right.node_map.items():
        node_typing[cls] = g.to.typing.node_map[n]
    for a, cls in into_left.arrow_map.items():
        arrow_typing[cls] = f.to.typing.arrow_map[a]
    for a, cls in into_right.arrow_map.items():
        arrow_typing[cls] = g.to.typing.arrow_map[a]
    apex = TypedInstance.build(f.from_.schema, p_graph, node_typing, arrow_typing)
    return (
        apex,
        SliceMorphism(f.to, apex, into_left),
        SliceMorphism(g.to, apex, into_right),
    )


def axiom(theory: InjTheory, name: str) -> Derivation:
    return Derivation(theory.formulas[name], "Axiom")


def identity_formula(a: TypedInstance) -> Derivation:
    return Derivation(SliceMorphism.identity(a), "Identity")


def compose_derivations(d1: Derivation, d2: Derivation) -> Derivation:
    return Derivation(d1.conclusion.then(d2.conclusion), "Composition", (d1, d2))


def cancel_derivation(dh: Derivation, f1: SliceMorphism, f2: SliceMorphism) -> Derivation:
    """From h = f1;f2 derive f1; the factorization is recorded as side data."""
    if f1.then(f2).map != dh.conclusion.map:
        raise GraphError("cancellation: recorded factorization does not compose to h")
    return Derivation(f1, "Cancellation", (dh,), side=f2)


def pushout_derivation(df: Derivation, g: SliceMorphism) -> Derivation:
    """From f: A -> B derive its pushout along any g: A -> C."""
    if g.from_ != df.conclusion.from_:
        raise GraphError("pushout rule: the pushed-along map has a different domain")
    _, _, into_right = slice_pushout(df.conclusion, g)
    return Derivation(into_right, "Pushout", (df,), side=g)


def coproduct_macro(d1: Derivation, d2: Derivation) -> Derivation:
    """Derive f1+f2 by the three-step script: Pushout, Pushout, Composition.

    Step 1 pushes f1 along the injection of its domain into the domain
    coproduct; step 2 pushes f2 along the resulting injection; step 3
    composes the two pushout legs.
    """
    f1, f2 = d1.conclusion, d2.conclusion
    base = f1.from_.schema
    empty = TypedInstance.empty(base)
    bang1 = SliceMorphism(empty, f1.from_, GraphMorphism(Graph.empty(), f1.from_.carrier, {}, {}))
    bang2 = SliceMorphism(empty, f2.from_, GraphMorphism(Graph.empty(), f2.from_.carrier, {}, {}))
    _, inj1, inj2 = slice_pushout(bang1, bang2)  # A1 + A2
    step1 = pushout_derivation(d1, inj1)  # A1+A2 -> B1+A2
    # the A2 summand sits inside B1+A2 via the step-1 pushout leg
    into_mixed = inj2.then(step1.conclusion)
    step2 = pushout_derivation(d2, into_mixed)  # B1+A2 -> B1+B2
    composed = compose_derivations(step1, step2)
    return Derivation(composed.conclusion, "CoproductMacro", (composed,))


class DerivationError(GraphError):
    pass


def verify_derivation(d: Derivation, theory: InjTheory) -> None:
    """Re-check every node: side conditions must hold for the recorded data."""
    if d.rule == "Axiom":
        if not any(
            f.map == d.conclusion.map and f.from_ == d.conclusion.from_
            for f in theory.formulas.values()
        ):
            raise DerivationError("axiom not in the theory")
    elif d.rule == "Identity":
        if d.conclusion.map != identity(d.conclusion.from_.carrier):
            raise DerivationError("identity rule with a non-identity conclusion")
    elif d.rule == "Composition":
        if len(d.premises) != 2:
            raise DerivationError("composition needs two premises")
        f1, f2 = d.premises[0].conclusion, d.premises[1].conclusion
        if f1.then(f2).map != d.conclusion.map:
            raise DerivationError("composition conclusion is not the composite")
    elif d.rule == "Cancellation":
        if len(d.premises) != 1 or d.side is None:
            raise DerivationError("cancellation needs one premise and the second factor")
        if d.conclusion.then(d.side).map != d.premises[0].conclusion.map:
            raise DerivationError("cancellation factorization does not compose")
    elif d.rule == "Pushout":
        if len(d.premises) != 1 or d.side is None:
            raise DerivationError("pushout needs one premise and the pushed-along map")
        f = d.premises[0].conclusion
        if d.side.from_ != f.from_:
            raise DerivationError("pushout span does not share its domain")
        _, _, into_right = slice_pushout(f, d.side)
        if into_right.map != d.conclusion.map or into_right.to != d.conclusion.to:
            raise DerivationError("pushout conclusion is not the computed pushout leg")
    elif d.rule == "CoproductMacro":
        if len(d.premises) != 1:
            raise DerivationError("coproduct macro wraps one derivation")
        if d.premises[0].conclusion.map != d.conclusion.map:
            raise DerivationError("coproduct macro conclusion differs from its script")
    else:
        raise DerivationError(f"unknown rule {d.rule!r}")
    for p in d.premises:
        verify_derivation(p, theory)


# ---------------------------------------------------------------------------
# Bounded entailment search


@dataclass(frozen=True)
class EntailmentResult:
    status: str  # "derivable" | "unknown"
    derivation: Optional[Derivation] = None

    @property
    def derivable(self) -> bool:
        return self.status == "derivable"


def formulas_isomorphic(f: SliceMorphism, g: SliceMorphism) -> bool:
    """Same arrow up to isomorphisms of both endpoints commuting with the maps.

    For each isomorphism a of the domains, the isomorphism b of the
    codomains is searched pinned on the image of f to what a;g forces.
    """
    if f.from_.schema != g.from_.schema:
        return False
    for a in iter_instance_isomorphisms(f.from_, g.from_):
        pins = factorization_pins(f.map, compose(a.map, g.map))
        if pins is None:
            continue
        if next(iter_instance_isomorphisms(f.to, g.to, pins), None) is not None:
            return True
    return False


class FormulaSet:
    """Formulas up to isomorphism.

    Formulas are bucketed by the canonical bytes of both endpoints, which
    isomorphic formulas share; within a bucket `formulas_isomorphic` decides.
    """

    def __init__(self) -> None:
        self._buckets: dict[tuple[bytes, bytes], list[SliceMorphism]] = {}

    def add(self, f: SliceMorphism) -> bool:
        """Add f unless an isomorphic formula is in already; True if added."""
        key = canonicalize_instance(f.from_).bytes, canonicalize_instance(f.to).bytes
        bucket = self._buckets.setdefault(key, [])
        if any(formulas_isomorphic(f, g) for g in bucket):
            return False
        bucket.append(f)
        return True


def bounded_entailment(
    theory: InjTheory,
    goal: SliceMorphism,
    max_depth: int = 3,
    size_bound: int = 6,
    budget: int = 4_000,
) -> EntailmentResult:
    """Breadth-first proof search; returns Derivable with a verified proof,
    or Unknown.  Never claims refutation: Pushout generates unboundedly many
    consequences, so exhausting the bound proves nothing negative.  `budget`
    counts admitted formulas and the morphisms Pushout and Cancellation
    enumerate; what is found within it is still admitted, then the search stops.
    """
    if goal.from_.schema != theory.base:
        raise GraphError("goal lives over a different base")
    max_carrier = max(
        [size_bound]
        + [len(f.to.carrier.nodes) for f in theory.formulas.values()]
        + [len(goal.to.carrier.nodes)]
    ) * 2

    derived: list[Derivation] = []
    conclusions = FormulaSet()
    frontier: list[Derivation] = []
    work = Budget("proof-search", budget)

    def matches_goal(f: SliceMorphism) -> bool:
        return formulas_isomorphic(f, goal)

    def admit(d: Derivation) -> Optional[Derivation]:
        work.spent += 1  # counted, never refused: see the docstring
        if len(d.conclusion.to.carrier.nodes) > max_carrier:
            return None
        if not conclusions.add(d.conclusion):
            return None
        derived.append(d)
        frontier.append(d)
        return d

    objects: list[TypedInstance] = []
    object_bytes: set[bytes] = set()

    def admit_object(t: TypedInstance) -> None:
        key = canonicalize_instance(t).bytes
        if key not in object_bytes:
            object_bytes.add(key)
            objects.append(t)

    for name in theory.formulas:
        d = admit(axiom(theory, name))
        if d is not None and matches_goal(d.conclusion):
            verify_derivation(d, theory)
            return EntailmentResult("derivable", d)
    for f in theory.formulas.values():
        admit_object(f.from_)
        admit_object(f.to)
    admit_object(goal.from_)
    admit_object(goal.to)
    for t in objects:
        d = admit(identity_formula(t))
        if d is not None and matches_goal(d.conclusion):
            verify_derivation(d, theory)
            return EntailmentResult("derivable", d)

    # the coproduct script first: it is the common shape of composite goals
    axioms = [axiom(theory, name) for name in theory.formulas]
    for d1, d2 in itertools.product(axioms, axioms):
        macro = coproduct_macro(d1, d2)
        if matches_goal(macro.conclusion):
            verify_derivation(macro, theory)
            return EntailmentResult("derivable", macro)
        admit(macro)

    for _ in range(max_depth):
        if work.spent > work.limit:
            break
        current = list(frontier)
        frontier.clear()
        candidates: list[Derivation] = []
        known = list(derived)
        for d1 in current:
            for d2 in known:
                if d1.conclusion.to == d2.conclusion.from_:
                    candidates.append(compose_derivations(d1, d2))
                if d2.conclusion.to == d1.conclusion.from_ and d1 is not d2:
                    candidates.append(compose_derivations(d2, d1))
        small = [t for t in objects if len(t.carrier.nodes) <= size_bound]
        try:
            for d1 in current:
                for target in small:
                    for g in iter_slice_morphisms(d1.conclusion.from_, target):
                        work.charge()
                        candidates.append(pushout_derivation(d1, g))
            for dh in current:
                for mid in small:
                    for f1 in iter_slice_morphisms(dh.conclusion.from_, mid):
                        for f2 in iter_slice_morphisms(mid, dh.conclusion.to):
                            work.charge()
                            if f1.then(f2).map == dh.conclusion.map:
                                candidates.append(cancel_derivation(dh, f1, f2))
        except BoundExceeded:
            pass  # the depth loop stops once these candidates are admitted
        for c in candidates:
            d = admit(c)
            if d is None:
                continue
            admit_object(d.conclusion.to)
            if matches_goal(d.conclusion):
                verify_derivation(d, theory)
                return EntailmentResult("derivable", d)
    return EntailmentResult("unknown")
