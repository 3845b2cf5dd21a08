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
from typing import Iterable, Mapping, Optional

from dcl.graphs import (
    BoundExceeded,
    Budget,
    Graph,
    GraphError,
    _trusted,
    identity,
    pushout,
)
from dcl.instances import (
    SliceMorphism,
    TypedInstance,
    _diagram_key,
    _iter_classes,
    _named,
    _trusted_instance,
    iter_factorizations,
    iter_slice_morphisms,
)
from dcl.signature import DEFAULT_SEARCH_LIMIT, MODEL_SWEEP_LIMIT, Regular, _printed_class
from dcl.verdicts import Status, Verdict

# units one `bounded_entailment` call may spend: formulas considered, maps and factorizations
PROOF_SEARCH_LIMIT = 4_000


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
    """Refuted with a countermodel, else Unknown with a detail, else entailed."""

    models_checked: int
    counterexample: Optional[TypedInstance] = None
    detail: Optional[str] = None  # Unknown: the bound hit, or the first Unknown verdict's detail

    @property
    def status(self) -> str:
        if self.counterexample is not None:
            return "refuted"
        return "entailed" if self.detail is None else "unknown"

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

    Exhaustive over instances with at most size_bound elements per base node and
    max_parallel parallel links, one per isomorphism class, each checked on its own
    numbering (`_named`).  Each formula and the goal are checked as `Regular` specs,
    planned once per sweep.  A countermodel is returned in canonical form, or as
    enumerated when that form spends its bound.  The sweep spends a `model-sweep`
    budget of MODEL_SWEEP_LIMIT units, a unit per count vector visited and per class
    decided; past it the result is Unknown, naming the bound.  A goal over another
    base is refused, as `bounded_entailment` refuses it.
    """
    if goal.from_.schema != theory.base:
        raise GraphError("goal lives over a different base")
    base = theory.base
    formulas = [Regular(f, limit) for f in theory.formulas.values()]
    wanted = Regular(goal, limit)
    checked = 0
    unknown: Optional[Verdict] = None
    budget = Budget("model-sweep", MODEL_SWEEP_LIMIT)
    try:
        for names, links, labelled in _iter_classes(base, size_bound, max_parallel, budget):
            model = _named(names, links, base)
            for f in formulas:
                verdict = f.decide(model)
                if verdict.status is not Status.VALID:
                    break
            else:
                checked += 1
                verdict = wanted.decide(model)
                if verdict.status is Status.INVALID:
                    return SemanticResult(checked, _printed_class(names, links, base, labelled))
            if unknown is None and verdict.status is Status.UNKNOWN:
                unknown = verdict
    except BoundExceeded as exc:  # only the sweep's own bound escapes a decision
        return SemanticResult(checked, detail=str(exc))
    if unknown is not None:
        return SemanticResult(checked, detail=unknown.detail)
    return SemanticResult(checked)


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
    for into, leg in ((into_left, f), (into_right, g)):
        for n, cls in into.node_map.items():
            node_typing[cls] = leg.to.typing.node_map[n]
        for a, cls in into.arrow_map.items():
            arrow_typing[cls] = leg.to.typing.arrow_map[a]
    apex = _trusted_instance(f.from_.schema, node_typing, p_graph.arrows, arrow_typing)
    return (
        apex,
        _trusted(SliceMorphism, f.to, apex, into_left),
        _trusted(SliceMorphism, g.to, apex, into_right),
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
    empty = TypedInstance.empty(f1.from_.schema)
    # the one map out of the empty instance into each domain
    bang1, bang2 = (next(iter_slice_morphisms(empty, f.from_)) for f in (f1, f2))
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
    """Derivable with a verified derivation, else Unknown with a detail."""

    derivation: Optional[Derivation] = None
    detail: Optional[str] = None  # Unknown: the bound that ended the search

    @property
    def derivable(self) -> bool:
        return self.derivation is not None

    @property
    def status(self) -> str:
        return "derivable" if self.derivable else "unknown"

    def to_json(self) -> dict:
        held = {"proof": self.derivation.to_json()} if self.derivable else {"detail": self.detail}
        return {"status": self.status, **held}


def _formula_key(f: SliceMorphism) -> tuple:
    """The diagram key of f: S -> Q, equal for two formulas over one base
    exactly when they are isomorphic.  S, Q and f are canonicalized as one
    graph, as canonical forms of S and Q found apart can differ by an
    automorphism."""
    return _diagram_key([(f.from_, False), (f.to, False)], [(0, 1, f.map)])


def formulas_isomorphic(f: SliceMorphism, g: SliceMorphism) -> bool:
    """Same arrow up to isomorphisms of both endpoints commuting with the maps.
    Raises BoundExceeded where `_diagram_key` does."""
    return f.from_.schema == g.from_.schema and _formula_key(f) == _formula_key(g)


def _one_step(
    current: list[Derivation],
    known: list[Derivation],
    small: list[TypedInstance],
    work: Budget,
) -> list[Derivation]:
    """Composition, Pushout and Cancellation applied once to `current`:
    composites with the `known` formulas, pushouts along maps into the
    `small` objects, and cancellations through them.  Pushout charges `work`
    one unit per map it pushes along, Cancellation one per first factor and
    one per factorization; the step ends where `work` runs out.
    """
    candidates: list[Derivation] = []
    for d1 in current:
        for d2 in known:
            if d1.conclusion.to == d2.conclusion.from_:
                candidates.append(compose_derivations(d1, d2))
            if d2.conclusion.to == d1.conclusion.from_ and d1 is not d2:
                candidates.append(compose_derivations(d2, d1))
    try:
        for d1 in current:
            for target in small:
                for g in iter_slice_morphisms(d1.conclusion.from_, target):
                    work.charge()
                    candidates.append(pushout_derivation(d1, g))
        for dh in current:
            h = dh.conclusion
            for mid in small:
                for f1 in iter_slice_morphisms(h.from_, mid):
                    work.charge()
                    for f2 in iter_factorizations(f1, h.map, h.to):
                        work.charge()
                        candidates.append(cancel_derivation(dh, f1, f2))
    except BoundExceeded:
        pass  # what was found is still admitted; then the search stops
    return candidates


def bounded_entailment(
    theory: InjTheory,
    goal: SliceMorphism,
    max_depth: int = 3,
    size_bound: int = 6,
) -> EntailmentResult:
    """Breadth-first proof search; returns Derivable with a verified proof,
    or Unknown with a detail naming the bound that ended the search: its own
    budget, its depth, or the canonical form of a formula or object.  Never
    claims refutation: Pushout generates unboundedly many consequences, so
    exhausting the bound proves nothing negative.  PROOF_SEARCH_LIMIT counts
    admitted formulas and the work of each step (see `_one_step`); what is
    found within it is still admitted, then the search stops.
    """
    if goal.from_.schema != theory.base:
        raise GraphError("goal lives over a different base")
    max_carrier = max(
        [size_bound]
        + [len(f.to.carrier.nodes) for f in theory.formulas.values()]
        + [len(goal.to.carrier.nodes)]
    ) * 2

    derived: list[Derivation] = []
    conclusions: set[tuple] = set()  # formula keys
    frontier: list[Derivation] = []
    work = Budget("proof-search", PROOF_SEARCH_LIMIT)
    objects: dict[tuple, TypedInstance] = {}  # by diagram key, first come

    def admit_objects(ts: Iterable[TypedInstance]) -> None:
        for t in ts:
            objects.setdefault(_diagram_key([(t, False)], []), t)

    def proof_among(candidates: Iterable[Derivation]) -> Optional[Derivation]:
        """Admit the candidates in order; the first admitted one that
        matches the goal, verified, or None."""
        for d in candidates:
            work.spent += 1  # counted, never refused: see the docstring
            if len(d.conclusion.to.carrier.nodes) > max_carrier:
                continue
            key = _formula_key(d.conclusion)
            if key in conclusions:
                continue
            conclusions.add(key)
            derived.append(d)
            frontier.append(d)
            if key == goal_key:
                verify_derivation(d, theory)
                return d
        return None

    axioms = [axiom(theory, name) for name in theory.formulas]
    try:
        goal_key = _formula_key(goal)
        proof = proof_among(axioms)
        if proof is None:
            admit_objects(t for f in [*theory.formulas.values(), goal] for t in (f.from_, f.to))
            proof = proof_among(identity_formula(t) for t in objects.values())
        if proof is None:
            # the coproduct script first: it is the common shape of composite goals
            products = itertools.product(axioms, axioms)
            proof = proof_among(coproduct_macro(d1, d2) for d1, d2 in products)
        for _ in range(max_depth):
            if proof is not None or work.spent > work.limit:
                break
            current = list(frontier)
            frontier.clear()
            small = [t for t in objects.values() if len(t.carrier.nodes) <= size_bound]
            proof = proof_among(_one_step(current, derived, small, work))
            admit_objects(d.conclusion.to for d in frontier)
    except BoundExceeded as exc:
        # the canonical form of a formula's endpoint or of an object spent its bound
        return EntailmentResult(detail=str(exc))
    if proof is not None:
        return EntailmentResult(proof)
    if work.spent > work.limit:
        return EntailmentResult(detail=str(work.exceeded()))
    return EntailmentResult(detail=f"depth bound {max_depth} reached: {work.usage}")
