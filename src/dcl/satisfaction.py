"""Pullback-based satisfaction with evidence, migration, and the Sat-axiom harness.

Instances migrate contravariantly (pullback along the schema morphism),
declarations covariantly (binding composition); the Sat-axiom harness
checks that the two directions agree verdict-for-verdict with canonically
equal evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from dcl.graphs import GraphError, GraphMorphism, _trusted, pair_id
from dcl.instances import (
    Delta,
    SliceMorphism,
    TypedInstance,
    _canonical_delta,
    restrict,
    restrict_with_projection,
)
from dcl.signature import Dependency, Signature, evaluate
from dcl.sketch import (
    ConstraintDeclaration,
    Sketch,
    SketchError,
    SketchMorphism,
    close_sketch,
    consequence,
    translate_declaration,
)
from dcl.verdicts import Status, ValidationReport, Verdict


def satisfies(t: TypedInstance, d: ConstraintDeclaration, signature: Signature) -> Verdict:
    """Decide the symbol on t restricted along the binding, as `evaluate` does."""
    symbol = signature.symbols.get(d.label)
    if symbol is None:
        raise GraphError(f"satisfies: unknown symbol {d.label!r}")
    return evaluate(symbol, t, d.binding).with_declaration(d.id)


def validate_instance(
    sketch: Sketch,
    t: TypedInstance,
    instance_name: str = "instance",
    allow_unclosed: bool = False,
) -> ValidationReport:
    """Evaluate every declaration; overall is the Unknown-poisoning conjunction."""
    if t.schema != sketch.carrier:
        raise GraphError("validate_instance: instance schema is not the sketch carrier")
    added = [] if allow_unclosed else close_sketch(sketch).declarations[len(sketch.declarations) :]
    if added:
        missing = sorted(d.id for d in added)
        raise SketchError(f"sketch {sketch.name!r} is not dependency-closed; missing: {missing}")
    # every declaration restricts one grouping of t, held by a copy: t holds none
    grouped = _trusted(TypedInstance, t.typing, t.fibres)
    verdicts = tuple(satisfies(grouped, d, sketch.signature) for d in sketch.declarations)
    return ValidationReport(sketch.name, instance_name, verdicts)


# ---------------------------------------------------------------------------
# Sat-axiom harness


@dataclass(frozen=True)
class SatAxiomResult:
    passed: bool
    reduct_side: Verdict  # f*(t) against d
    translated_side: Verdict  # t against f-pushed d
    detail: Optional[str] = None


def verify_sat_axiom(
    f: GraphMorphism,
    d: ConstraintDeclaration,
    t: TypedInstance,
    signature: Signature,
    translate: Callable[
        [GraphMorphism, ConstraintDeclaration], ConstraintDeclaration
    ] = translate_declaration,
) -> SatAxiomResult:
    """f*(t) satisfies d iff t satisfies the f-translated d, with equal evidence.

    The translate hook exists for fault injection in tests; the default is
    the real covariant translation.
    """
    if d.binding.cod != f.dom or t.schema != f.cod:
        raise GraphError("verify_sat_axiom: triple endpoints do not match")
    # both sides restrict one grouping of t, held by a copy: t holds none
    grouped = _trusted(TypedInstance, t.typing, t.fibres)
    reduct_side = satisfies(restrict(grouped, f), d, signature)
    translated_side = satisfies(grouped, translate(f, d), signature)
    if reduct_side.status != translated_side.status:
        return SatAxiomResult(
            False, reduct_side, translated_side, "verdict statuses differ"
        )
    # canonical instances: equal as values exactly when their bytes are equal
    if reduct_side.is_valid and (
        reduct_side.evidence.restricted != translated_side.evidence.restricted
    ):
        return SatAxiomResult(False, reduct_side, translated_side, "evidence bytes differ")
    return SatAxiomResult(True, reduct_side, translated_side)


# ---------------------------------------------------------------------------
# Evidence propagation and report transfer


def propagate_evidence(v: Verdict, dep: Dependency, sketch: Sketch) -> Verdict:
    """Lift a Valid verdict for (c, b) in the closed `sketch` to the contributed
    (c', arity_map;b), named after the declaration `consequence` finds holding it.

    The evidence instance is restricted along the dependency's arity map and
    the witness re-extracted; the underlying instance is untouched.
    """
    if not v.is_valid:
        raise GraphError("propagate_evidence: nothing to lift from a non-Valid verdict")
    try:
        d = sketch.declaration(v.declaration)
    except KeyError:
        raise GraphError(f"propagate_evidence: no declaration {v.declaration!r} in the sketch")
    if dep not in sketch.signature.dependencies_of(d.label):
        raise GraphError(f"propagate_evidence: {dep.id!r} is no dependency of {d.label!r}")
    holder = consequence(sketch.declarations, d, dep)
    if holder is None:
        raise GraphError(f"propagate_evidence: sketch {sketch.name!r} is not closed")
    target = sketch.signature.symbols[dep.target]
    return evaluate(target, v.evidence.restricted, dep.arity_map).with_declaration(holder.id)


def reduct_sketch_instance(
    f: SketchMorphism, t: TypedInstance, report: ValidationReport
) -> tuple[TypedInstance, ValidationReport]:
    """Transfer a valid target report along a sketch morphism without re-evaluation.

    By the Sat-axiom and binding coherence, the verdict of decl_map(d) on t
    is exactly the verdict of d on the reduct, evidence bytes included.
    """
    if report.overall is not Status.VALID:
        raise GraphError("reduct_sketch_instance: target report is not all-Valid")
    reduct = restrict(t, f.graph_map)
    verdicts = []
    for d in f.from_.declarations:
        image_id = f.decl_map.get(d.id)
        if image_id is None:
            raise GraphError(f"reduct_sketch_instance: no image for {d.id!r}")
        verdicts.append(Verdict(report.verdict_for(image_id).evidence, declaration=d.id))
    return reduct, ValidationReport(f.from_.name, report.instance, tuple(verdicts))


# ---------------------------------------------------------------------------
# Delta migration


def pullback_delta(f: GraphMorphism, d: Delta) -> Delta:
    """Pull a whole update span back along a schema morphism.

    Endpoints and apex restrict by pullback; the legs are the induced maps
    (x, g) -> (leg(x), g) on pullback pairs.
    """
    if d.source.schema != f.cod:
        raise GraphError("pullback_delta: delta lives over a different schema")
    apex, projection = restrict_with_projection(d.apex, f)

    def induced(leg: SliceMorphism) -> SliceMorphism:
        end = restrict(leg.to, f)
        # a pair (x|g) of the apex projects to x and is typed by g
        node_map = {
            pair: pair_id(leg.map.node_map[x], apex.typing.node_map[pair])
            for pair, x in projection.node_map.items()
        }
        arrow_map = {
            pair: pair_id(leg.map.arrow_map[x], apex.typing.arrow_map[pair])
            for pair, x in projection.arrow_map.items()
        }
        m = _trusted(GraphMorphism, apex.carrier, end.carrier, node_map, arrow_map)
        return _trusted(SliceMorphism, apex, end, m)

    return _canonical_delta(_trusted(Delta, induced(d.left), induced(d.right)))
