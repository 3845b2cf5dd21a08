"""Pullback-based satisfaction with evidence, migration, and the Sat-axiom harness.

Instances migrate contravariantly (pullback along the schema morphism),
declarations covariantly (binding composition); the Sat-axiom harness
checks that the two directions agree verdict-for-verdict with canonically
equal evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from dcl.graphs import GraphError, GraphMorphism, pair_id
from dcl.instances import (
    Delta,
    SliceMorphism,
    TypedInstance,
    _canonical_delta,
    restrict,
    restrict_with_projection,
    serialize_instance,
)
from dcl.signature import Dependency, Signature, evaluate
from dcl.sketch import (
    ConstraintDeclaration,
    Sketch,
    SketchError,
    SketchMorphism,
    close_sketch,
    is_closed,
    translate_declaration,
)
from dcl.verdicts import Evidence, Status, ValidationReport, Verdict


def satisfies(
    t: TypedInstance, d: ConstraintDeclaration, signature: Signature
) -> Verdict:
    """Restrict t along the declaration's binding and run the symbol semantics."""
    if t.schema != d.binding.cod:
        raise GraphError("satisfies: instance schema differs from the binding codomain")
    symbol = signature.symbols.get(d.label)
    if symbol is None:
        raise GraphError(f"satisfies: unknown symbol {d.label!r}")
    restricted = restrict(t, d.binding)
    return evaluate(symbol, restricted).with_declaration(d.id)


def validate_instance(
    sketch: Sketch,
    t: TypedInstance,
    instance_name: str = "instance",
    allow_unclosed: bool = False,
) -> ValidationReport:
    """Evaluate every declaration; overall is the Unknown-poisoning conjunction."""
    if t.schema != sketch.carrier:
        raise GraphError("validate_instance: instance schema is not the sketch carrier")
    if not allow_unclosed and not is_closed(sketch):
        closed = close_sketch(sketch)
        missing = sorted(
            d.id for d in closed.declarations[len(sketch.declarations) :]
        )
        raise SketchError(
            f"sketch {sketch.name!r} is not dependency-closed; missing: {missing}"
        )
    verdicts = tuple(satisfies(t, d, sketch.signature) for d in sketch.declarations)
    return ValidationReport(sketch.name, instance_name, verdicts)


def migrate_instance(f: GraphMorphism, t: TypedInstance) -> TypedInstance:
    """Model reduct: pull the instance back along the schema morphism."""
    if t.schema != f.cod:
        raise GraphError("migrate_instance: schema differs from the morphism codomain")
    return restrict(t, f)


# ---------------------------------------------------------------------------
# Sat-axiom harness


@dataclass(frozen=True)
class SatAxiomResult:
    passed: bool
    reduct_side: Verdict  # f*(t) against d
    translated_side: Verdict  # t against f-pushed d
    detail: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "reduct_side": self.reduct_side.to_json(),
            "translated_side": self.translated_side.to_json(),
            "detail": self.detail,
        }


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
    reduct_side = satisfies(migrate_instance(f, t), d, signature)
    translated_side = satisfies(t, translate(f, d), signature)
    if reduct_side.status != translated_side.status:
        return SatAxiomResult(
            False, reduct_side, translated_side, "verdict statuses differ"
        )
    if reduct_side.is_valid:
        left = serialize_instance(reduct_side.evidence.restricted)
        right = serialize_instance(translated_side.evidence.restricted)
        if left != right:
            return SatAxiomResult(
                False, reduct_side, translated_side, "evidence bytes differ"
            )
    return SatAxiomResult(True, reduct_side, translated_side)


# ---------------------------------------------------------------------------
# Evidence propagation and report transfer


def propagate_evidence(
    v: Verdict, dep: Dependency, signature: Signature
) -> Verdict:
    """Lift a Valid verdict for (c, b) to the contributed (c', arity_map;b).

    The evidence instance is restricted along the dependency's arity map and
    the witness re-extracted; the underlying instance is untouched.
    """
    if not v.is_valid:
        raise GraphError("propagate_evidence: nothing to lift from a non-Valid verdict")
    if dep.id not in {x.id for x in signature.dependencies}:
        raise GraphError(f"propagate_evidence: unregistered dependency {dep.id!r}")
    target = signature.symbols[dep.target]
    restricted = restrict(v.evidence.restricted, dep.arity_map)
    out = evaluate(target, restricted)
    if v.declaration is not None:
        suffix = "" if dep.is_identity else f"/{dep.id}"
        out = out.with_declaration(f"{v.declaration}{suffix}")
    return out


def reduct_sketch_instance(
    f: SketchMorphism, t: TypedInstance, report: ValidationReport
) -> tuple[TypedInstance, ValidationReport]:
    """Transfer a valid target report along a sketch morphism without re-evaluation.

    By the Sat-axiom and binding coherence, the verdict of decl_map(d) on t
    is exactly the verdict of d on the reduct, evidence bytes included.
    """
    if report.overall is not Status.VALID:
        raise GraphError("reduct_sketch_instance: target report is not all-Valid")
    reduct = migrate_instance(f.graph_map, t)
    verdicts = []
    for d in f.from_.declarations:
        image_id = f.decl_map.get(d.id)
        if image_id is None:
            raise GraphError(f"reduct_sketch_instance: no image for {d.id!r}")
        source = report.verdict_for(image_id)
        verdicts.append(
            Verdict(
                source.status,
                Evidence(source.evidence.restricted, source.evidence.witness, d.id),
                declaration=d.id,
            )
        )
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
    source = restrict(d.source, f)
    target = restrict(d.target, f)
    apex, projection = restrict_with_projection(d.apex, f)

    def induced(leg_map: GraphMorphism, into: TypedInstance) -> GraphMorphism:
        # a pair (x|g) of the apex projects to x and is typed by g
        node_map = {
            pair: pair_id(leg_map.node_map[x], apex.typing.node_map[pair])
            for pair, x in projection.node_map.items()
        }
        arrow_map = {
            pair: pair_id(leg_map.arrow_map[x], apex.typing.arrow_map[pair])
            for pair, x in projection.arrow_map.items()
        }
        return GraphMorphism(apex.carrier, into.carrier, node_map, arrow_map)

    left = SliceMorphism(apex, source, induced(d.left.map, source))
    right = SliceMorphism(apex, target, induced(d.right.map, target))
    return _canonical_delta(Delta(source, target, apex, left, right))
