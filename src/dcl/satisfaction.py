"""Pullback-based satisfaction with evidence, its propagation, and the Sat-axiom harness.

Instances migrate contravariantly (pullback along the schema morphism),
declarations covariantly (binding composition); the Sat-axiom harness
checks that the two directions agree verdict-for-verdict with canonically
equal evidence, so a reduct's report is `validate_instance` of the reduct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from dcl.graphs import GraphError, GraphMorphism
from dcl.instances import TypedInstance, restrict
from dcl.signature import Dependency, Signature, decide_numbered, evaluate, numbering
from dcl.sketch import (
    ConstraintDeclaration,
    Sketch,
    SketchError,
    close_sketch,
    consequence,
    translate_declaration,
)
from dcl.verdicts import ValidationReport, Verdict


def satisfies(t: TypedInstance, d: ConstraintDeclaration, signature: Signature) -> Verdict:
    """Decide the symbol on t restricted along the binding, as `evaluate` does."""
    return decide_numbered(*_numbered(t, d, signature)).with_declaration(d.id)


def _numbered(t: TypedInstance, d: ConstraintDeclaration, signature: Signature) -> tuple:
    """(symbol, names, links): d's symbol and t numbered along d's binding."""
    symbol = signature.symbols.get(d.label)
    if symbol is None:
        raise GraphError(f"satisfies: unknown symbol {d.label!r}")
    return symbol, *numbering(symbol, t, d.binding)


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
    grouped = t.with_fibres()  # every declaration restricts this one grouping of t
    verdicts = tuple(satisfies(grouped, d, sketch.signature) for d in sketch.declarations)
    return ValidationReport(sketch.name, instance_name, verdicts)


# ---------------------------------------------------------------------------
# Sat-axiom harness


@dataclass(frozen=True)
class SatAxiomResult:
    reduct_side: Verdict  # f*(t) against d
    translated_side: Verdict  # t against f-pushed d
    detail: Optional[str] = None  # failed: how the sides differ

    @property
    def passed(self) -> bool:
        return self.detail is None


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

    When both sides number alike (pullback pasting), one decision serves both.
    The translate hook exists for fault injection in tests; the default is
    the real covariant translation.
    """
    if d.binding.cod != f.dom or t.schema != f.cod:
        raise GraphError("verify_sat_axiom: triple endpoints do not match")
    grouped = t.with_fibres()  # both sides restrict this one grouping of t
    reduct, pushed = _numbered(restrict(grouped, f), d, signature), translate(f, d)
    translated = _numbered(grouped, pushed, signature)
    reduct_side = decide_numbered(*reduct).with_declaration(d.id)
    shared = reduct_side if translated == reduct else decide_numbered(*translated)
    translated_side = shared.with_declaration(pushed.id)
    if reduct_side.status != translated_side.status:
        return SatAxiomResult(reduct_side, translated_side, "verdict statuses differ")
    # canonical instances: equal as values exactly when their bytes are equal
    if reduct_side.is_valid and (
        reduct_side.evidence.restricted != translated_side.evidence.restricted
    ):
        return SatAxiomResult(reduct_side, translated_side, "evidence bytes differ")
    return SatAxiomResult(reduct_side, translated_side)


# ---------------------------------------------------------------------------
# Evidence propagation


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
