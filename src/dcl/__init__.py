"""Diagram constraint logic over finite directed multigraphs.

Sketches (schemas with diagrammatic constraints), pullback-based
satisfaction with evidence, schema migration, and the injectivity
inference calculus.
"""

from dcl.graphs import (
    Arrow,
    CanonicalForm,
    Graph,
    GraphError,
    GraphMorphism,
    canonical_bytes,
    canonicalize,
    compose,
    find_isomorphism,
    identity,
    pullback,
    pushout,
)
from dcl.instances import (
    Delta,
    IndexedSemantics,
    SliceMorphism,
    TypedInstance,
    compose_delta,
    delta_of,
    from_indexed,
    identity_delta,
    restrict,
    to_indexed,
)
from dcl.signature import ConstraintSymbol, Dependency, Signature
from dcl.sketch import ConstraintDeclaration, Sketch, SketchMorphism, close_sketch
from dcl.satisfaction import satisfies, validate_instance
from dcl.verdicts import Evidence, Status, ValidationReport, Verdict

__all__ = [
    "Arrow",
    "CanonicalForm",
    "ConstraintDeclaration",
    "ConstraintSymbol",
    "Delta",
    "Dependency",
    "Evidence",
    "Graph",
    "GraphError",
    "GraphMorphism",
    "IndexedSemantics",
    "Signature",
    "Sketch",
    "SketchMorphism",
    "SliceMorphism",
    "Status",
    "TypedInstance",
    "ValidationReport",
    "Verdict",
    "canonical_bytes",
    "canonicalize",
    "close_sketch",
    "compose",
    "compose_delta",
    "delta_of",
    "find_isomorphism",
    "from_indexed",
    "identity",
    "identity_delta",
    "pullback",
    "pushout",
    "restrict",
    "satisfies",
    "to_indexed",
    "validate_instance",
]

__version__ = "0.1.0"
