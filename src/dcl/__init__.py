"""Diagram constraint logic over finite directed multigraphs.

Sketches (schemas with diagrammatic constraints), pullback-based
satisfaction with evidence, schema migration, and the injectivity
inference calculus.
"""

from dcl.graphs import (
    Arrow,
    Graph,
    GraphError,
    GraphMorphism,
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
    canonical_bytes,
    compose_delta,
    delta_of,
    from_indexed,
    identity_delta,
    restrict,
    to_indexed,
)
from dcl.signature import ConstraintSymbol, Dependency, Signature
from dcl.sketch import ConstraintDeclaration, Sketch, close_sketch
from dcl.satisfaction import satisfies, validate_instance
from dcl.verdicts import Evidence, Status, ValidationReport, Verdict

__all__ = [
    "Arrow",
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
    "SliceMorphism",
    "Status",
    "TypedInstance",
    "ValidationReport",
    "Verdict",
    "canonical_bytes",
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
