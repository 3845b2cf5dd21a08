"""Sketches: carrier graphs with labelled constraint declarations.

A declaration attaches a constraint symbol to the carrier through a
binding (arity -> carrier).  Sketches close under signature dependencies,
translate covariantly along carrier morphisms, and map to each other by
sketch morphisms (graph map + explicit declaration map).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from dcl.graphs import Graph, GraphError, GraphMorphism, compose
from dcl.signature import (
    Multiplicity,
    Signature,
    multiplicity_symbol,
)


class SketchError(GraphError):
    pass


@dataclass(frozen=True)
class ConstraintDeclaration:
    id: str
    label: str  # constraint symbol name
    binding: GraphMorphism  # arity of label -> sketch carrier

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Sketch:
    name: str
    carrier: Graph
    signature: Signature
    declarations: tuple[ConstraintDeclaration, ...] = ()

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "declarations", tuple(self.declarations))
        ids = [d.id for d in self.declarations]
        if len(ids) != len(set(ids)):
            raise SketchError("duplicate declaration ids")
        for d in self.declarations:
            symbol = self.signature.symbols.get(d.label)
            if symbol is None:
                raise SketchError(f"declaration {d.id!r}: unknown symbol {d.label!r}")
            if d.binding.dom != symbol.arity:
                raise SketchError(f"declaration {d.id!r}: binding domain is not the arity")
            if d.binding.cod != self.carrier:
                raise SketchError(
                    f"declaration {d.id!r}: binding codomain is not the carrier"
                )

    def declaration(self, declaration_id: str) -> ConstraintDeclaration:
        for d in self.declarations:
            if d.id == declaration_id:
                return d
        raise KeyError(declaration_id)


def _has_declaration(
    declarations: Iterable[ConstraintDeclaration], label: str, binding: GraphMorphism
) -> bool:
    return any(d.label == label and d.binding == binding for d in declarations)


def is_closed(sketch: Sketch) -> bool:
    for d in sketch.declarations:
        for dep in sketch.signature.dependencies_of(d.label):
            binding = compose(dep.arity_map, d.binding)
            if not _has_declaration(sketch.declarations, dep.target, binding):
                return False
    return True


def close_sketch(sketch: Sketch) -> Sketch:
    """Least extension of the declarations closed under all dependencies.

    New ids are "<parent-id>/<dependency-id>".  Terminates because the
    dependency graph on symbols is acyclic; idempotent because dependency
    consequences already present are never re-added.
    """
    declarations = list(sketch.declarations)
    frontier = list(sketch.declarations)
    while frontier:
        d = frontier.pop(0)
        for dep in sketch.signature.dependencies_of(d.label):
            if dep.is_identity:
                continue
            binding = compose(dep.arity_map, d.binding)
            if _has_declaration(declarations, dep.target, binding):
                continue
            new = ConstraintDeclaration(f"{d.id}/{dep.id}", dep.target, binding)
            declarations.append(new)
            frontier.append(new)
    return Sketch(sketch.name, sketch.carrier, sketch.signature, tuple(declarations))


# ---------------------------------------------------------------------------
# Covariant translation


def translate_declaration(
    f: GraphMorphism, d: ConstraintDeclaration, new_id: Optional[str] = None
) -> ConstraintDeclaration:
    """Push a declaration forward along a carrier morphism: compose the binding."""
    if d.binding.cod != f.dom:
        raise SketchError("translate_declaration: binding does not land in f's domain")
    return ConstraintDeclaration(new_id if new_id is not None else d.id, d.label, compose(d.binding, f))


def translate_sketch(f: GraphMorphism, sketch: Sketch, name: Optional[str] = None) -> Sketch:
    if sketch.carrier != f.dom:
        raise SketchError("translate_sketch: carrier is not f's domain")
    return Sketch(
        name if name is not None else sketch.name,
        f.cod,
        sketch.signature,
        tuple(translate_declaration(f, d) for d in sketch.declarations),
    )


# ---------------------------------------------------------------------------
# Sketch morphisms


@dataclass(frozen=True)
class SketchMorphism:
    from_: Sketch
    to: Sketch
    graph_map: GraphMorphism
    decl_map: Mapping[str, str]

    __hash__ = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "decl_map", dict(sorted(self.decl_map.items())))
        if self.graph_map.dom != self.from_.carrier or self.graph_map.cod != self.to.carrier:
            raise SketchError("sketch morphism graph map has wrong endpoints")

    def then(self, other: "SketchMorphism") -> "SketchMorphism":
        if self.to is not other.from_ and self.to != other.from_:
            raise SketchError("cannot compose sketch morphisms: endpoints differ")
        return SketchMorphism(
            self.from_,
            other.to,
            compose(self.graph_map, other.graph_map),
            {d: other.decl_map[i] for d, i in self.decl_map.items()},
        )

    @classmethod
    def identity(cls, sketch: Sketch) -> "SketchMorphism":
        from dcl.graphs import identity as graph_identity

        return cls(
            sketch,
            sketch,
            graph_identity(sketch.carrier),
            {d.id: d.id for d in sketch.declarations},
        )


@dataclass(frozen=True)
class SketchMorphismReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_sketch_morphism(f: SketchMorphism) -> SketchMorphismReport:
    """Verify totality, label preservation, and binding coherence per declaration."""
    violations = []
    for d in f.from_.declarations:
        image_id = f.decl_map.get(d.id)
        if image_id is None:
            violations.append(f"declaration {d.id!r} has no image (decl_map not total)")
            continue
        try:
            image = f.to.declaration(image_id)
        except KeyError:
            violations.append(f"declaration {d.id!r} maps to unknown id {image_id!r}")
            continue
        if image.label != d.label:
            violations.append(
                f"declaration {d.id!r}: label {d.label!r} mapped to {image.label!r}"
            )
            continue
        if image.binding != compose(d.binding, f.graph_map):
            violations.append(f"declaration {d.id!r}: binding does not commute")
    return SketchMorphismReport(tuple(violations))


# ---------------------------------------------------------------------------
# Default multiplicities


DEFAULT_ASSOCIATION = multiplicity_symbol([(1, None)])  # [1..*]
DEFAULT_ATTRIBUTE = multiplicity_symbol([(1, 1)])  # [1]
UNCONSTRAINED = multiplicity_symbol([(0, None)])  # [0..*]


def elaborate_defaults(
    sketch: Sketch, associations: Iterable[str], attributes: Iterable[str]
) -> Sketch:
    """Fill in default multiplicities for carrier arrows without any.

    Association arrows default to [1..*], attribute arrows to [1].  Any
    existing multiplicity declaration on the arrow, including an explicit
    [0..*], suppresses the default.  Every carrier arrow must be classified.
    """
    associations = set(associations)
    attributes = set(attributes)
    overlap = associations & attributes
    if overlap:
        raise SketchError(f"arrows in both partitions: {sorted(overlap)}")
    unclassified = {a.id for a in sketch.carrier.arrows} - associations - attributes
    if unclassified:
        raise SketchError(f"unclassified arrows: {sorted(unclassified)}")

    constrained = set()
    for d in sketch.declarations:
        symbol = sketch.signature.symbols[d.label]
        if isinstance(symbol.semantics, Multiplicity):
            constrained.update(d.binding.arrow_map.values())

    symbols = dict(sketch.signature.symbols)
    for symbol in (DEFAULT_ASSOCIATION, DEFAULT_ATTRIBUTE):
        existing = symbols.get(symbol.name)
        if existing is not None and existing.semantics != symbol.semantics:
            raise SketchError(f"signature already uses the name {symbol.name!r}")
        symbols[symbol.name] = symbol
    signature = Signature(symbols, sketch.signature.dependencies)

    declarations = [
        ConstraintDeclaration(d.id, d.label, d.binding) for d in sketch.declarations
    ]
    for arrow in sketch.carrier.sorted_arrows:
        if arrow.id in constrained:
            continue
        symbol = DEFAULT_ASSOCIATION if arrow.id in associations else DEFAULT_ATTRIBUTE
        binding = GraphMorphism(
            symbol.arity,
            sketch.carrier,
            {"A": arrow.src, "B": arrow.tgt},
            {"r": arrow.id},
        )
        declarations.append(
            ConstraintDeclaration(f"default/{arrow.id}", symbol.name, binding)
        )
    return Sketch(sketch.name, sketch.carrier, signature, tuple(declarations))
