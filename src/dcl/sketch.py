"""Sketches: carrier graphs with labelled constraint declarations.

A declaration attaches a constraint symbol to the carrier through a
binding (arity -> carrier).  Sketches close under signature dependencies
and translate covariantly along carrier morphisms; instances move the other
way, by `dcl.instances.restrict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from dcl.graphs import Graph, GraphError, GraphMorphism, compose
from dcl.signature import Dependency, Signature


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


def consequence(
    declarations: Iterable[ConstraintDeclaration], d: ConstraintDeclaration, dep: Dependency
) -> Optional[ConstraintDeclaration]:
    """The first declaration holding d's consequence along dep (d for an identity), or None."""
    if dep.is_identity:
        return d
    binding = compose(dep.arity_map, d.binding)
    return next((x for x in declarations if x.label == dep.target and x.binding == binding), None)


def is_closed(sketch: Sketch) -> bool:
    return len(close_sketch(sketch).declarations) == len(sketch.declarations)


def close_sketch(sketch: Sketch) -> Sketch:
    """Least extension of the declarations closed under all dependencies.

    New ids are "<parent-id>/<dependency-id>", with a prime (') appended
    while a declaration already holds the id.  Terminates because the
    dependency graph on symbols is acyclic; idempotent because dependency
    consequences already present are never re-added.
    """
    declarations = list(sketch.declarations)
    frontier = list(sketch.declarations)
    while frontier:
        d = frontier.pop(0)
        for dep in sketch.signature.dependencies_of(d.label):
            if consequence(declarations, d, dep) is not None:
                continue
            new_id = f"{d.id}/{dep.id}"
            while any(x.id == new_id for x in declarations):
                new_id += "'"
            new = ConstraintDeclaration(new_id, dep.target, compose(dep.arity_map, d.binding))
            declarations.append(new)
            frontier.append(new)
    return Sketch(sketch.name, sketch.carrier, sketch.signature, tuple(declarations))


# ---------------------------------------------------------------------------
# Covariant translation


def translate_declaration(f: GraphMorphism, d: ConstraintDeclaration) -> ConstraintDeclaration:
    """Push a declaration forward along a carrier morphism: compose the binding."""
    if d.binding.cod != f.dom:
        raise SketchError("translate_declaration: binding does not land in f's domain")
    return ConstraintDeclaration(d.id, d.label, compose(d.binding, f))


def translate_sketch(f: GraphMorphism, sketch: Sketch) -> Sketch:
    if sketch.carrier != f.dom:
        raise SketchError("translate_sketch: carrier is not f's domain")
    return Sketch(
        sketch.name,
        f.cod,
        sketch.signature,
        tuple(translate_declaration(f, d) for d in sketch.declarations),
    )

