"""Sketches: carrier graphs with labelled constraint declarations.

A declaration attaches a constraint symbol to the carrier through a
binding (arity -> carrier).  Sketches close under signature dependencies
and translate covariantly along carrier morphisms; instances move the other
way, by `dcl.instances.restrict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from dcl.graphs import Graph, GraphError, GraphMorphism, _trusted, compose, find_isomorphism
from dcl.signature import Dependency, Multiplicity, Signature, multiplicity_symbol


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


# ---------------------------------------------------------------------------
# Default multiplicities


DEFAULT_ASSOCIATION = multiplicity_symbol([(1, None)])  # [1..*]
DEFAULT_ATTRIBUTE = multiplicity_symbol([(1, 1)])  # [1]


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
    onto = {}  # each default's name -> the iso from the kept symbol's arity onto the default's
    for default in (DEFAULT_ASSOCIATION, DEFAULT_ATTRIBUTE):
        symbol = symbols.setdefault(default.name, default)  # the signature's own is kept
        onto[default.name] = find_isomorphism(symbol.arity, default.arity)
        if symbol.semantics != default.semantics or onto[default.name] is None:
            raise SketchError(f"signature already uses the name {default.name!r}")
    signature = Signature(symbols, sketch.signature.dependencies)

    declarations = list(sketch.declarations)
    for arrow in sketch.carrier.sorted_arrows:
        if arrow.id in constrained:
            continue
        symbol = DEFAULT_ASSOCIATION if arrow.id in associations else DEFAULT_ATTRIBUTE
        ends, link = {"A": arrow.src, "B": arrow.tgt}, {"r": arrow.id}
        binding = _trusted(GraphMorphism, symbol.arity, sketch.carrier, ends, link)
        declarations.append(
            ConstraintDeclaration(
                f"default/{arrow.id}", symbol.name, compose(onto[symbol.name], binding)
            )
        )
    return Sketch(sketch.name, sketch.carrier, signature, tuple(declarations))
