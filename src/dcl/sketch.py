"""Sketches: carrier graphs with labelled constraint declarations.

A declaration attaches a constraint symbol to the carrier through a
binding (arity -> carrier).  Sketches close under signature dependencies,
translate covariantly along carrier morphisms, and map to each other by
sketch morphisms (graph map + explicit declaration map).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from dcl.graphs import Graph, GraphError, GraphMorphism, _trusted, compose, identity
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
        try:
            decl_map = {d: other.decl_map[i] for d, i in self.decl_map.items()}
        except KeyError as exc:
            raise SketchError(f"cannot compose sketch morphisms: no image for {exc.args[0]!r}")
        graph_map = compose(self.graph_map, other.graph_map)
        return SketchMorphism(self.from_, other.to, graph_map, decl_map)

    @classmethod
    def identity(cls, sketch: Sketch) -> "SketchMorphism":
        ids = {d.id: d.id for d in sketch.declarations}
        return cls(sketch, sketch, identity(sketch.carrier), ids)


def check_sketch_morphism(f: SketchMorphism) -> tuple[str, ...]:
    """The violations of totality, label preservation and binding coherence per
    declaration, and each decl_map key naming no source declaration: none for a
    sketch morphism."""
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
    stray = sorted(f.decl_map.keys() - {d.id for d in f.from_.declarations})
    violations += [f"decl_map key {k!r} names no source declaration" for k in stray]
    return tuple(violations)


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
    for symbol in (DEFAULT_ASSOCIATION, DEFAULT_ATTRIBUTE):
        existing = symbols.get(symbol.name)
        if existing is not None and existing.semantics != symbol.semantics:
            raise SketchError(f"signature already uses the name {symbol.name!r}")
        symbols[symbol.name] = symbol
    signature = Signature(symbols, sketch.signature.dependencies)

    declarations = list(sketch.declarations)
    for arrow in sketch.carrier.sorted_arrows:
        if arrow.id in constrained:
            continue
        symbol = DEFAULT_ASSOCIATION if arrow.id in associations else DEFAULT_ATTRIBUTE
        ends, link = {"A": arrow.src, "B": arrow.tgt}, {"r": arrow.id}
        binding = _trusted(GraphMorphism, symbol.arity, sketch.carrier, ends, link)
        declarations.append(
            ConstraintDeclaration(f"default/{arrow.id}", symbol.name, binding)
        )
    return Sketch(sketch.name, sketch.carrier, signature, tuple(declarations))
