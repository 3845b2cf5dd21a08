"""Ready-made schemas, instances, and theories used by the tests and the benchmark.

The centerpiece is a small vehicle-registry schema: drivers drive vehicles
of some type, hold licenses covering types, and vehicles carry ordinary
and driving wheels.  Three mutations of the valid instance each break
exactly one constraint.  Every fixture with a shipped file in `dcl/data`
is read from that file, so the tests exercise what the CLI loads.
"""

from __future__ import annotations

import pathlib

from dcl.graphs import Graph, GraphMorphism
from dcl.injlogic import InjTheory
from dcl.instances import SliceMorphism, TypedInstance
from dcl.io import load
from dcl.signature import (
    ConstraintSymbol,
    Regular,
    Signature,
    jointly_monic_signature,
    single_arrow_arity,
)
from dcl.sketch import Sketch

DATA = pathlib.Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# Vehicle registry


def vehicle_registry_sketch() -> Sketch:
    """Multiplicities on drives, of, has and hasdr, driving wheels among the
    wheels, drives covered by a license of the vehicle's type, and drivers
    keyed by name and birth date."""
    return load(DATA / "registry-sketch.json")


def vehicle_registry_carrier() -> Graph:
    return vehicle_registry_sketch().carrier


def vehicle_registry_signature() -> Signature:
    return vehicle_registry_sketch().signature


def vehicle_registry_instance() -> TypedInstance:
    """One licensed driver of a three-wheeled vehicle; every constraint holds.

    The license covers the vehicle type through two parallel links, which is
    deliberate: covers is not jointly functional here, only the constraints
    actually declared must hold.
    """
    return load(DATA / "registry-valid.json")


def mutation_five_wheels() -> TypedInstance:
    """Adds wheels four and five; only the has-multiplicity breaks."""
    return load(DATA / "registry-five-wheels.json")


def mutation_duplicate_identity() -> TypedInstance:
    """Adds a second driver with the same name and birth date; only the key breaks."""
    return load(DATA / "registry-dup-identity.json")


def mutation_unlicensed_drive() -> TypedInstance:
    """Redirects the drive to a vehicle of an uncovered type; only the
    composite inclusion breaks."""
    return load(DATA / "registry-unlicensed.json")


# ---------------------------------------------------------------------------
# Formula constraints over the single-arrow arity


def existence_formula() -> SliceMorphism:
    """Every source element must carry a link: the source node embeds into
    a full source-link-target triple."""
    arity = single_arrow_arity()
    dom = TypedInstance.build(arity, Graph.build(["a"]), {"a": "A"}, {})
    cod = TypedInstance.build(
        arity,
        Graph.build(["a", "b"], [("x", "a", "b")]),
        {"a": "A", "b": "B"},
        {"x": "r"},
    )
    return SliceMorphism(dom, cod, GraphMorphism(dom.carrier, cod.carrier, {"a": "a"}, {}))


def uniqueness_formula() -> SliceMorphism:
    """Two links out of one element collapse to one: at most one link."""
    arity = single_arrow_arity()
    dom = TypedInstance.build(
        arity,
        Graph.build(["a", "b1", "b2"], [("x1", "a", "b1"), ("x2", "a", "b2")]),
        {"a": "A", "b1": "B", "b2": "B"},
        {"x1": "r", "x2": "r"},
    )
    cod = TypedInstance.build(
        arity,
        Graph.build(["a", "b"], [("x", "a", "b")]),
        {"a": "A", "b": "B"},
        {"x": "r"},
    )
    return SliceMorphism(
        dom,
        cod,
        GraphMorphism(
            dom.carrier, cod.carrier, {"a": "a", "b1": "b", "b2": "b"}, {"x1": "x", "x2": "x"}
        ),
    )


def existence_symbol() -> ConstraintSymbol:
    return ConstraintSymbol("[exists]", single_arrow_arity(), Regular(existence_formula()))


def uniqueness_symbol() -> ConstraintSymbol:
    return ConstraintSymbol("[unique]", single_arrow_arity(), Regular(uniqueness_formula()))


# span with both legs single-valued: re-export for convenience
span_single_valued_signature = jointly_monic_signature


# ---------------------------------------------------------------------------
# Injectivity-logic seed theories (plain graphs, slice over the terminal graph)


def outgoing_edge_theory() -> InjTheory:
    """One formula: every node has an outgoing edge."""
    return load(DATA / "out-edge-theory.json")


def edge_pair_theory() -> InjTheory:
    """Two formulas: an outgoing edge exists, and edges complete to 2-cycles."""
    return load(DATA / "edge-pair-theory.json")
