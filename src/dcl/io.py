"""Self-describing JSON container format.

Every object serializes to a dict with a "kind" tag; files hold exactly
one object, with everything it refers to inline.  `load` is the boundary
where outside data is validated: any malformed file raises FormatError.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Mapping, Union

from dcl.graphs import Graph, GraphError, GraphMorphism, SizeGuardError
from dcl.injlogic import InjTheory, as_slice_morphism, terminal_graph
from dcl.instances import Delta, SliceMorphism, TypedInstance
from dcl.signature import (
    DEFAULT_SEARCH_LIMIT,
    Commutativity,
    CompositeSubset4,
    ConstraintSymbol,
    Dependency,
    JointlyMonic,
    Key,
    Lifting,
    Multiplicity,
    Regular,
    SemanticsSpec,
    Signature,
    Subset,
    Table,
)
from dcl.sketch import ConstraintDeclaration, Sketch, SketchMorphism, is_closed


class FormatError(GraphError):
    pass


# ---------------------------------------------------------------------------
# Semantics specs


def semantics_to_json(spec: SemanticsSpec) -> dict:
    if isinstance(spec, Multiplicity):
        return {"kind": "multiplicity", "intervals": [list(iv) for iv in spec.intervals]}
    if isinstance(spec, Key):
        return {"kind": "key"}
    if isinstance(spec, Subset):
        return {"kind": "subset", "first": spec.first, "second": spec.second}
    if isinstance(spec, CompositeSubset4):
        return {
            "kind": "composite_subset4",
            "path1": list(spec.path1),
            "path2": list(spec.path2),
        }
    if isinstance(spec, JointlyMonic):
        return {"kind": "jointly_monic", "first": spec.first, "second": spec.second}
    if isinstance(spec, Commutativity):
        return {"kind": "commutativity", "path": list(spec.path), "direct": spec.direct}
    if isinstance(spec, Regular):
        return {
            "kind": "regular",
            "formula": spec.formula.to_json(),
            "search_limit": spec.search_limit,
        }
    if isinstance(spec, Lifting):
        return {
            "kind": "lifting",
            "m": spec.m.to_json(),
            "n": spec.n.to_json(),
            "search_limit": spec.search_limit,
        }
    if isinstance(spec, Table):
        return {
            "kind": "table",
            "entries": [
                {"id": entry_id, "instance": inst.to_json()}
                for entry_id, inst in spec.entries
            ],
        }
    raise FormatError(f"unknown semantics spec {type(spec).__name__}")


def semantics_from_json(data: Mapping) -> SemanticsSpec:
    kind = data.get("kind")
    if kind == "multiplicity":
        return Multiplicity(tuple((lo, hi) for lo, hi in data["intervals"]))
    if kind == "key":
        return Key()
    if kind == "subset":
        return Subset(data.get("first", "r1"), data.get("second", "r2"))
    if kind == "composite_subset4":
        return CompositeSubset4(
            tuple(data.get("path1", ("r1", "r2"))), tuple(data.get("path2", ("s1", "s2")))
        )
    if kind == "jointly_monic":
        return JointlyMonic(data.get("first", "01"), data.get("second", "02"))
    if kind == "commutativity":
        return Commutativity(tuple(data.get("path", ("f", "g"))), data.get("direct", "h"))
    if kind == "regular":
        return Regular(
            SliceMorphism.from_json(data["formula"]),
            data.get("search_limit", DEFAULT_SEARCH_LIMIT),
        )
    if kind == "lifting":
        m = GraphMorphism.from_json(data["m"])
        n = GraphMorphism.from_json(data["n"], dom=m.cod)
        return Lifting(m, n, data.get("search_limit", DEFAULT_SEARCH_LIMIT))
    if kind == "table":
        entries = tuple(
            (e["id"], TypedInstance.from_json(e["instance"])) for e in data["entries"]
        )
        return Table(entries)
    raise FormatError(f"unknown semantics kind {kind!r}")


# ---------------------------------------------------------------------------
# Signatures, sketches, theories


def signature_to_json(sig: Signature) -> dict:
    return {
        "kind": "signature",
        "symbols": [
            {
                "name": s.name,
                "arity": s.arity.to_json(),
                "semantics": semantics_to_json(s.semantics),
            }
            for s in sig.symbols.values()
        ],
        "dependencies": [
            {
                "id": d.id,
                "from": d.source,
                "to": d.target,
                "arity_map": d.arity_map.to_json(inline=False),
            }
            for d in sig.dependencies
        ],
    }


def signature_from_json(data: Mapping) -> Signature:
    symbols = {}
    for s in data["symbols"]:
        arity = Graph.from_json(s["arity"])
        symbols[s["name"]] = ConstraintSymbol(
            s["name"], arity, semantics_from_json(s["semantics"])
        )
    dependencies = []
    for d in data.get("dependencies", ()):
        src, tgt = d["from"], d["to"]
        dependencies.append(
            Dependency(
                d["id"],
                src,
                tgt,
                GraphMorphism.from_json(
                    d["arity_map"], dom=symbols[tgt].arity, cod=symbols[src].arity
                ),
            )
        )
    return Signature(symbols, tuple(dependencies))


def sketch_to_json(sketch: Sketch) -> dict:
    return {
        "kind": "sketch",
        "name": sketch.name,
        "carrier": sketch.carrier.to_json(),
        "signature": signature_to_json(sketch.signature),
        "declarations": [
            {"id": d.id, "label": d.label, "binding": d.binding.to_json(inline=False)}
            for d in sketch.declarations
        ],
        "closed": is_closed(sketch),
    }


def sketch_from_json(data: Mapping) -> Sketch:
    carrier = Graph.from_json(data["carrier"])
    sig = signature_from_json(data["signature"])
    declarations = []
    for d in data["declarations"]:
        symbol = sig.symbols.get(d["label"])
        if symbol is None:
            raise FormatError(f"declaration {d['id']!r} names unknown symbol {d['label']!r}")
        declarations.append(
            ConstraintDeclaration(
                d["id"],
                d["label"],
                GraphMorphism.from_json(d["binding"], dom=symbol.arity, cod=carrier),
            )
        )
    return Sketch(data.get("name", "sketch"), carrier, sig, tuple(declarations))


def sketch_morphism_to_json(f: SketchMorphism) -> dict:
    return {
        "kind": "sketch_morphism",
        "from": sketch_to_json(f.from_),
        "to": sketch_to_json(f.to),
        "graph_map": f.graph_map.to_json(inline=False),
        "decls": dict(f.decl_map),
    }


def sketch_morphism_from_json(data: Mapping) -> SketchMorphism:
    from_ = sketch_from_json(data["from"])
    to = sketch_from_json(data["to"])
    graph_map = GraphMorphism.from_json(
        data["graph_map"], dom=from_.carrier, cod=to.carrier
    )
    return SketchMorphism(from_, to, graph_map, dict(data["decls"]))


def theory_to_json(theory: InjTheory) -> dict:
    plain = theory.base == terminal_graph()
    formulas = {}
    for name, f in theory.formulas.items():
        if plain:
            formulas[name] = f.map.to_json()
        else:
            formulas[name] = f.to_json()
    return {
        "kind": "theory",
        "ambient": {"kind": "graph"} if plain else {"kind": "slice", "over": theory.base.to_json()},
        "formulas": formulas,
    }


def theory_from_json(data: Mapping) -> InjTheory:
    ambient = data["ambient"]
    if ambient["kind"] == "graph":
        base = terminal_graph()
        formulas = {
            name: as_slice_morphism(GraphMorphism.from_json(m))
            for name, m in data["formulas"].items()
        }
    elif ambient["kind"] == "slice":
        base = Graph.from_json(ambient["over"])
        formulas = {
            name: SliceMorphism.from_json(m) for name, m in data["formulas"].items()
        }
    else:
        raise FormatError(f"unknown ambient kind {ambient.get('kind')!r}")
    return InjTheory(base, formulas)


def formula_to_json(f: SliceMorphism, plain: bool = False) -> dict:
    if plain:
        return {"kind": "formula", "ambient": {"kind": "graph"}, "map": f.map.to_json()}
    return {"kind": "formula", "ambient": {"kind": "slice"}, **f.to_json()}


def formula_from_json(data: Mapping) -> SliceMorphism:
    if data.get("ambient", {}).get("kind") == "graph":
        return as_slice_morphism(GraphMorphism.from_json(data["map"]))
    return SliceMorphism.from_json(data)


# ---------------------------------------------------------------------------
# Top-level dispatch


def to_json(obj: Any) -> dict:
    if isinstance(obj, Graph):
        return {"kind": "graph", **obj.to_json()}
    if isinstance(obj, GraphMorphism):
        return {"kind": "morphism", **obj.to_json()}
    if isinstance(obj, TypedInstance):
        return {"kind": "instance", **obj.to_json()}
    if isinstance(obj, Delta):
        return {"kind": "delta", **obj.to_json()}
    if isinstance(obj, Signature):
        return signature_to_json(obj)
    if isinstance(obj, Sketch):
        return sketch_to_json(obj)
    if isinstance(obj, SketchMorphism):
        return sketch_morphism_to_json(obj)
    if isinstance(obj, InjTheory):
        return theory_to_json(obj)
    if isinstance(obj, SliceMorphism):
        return formula_to_json(obj)
    raise FormatError(f"cannot serialize {type(obj).__name__}")


def from_json(data: Mapping) -> Any:
    if not isinstance(data, Mapping):
        raise FormatError("top-level JSON value must be an object")
    kind = data.get("kind")
    if kind == "graph":
        return Graph.from_json(data)
    if kind == "morphism":
        return GraphMorphism.from_json(data)
    if kind == "instance":
        return TypedInstance.from_json(data)
    if kind == "delta":
        return Delta.from_json(data)
    if kind == "signature":
        return signature_from_json(data)
    if kind == "sketch":
        return sketch_from_json(data)
    if kind == "sketch_morphism":
        return sketch_morphism_from_json(data)
    if kind == "theory":
        return theory_from_json(data)
    if kind == "formula":
        return formula_from_json(data)
    raise FormatError(f"unknown kind {kind!r}")


def dumps(obj: Any) -> str:
    return json.dumps(to_json(obj), indent=2, sort_keys=True) + "\n"


def save(obj: Any, path: Union[str, pathlib.Path]) -> None:
    pathlib.Path(path).write_text(dumps(obj))


def load(path: Union[str, pathlib.Path]) -> Any:
    """Read and build the object in a JSON file; FormatError if it is malformed."""
    p = pathlib.Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise FormatError(f"{p}: file not found")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    except RecursionError:
        raise FormatError(f"{p}: JSON nested too deeply")
    try:
        return from_json(data)
    except SizeGuardError:
        raise  # a bound was hit: Unknown, not malformed input
    except GraphError as exc:
        raise FormatError(f"{p}: {exc}")
    except KeyError as exc:
        raise FormatError(f"{p}: missing key {exc}")
    except (TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"{p}: malformed {data.get('kind')!r} object: {exc}")
