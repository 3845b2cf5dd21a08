"""Self-describing JSON container format.

Every object serializes to a dict with a "kind" tag; files hold exactly
one object, with everything it refers to inline.  `load` is the boundary
where outside data is validated: any malformed file raises FormatError.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, Union

from dcl.graphs import Graph, GraphError, GraphMorphism
from dcl.injlogic import InjTheory
from dcl.instances import Delta, SliceMorphism, TypedInstance, as_slice_morphism, terminal_graph
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
from dcl.sketch import ConstraintDeclaration, Sketch, is_closed


class FormatError(GraphError):
    pass


def _expect(value: Any, cls: type, what: str):
    """`value`, or FormatError unless it is a `cls`, so that no other JSON value
    reads as an empty or a shorter list, nor a list of pairs as an object."""
    if not isinstance(value, cls):
        raise FormatError(f"{what}: expected a {cls.__name__}, got {type(value).__name__}")
    return value


# ---------------------------------------------------------------------------
# Semantics specs


def _fields_to_json(spec: SemanticsSpec) -> dict:
    """A spec's fields: a tuple (a path, intervals) as a list, a morphism by its writer."""

    def value(v: Any) -> Any:
        if isinstance(v, tuple):
            return [value(x) for x in v]
        return v.to_json() if hasattr(v, "to_json") else v

    return {f.name: value(getattr(spec, f.name)) for f in fields(spec)}


def _fields_reader(cls: type):
    """The reader of a semantics whose fields are arrow names, and paths of them
    as lists: a list is read as a path; any other value is left for the symbol
    to reject."""

    def read(data: Mapping) -> SemanticsSpec:
        named = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in named.items()})

    return read


def _lifting_from_json(data: Mapping) -> Lifting:
    m = GraphMorphism.from_json(data["m"])
    n = GraphMorphism.from_json(data["n"], dom=m.cod)
    return Lifting(m, n, data.get("search_limit", DEFAULT_SEARCH_LIMIT))


# (writer, reader) per semantics kind; a spec is written under its `kind`
_SEMANTICS = {
    "multiplicity": (
        _fields_to_json,
        lambda data: Multiplicity(_expect(data["intervals"], list, "intervals")),
    ),
    **{
        cls.kind: (_fields_to_json, _fields_reader(cls))
        for cls in (Key, Subset, CompositeSubset4, JointlyMonic, Commutativity)
    },
    "regular": (
        _fields_to_json,
        lambda data: Regular(
            SliceMorphism.from_json(data["formula"]), data.get("search_limit", DEFAULT_SEARCH_LIMIT)
        ),
    ),
    "lifting": (_fields_to_json, _lifting_from_json),
    "table": (
        lambda spec: {"entries": [{"id": i, "instance": t.to_json()} for i, t in spec.entries]},
        lambda data: Table(
            tuple(
                (_expect(e["id"], str, "entry id"), TypedInstance.from_json(e["instance"]))
                for e in _expect(data["entries"], list, "entries")
            )
        ),
    ),
}


def semantics_to_json(spec: SemanticsSpec) -> dict:
    kind = getattr(spec, "kind", None)
    if kind not in _SEMANTICS:
        raise FormatError(f"unknown semantics spec {type(spec).__name__}")
    return {"kind": kind, **_SEMANTICS[kind][0](spec)}


def semantics_from_json(data: Mapping) -> SemanticsSpec:
    kind = data.get("kind")
    # a kind that is not a string, such as [] or {}, is unknown, not unhashable
    if not isinstance(kind, str) or kind not in _SEMANTICS:
        raise FormatError(f"unknown semantics kind {kind!r}")
    return _SEMANTICS[kind][1](data)


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
    for s in _expect(data["symbols"], list, "symbols"):
        name = _expect(s["name"], str, "symbol name")
        if name in symbols:
            raise FormatError(f"duplicate symbol name {name!r}")
        arity = Graph.from_json(s["arity"])
        symbols[name] = ConstraintSymbol(name, arity, semantics_from_json(s["semantics"]))
    dependencies = []
    for d in _expect(data.get("dependencies", []), list, "dependencies"):
        src, tgt = d["from"], d["to"]
        for name in (src, tgt):
            if name not in symbols:
                raise FormatError(f"dependency {d['id']!r} names unknown symbol {name!r}")
        dependencies.append(
            Dependency(
                _expect(d["id"], str, "dependency id"),
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
    for d in _expect(data["declarations"], list, "declarations"):
        symbol = sig.symbols.get(d["label"])
        if symbol is None:
            raise FormatError(f"declaration {d['id']!r} names unknown symbol {d['label']!r}")
        declarations.append(
            ConstraintDeclaration(
                _expect(d["id"], str, "declaration id"),
                d["label"],
                GraphMorphism.from_json(d["binding"], dom=symbol.arity, cod=carrier),
            )
        )
    name = _expect(data.get("name", "sketch"), str, "sketch name")
    return Sketch(name, carrier, sig, tuple(declarations))


def _ambient_to_json(base: Graph) -> tuple[dict, Callable[[SliceMorphism], dict]]:
    """The ambient of formulas over `base` and their writer: plain graphs, the
    slice over the terminal graph, hold graph morphisms; the slice over any
    other base holds slice morphisms."""
    if base == terminal_graph():
        return {"kind": "graph"}, lambda f: f.map.to_json()
    return {"kind": "slice", "over": base.to_json()}, SliceMorphism.to_json


def _ambient_from_json(ambient: Any) -> tuple[Callable[[], Graph], Callable[[Any], SliceMorphism]]:
    """The reader of the base of `ambient`, as `_ambient_to_json` writes it,
    and the reader of its formulas."""
    kind = _expect(ambient, dict, "ambient").get("kind")
    if kind == "graph":
        return terminal_graph, lambda m: as_slice_morphism(GraphMorphism.from_json(m))
    if kind == "slice":
        return lambda: Graph.from_json(ambient["over"]), SliceMorphism.from_json
    raise FormatError(f"unknown ambient kind {kind!r}")


def theory_to_json(theory: InjTheory) -> dict:
    ambient, write = _ambient_to_json(theory.base)
    formulas = {name: write(f) for name, f in theory.formulas.items()}
    return {"kind": "theory", "ambient": ambient, "formulas": formulas}


def theory_from_json(data: Mapping) -> InjTheory:
    base, read = _ambient_from_json(data["ambient"])
    formulas = _expect(data["formulas"], dict, "formulas")
    return InjTheory(base(), {name: read(m) for name, m in formulas.items()})


def formula_to_json(f: SliceMorphism) -> dict:
    """A formula file names the kind of its ambient, not its base: a slice
    formula's objects carry their base; a plain formula's map sits under "map"."""
    ambient, write = _ambient_to_json(f.from_.schema)
    kind, body = ambient["kind"], write(f)
    body = {"map": body} if kind == "graph" else body
    return {"kind": "formula", "ambient": {"kind": kind}, **body}


def formula_from_json(data: Mapping) -> SliceMorphism:
    _, read = _ambient_from_json(data["ambient"])
    return read(data["map"] if data["ambient"]["kind"] == "graph" else data)


# ---------------------------------------------------------------------------
# Top-level dispatch


def _tagged(kind: str, cls: type) -> tuple:
    """The entry of a class that writes and reads its own fields."""
    return cls, lambda obj: {"kind": kind, **obj.to_json()}, cls.from_json


# (class, writer, reader) per file kind: `to_json` and `from_json` both read this table
_KINDS = {
    "graph": _tagged("graph", Graph),
    "morphism": _tagged("morphism", GraphMorphism),
    "instance": _tagged("instance", TypedInstance),
    "delta": _tagged("delta", Delta),
    "signature": (Signature, signature_to_json, signature_from_json),
    "sketch": (Sketch, sketch_to_json, sketch_from_json),
    "theory": (InjTheory, theory_to_json, theory_from_json),
    "formula": (SliceMorphism, formula_to_json, formula_from_json),
}


def to_json(obj: Any) -> dict:
    for cls, writer, _ in _KINDS.values():
        if isinstance(obj, cls):
            return writer(obj)
    raise FormatError(f"cannot serialize {type(obj).__name__}")


def from_json(data: Mapping) -> Any:
    if not isinstance(data, Mapping):
        raise FormatError("top-level JSON value must be an object")
    kind = data.get("kind")
    # a kind that is not a string, such as [] or {}, is unknown, not unhashable
    if not isinstance(kind, str) or kind not in _KINDS:
        raise FormatError(f"unknown kind {kind!r}")
    return _KINDS[kind][2](data)


def _indented(value: Any, newline: str = "\n") -> str:
    """`json.dumps` text with a 2-space indent and sorted keys, byte for byte;
    `newline` is the line break before this level.  `json` indents in pure
    Python; this writer leaves each string to the C escaper, in one call."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))
            + ": "
            + (encode_basestring_ascii(v) if type(v) is str else _indented(v, inner))
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [
            encode_basestring_ascii(v) if type(v) is str else _indented(v, inner)
            for v in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


def dumps(obj: Any) -> str:
    return _indented(to_json(obj)) + "\n"


def save(obj: Any, path: Union[str, pathlib.Path]) -> None:
    pathlib.Path(path).write_text(dumps(obj))


def load(path: Union[str, pathlib.Path]) -> Any:
    """Read and build the object in a JSON file; FormatError if it is malformed."""
    p = pathlib.Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise FormatError(f"{p}: file not found")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or bytes that are no text
        raise FormatError(f"{p}: unreadable: {getattr(exc, 'strerror', None) or exc}")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    except RecursionError:
        raise FormatError(f"{p}: JSON nested too deeply")
    try:
        return from_json(data)
    except GraphError as exc:
        raise FormatError(f"{p}: {exc}")
    except KeyError as exc:
        raise FormatError(f"{p}: missing key {exc}")
    except (TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"{p}: malformed {data.get('kind')!r} object: {exc}")
