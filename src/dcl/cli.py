"""Command-line surface: validation, migration, translation, harnesses.

Exit codes: 0 valid/success, 1 invalid/violation, 2 unknown (a work bound was
hit; a verdict's detail, else stderr, names it), 3 input error (a malformed
file, or a command line the parser rejects).  Output is
deterministic JSON; randomness only enters through an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Optional

from dcl.graphs import BoundExceeded, Graph, GraphError, GraphMorphism
from dcl.injlogic import InjTheory, bounded_entailment
from dcl.instances import (
    Delta,
    SliceMorphism,
    TypedInstance,
    as_slice,
    canonical_restriction,
    pullback_delta,
    restrict,
)
from dcl.io import FormatError, _expect, _indented, dumps, load
from dcl.randgen import harness_signature, random_satax_triple
from dcl.satisfaction import validate_instance, verify_sat_axiom
from dcl.signature import (
    ConstraintSymbol,
    Lifting,
    Regular,
    Signature,
    lifting_to_regular,
    regular_to_lifting,
    verify_dependency_soundness,
)
from dcl.sketch import (
    ConstraintDeclaration,
    Sketch,
    close_sketch,
    translate_declaration,
    translate_sketch,
)
from dcl.verdicts import Status

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3

_STATUS_EXIT = {
    Status.VALID: EXIT_VALID,
    Status.INVALID: EXIT_INVALID,
    Status.UNKNOWN: EXIT_UNKNOWN,
}


def _print(data) -> None:
    sys.stdout.write(data if isinstance(data, str) else _indented(data) + "\n")


def cmd_check(args) -> int:
    sketch = _expect(load(args.sketch), Sketch, args.sketch)
    instance = _expect(load(args.instance), TypedInstance, args.instance)
    if args.close:
        sketch = close_sketch(sketch)
    report = validate_instance(
        sketch,
        instance,
        instance_name=args.instance,
        allow_unclosed=args.allow_unclosed,
    )
    _print(report.to_json())
    return _STATUS_EXIT[report.overall]


def cmd_migrate(args) -> int:
    f = _expect(load(args.map), GraphMorphism, args.map)
    payload = load(args.payload)
    if args.direction == "pull":
        if isinstance(payload, TypedInstance):
            out = restrict(payload, f)
        elif isinstance(payload, Delta):
            out = pullback_delta(f, payload)
        else:
            raise FormatError("pull expects an instance or a delta payload")
    else:
        sketch = _expect(payload, Sketch, args.payload)
        out = translate_sketch(f, sketch)
    _print(dumps(out))
    return EXIT_VALID


def cmd_translate(args) -> int:
    sig = _expect(load(args.signature), Signature, args.signature)
    symbols = {}
    for name, symbol in sig.symbols.items():
        if args.to == "lifting" and isinstance(symbol.semantics, Regular):
            symbols[name] = ConstraintSymbol(
                name, symbol.arity, regular_to_lifting(symbol.arity, symbol.semantics)
            )
        elif args.to == "regular" and isinstance(symbol.semantics, Lifting):
            regular = lifting_to_regular(symbol.semantics)
            symbols[name] = ConstraintSymbol(name, symbol.arity, regular)
        else:
            symbols[name] = symbol
    _print(dumps(Signature(symbols, sig.dependencies)))
    return EXIT_VALID


_FAULT_SWAP = {"[1]": "[0..1]", "[0..1]": "[1]", "[1..*]": "[1..4,6]", "[1..4,6]": "[1..*]"}


def _broken_translate(f, d):
    """Deliberately wrong covariant translation: swaps multiplicity labels."""
    out = translate_declaration(f, d)
    swapped = _FAULT_SWAP.get(out.label)
    if swapped is None:
        return out
    return ConstraintDeclaration(out.id, swapped, out.binding)


def cmd_satax(args) -> int:
    rng = random.Random(args.seed)
    sig = harness_signature()
    translate = _broken_translate if args.fault_inject else translate_declaration
    passed = 0
    undecided = []  # the detail of each trial Unknown on both sides
    failures = []
    for i in range(args.trials):
        f, d, t = random_satax_triple(rng, sig, max_nodes=args.max_nodes)
        try:
            result = verify_sat_axiom(f, d, t, sig, translate=translate)
        except GraphError as exc:
            failures.append({"trial": i, "error": str(exc)})
            continue
        if result.passed and result.reduct_side.status is Status.UNKNOWN:
            undecided.append(result.reduct_side.detail)
        elif result.passed:
            passed += 1
        else:
            failures.append(
                {
                    "trial": i,
                    "detail": result.detail,
                    "morphism": f.to_json(),
                    "declaration": {"id": d.id, "label": d.label},
                    "instance": t.to_json(),
                }
            )
    _print(
        {
            "trials": args.trials,
            "seed": args.seed,
            "passed": passed,
            "failed": len(failures),
            **({"undecided": len(undecided)} if undecided else {}),
            "failures": failures[:10],
        }
    )
    if undecided:
        sys.stderr.write(f"unknown: {undecided[0]}\n")
    return EXIT_INVALID if failures else EXIT_UNKNOWN if undecided else EXIT_VALID


def cmd_infer(args) -> int:
    theory = _expect(load(args.theory), InjTheory, args.theory)
    goal = _expect(load(args.goal), SliceMorphism, args.goal)
    result = bounded_entailment(
        theory, goal, max_depth=args.depth, size_bound=args.size
    )
    _print(result.to_json())
    return EXIT_VALID if result.derivable else EXIT_UNKNOWN


def cmd_canon(args) -> int:
    obj = load(args.path)
    if isinstance(obj, Graph):
        _print(dumps(canonical_restriction(as_slice(obj)).carrier))
    elif isinstance(obj, TypedInstance):
        _print(dumps(canonical_restriction(obj)))
    else:
        raise FormatError("canon expects a graph or an instance")
    return EXIT_VALID


def cmd_close(args) -> int:
    sketch = _expect(load(args.sketch), Sketch, args.sketch)
    _print(dumps(close_sketch(sketch)))
    return EXIT_VALID


def cmd_deps_check(args) -> int:
    sig = _expect(load(args.signature), Signature, args.signature)
    report = verify_dependency_soundness(sig, args.size)
    _print(report.to_json())
    if report.status is Status.UNKNOWN:
        detail = report.bound or report.undecided[0].verdict.detail
        sys.stderr.write(f"unknown: {detail}\n")
    return _STATUS_EXIT[report.status]


class _UsageError(Exception):
    """A command line the parser rejects; the text is the usage and the message."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, and 2 means Unknown here
    def error(self, message: str):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}\n")


def _count(text: str, minimum: int = 0) -> int:
    """An integer option value of at least `minimum`: a size, depth or count."""
    try:
        if int(text) >= minimum:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcl", description="diagram constraint logic over finite graphs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an instance against a sketch")
    p.add_argument("sketch")
    p.add_argument("instance")
    p.add_argument("--close", action="store_true", help="close the sketch first")
    p.add_argument("--allow-unclosed", action="store_true")

    p = sub.add_parser("migrate", help="pull an instance/delta or push a sketch")
    p.add_argument("map")
    p.add_argument("payload")
    p.add_argument("--direction", choices=["pull", "push"], required=True)

    p = sub.add_parser("translate", help="convert regular/lifting constraint forms")
    p.add_argument("signature")
    p.add_argument("--to", choices=["lifting", "regular"], required=True)

    p = sub.add_parser("satax", help="randomized satisfaction-axiom harness")
    p.add_argument("--trials", type=_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    # every symbol's arity has a node, so no declaration binds into an empty graph
    p.add_argument("--max-nodes", type=functools.partial(_count, minimum=1), default=5)
    p.add_argument("--fault-inject", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("infer", help="bounded injectivity-logic proof search")
    p.add_argument("theory")
    p.add_argument("goal")
    p.add_argument("--depth", type=_count, default=3)
    p.add_argument("--size", type=_count, default=6)

    p = sub.add_parser("canon", help="canonical form of a graph or instance")
    p.add_argument("path")

    p = sub.add_parser("close", help="dependency-close a sketch")
    p.add_argument("sketch")

    p = sub.add_parser("deps-check", help="verify signature dependency soundness")
    p.add_argument("signature")
    p.add_argument("--size", type=_count, default=2)

    return parser


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser `main` builds once per process: a parse leaves no state on it.

    Only callers that run `main` many times in one process gain from this;
    the `dcl` console script calls it once.
    """
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        # looked up per call, so that a wrapped or patched handler is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except _UsageError as exc:
        sys.stderr.write(str(exc))
        return EXIT_INPUT
    except BoundExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNKNOWN
    except GraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
