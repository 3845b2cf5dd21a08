"""Span tracing of dcl's layers, installed from outside the library.

`Tracer.install` replaces every public function of the dcl modules, in every
module that holds it under its own name (so `from dcl.graphs import
canonicalize` elsewhere is traced too), the `decide` method of each semantics
class, the `to_json` methods of the verdict types and
`GraphMorphism.__post_init__`. Each call becomes a span with a name, start,
end and parent; a generator gets one span per `next()`. Self time (a span's
duration minus the time its child spans cover) is summed per name as spans
close. The spans themselves stay in memory and are written out by `dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from typing import Callable, Optional

MODULES = (
    "graphs",
    "instances",
    "signature",
    "sketch",
    "satisfaction",
    "injlogic",
    "io",
    "verdicts",
    "cli",
    "randgen",
    "fixtures",
)
VERDICT_CLASSES = ("Verdict", "Evidence", "Counterexample", "ValidationReport")
SEMANTICS_CLASSES = (
    "Multiplicity",
    "Key",
    "Subset",
    "CompositeSubset4",
    "JointlyMonic",
    "Commutativity",
    "Regular",
    "Lifting",
    "Table",
)
# labelled instances enumerated: the base of the kept ratios
ENUMERATED = "instances.iter_typed_instances.yielded"


class Tracer:
    """Spans and per-name totals for one run.

    The wrappers are built once, for the ``{short name: module}`` map given;
    `install` and `uninstall` only swap them in and out, so that a run can
    alternate traced and untraced executions of one operation cheaply.
    """

    def __init__(self, dcl_modules: dict) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in opening order; the index is the span's id
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [span id, name id, start, time covered by children]
        self._stack: list[list] = []
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.phase = "setup"
        self._patches: list[tuple[object, str, object, object]] = []
        self._build(dcl_modules)

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> None:
        sid = len(self.span_start)
        start = self.clock()
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(start - self.origin)
        self.span_end.append(0.0)
        self._stack.append([sid, nid, start, 0.0])

    def exit(self) -> float:
        end = self.clock()
        sid, nid, start, covered = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        key = (self.phase, nid)
        self.self_time[key] += duration - covered
        self.calls[key] += 1
        self.span_end[sid] = end - self.origin
        return duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    def _kept(self, name: str, kept: int, enumerated: int) -> None:
        self.count(f"{name}.kept", kept)
        self.count(f"{name}.enumerated", enumerated)

    # -- installation --------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, after: Optional[Callable] = None):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit
        if inspect.isgeneratorfunction(fn):
            count = self.count
            yielded = f"{name}.yielded"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        enter(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            exit_()
                            return
                        except BaseException:
                            exit_()
                            raise
                        exit_()
                        count(yielded)
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        if after is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_()

            return wrapper

        counts = self.counts

        @functools.wraps(fn)
        def hooked_wrapper(*args, **kwargs):
            key = (self.phase, ENUMERATED)
            before = counts[key]
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            after(args, result, counts[key] - before)
            return result

        return hooked_wrapper

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), new))

    def install(self) -> None:
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._patches:
            setattr(owner, attr, old)

    def _build(self, dcl_modules: dict) -> None:
        after = {
            "graphs.canonicalize": lambda a, r, n: self.count(
                "graphs.canonicalize.nodes", len(a[0].nodes)
            ),
            "injlogic.formulas_isomorphic": lambda a, r, n: self.count(
                "injlogic.formulas_isomorphic.matches", int(bool(r))
            ),
            "injlogic.semantic_entails": lambda a, r, n: self._kept(
                "injlogic.semantic_entails", r.models_checked, n
            ),
            "signature.verify_dependency_soundness": lambda a, r, n: self._kept(
                "signature.verify_dependency_soundness", r.checked, n
            ),
        }
        originals: dict[int, tuple[Callable, str]] = {}
        for short in MODULES:
            mod = dcl_modules[short]
            for attr, value in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    originals[id(value)] = (value, f"{short}.{attr}")
        wrappers = {
            key: self._wrap(fn, name, after.get(name))
            for key, (fn, name) in originals.items()
        }
        for short in MODULES:
            mod = dcl_modules[short]
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patch(mod, attr, wrappers[id(value)])
        graphs = dcl_modules["graphs"]
        self._patch(
            graphs.GraphMorphism,
            "__post_init__",
            self._wrap(graphs.GraphMorphism.__post_init__, "graphs.morphism"),
        )
        signature = dcl_modules["signature"]
        for cls_name in SEMANTICS_CLASSES:
            cls = getattr(signature, cls_name)
            self._patch(
                cls, "decide", self._wrap(cls.decide, f"signature.decide.{cls.kind}")
            )
        verdicts = dcl_modules["verdicts"]
        for cls_name in VERDICT_CLASSES:
            cls = getattr(verdicts, cls_name)
            self._patch(cls, "to_json", self._wrap(cls.to_json, "verdicts.to_json"))

    # -- results -------------------------------------------------------------

    def total(self, phase: str, name: str, kind: str) -> float:
        """Sum over ``phase`` of a span's self seconds, calls, or a counter."""
        if kind == "self":
            nid = self._ids.get(name)
            return 0.0 if nid is None else self.self_time[(phase, nid)]
        if kind == "calls":
            nid = self._ids.get(name)
            return 0 if nid is None else self.calls[(phase, nid)]
        return self.counts[(phase, name)]

    def self_sum(self, phase: str, exclude_prefix: str) -> float:
        return sum(
            t
            for (ph, nid), t in self.self_time.items()
            if ph == phase and not self.names[nid].startswith(exclude_prefix)
        )

    def dump(self, path) -> None:
        """Write every span as columns: name id, parent id, start and end (s)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "note": "span i is the i-th opened; parent is a span index or -1",
                    "name": self.span_name.tolist(),
                    "parent": self.span_parent.tolist(),
                    "start_s": [round(x, 7) for x in self.span_start],
                    "end_s": [round(x, 7) for x in self.span_end],
                },
                fh,
                separators=(",", ":"),
            )
