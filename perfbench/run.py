"""Run one workload of the dcl benchmark and print its metrics.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 25 --trace 0

Workloads are ``registry``, ``satax`` and ``logic`` (see README.md). The run
imports dcl from the ``src`` directory next to this one, sets up several
times (import, seeded input generation, warm-up), then times a fixed number
of whole rounds over the seeded operation list, one operation at a time on
one thread, with garbage collection between operations. Every output is
checked. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
A JSON record of the run (and with ``--trace 1`` the spans) goes to
``perfbench/out/``. The exit code is 0 when every output checked correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set iteration order in dcl follows the string hash seed; fixing it makes
# every run of a seed execute the same search order.
HASH_SEED = "0"
SETUP_REPEATS = 5
# A traced run plans its operations for this share of --seconds, and times
# them once untraced and once traced.
TRACE_SHARE = 0.25

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Layer metrics are per operation of the traced pass, except setup.* (per
# set-up). name.self_ms is the span's self time, name.calls its call count,
# name.yielded the items a generator produced.
PER_LAYER = (
    "graphs.canonicalize.calls",
    "graphs.canonicalize.self_ms",
    "graphs.canonicalize.nodes",
    "instances.canonicalize_instance.self_ms",
    "graphs.morphism.built",
    "graphs.morphism.self_ms",
    "graphs.compose.calls",
    "graphs.pullback.calls",
    "graphs.pullback.self_ms",
    "instances.restrict.calls",
    "instances.restrict.self_ms",
    "graphs.iter_homomorphisms.yielded",
    "graphs.iter_homomorphisms.self_ms",
    "graphs.pushout.self_ms",
    "injlogic.bounded_entailment.self_ms",
    "injlogic.slice_pushout.self_ms",
    "injlogic.verify_derivation.self_ms",
    "injlogic.formulas_isomorphic.calls",
    "injlogic.formulas_isomorphic.self_ms",
    "injlogic.formulas_isomorphic.match_ratio",
    "instances.iter_slice_morphisms.yielded",
    "instances.iter_slice_morphisms.self_ms",
    "signature.check_injectivity.self_ms",
    "signature.decide.regular.self_ms",
    "signature.decide.lifting.self_ms",
    "instances.iter_typed_instances.yielded",
    "instances.iter_typed_instances.self_ms",
    "injlogic.semantic_entails.self_ms",
    "injlogic.semantic_entails.kept_ratio",
    "signature.verify_dependency_soundness.self_ms",
    "signature.verify_dependency_soundness.kept_ratio",
    "signature.evaluate.calls",
    "signature.evaluate.self_ms",
    "signature.decide.multiplicity.self_ms",
    "signature.decide.key.self_ms",
    "signature.decide.subset.self_ms",
    "signature.decide.composite_subset4.self_ms",
    "signature.decide.jointly_monic.self_ms",
    "signature.decide.commutativity.self_ms",
    "instances.serialize_instance.calls",
    "instances.serialize_instance.self_ms",
    "satisfaction.verify_sat_axiom.self_ms",
    "satisfaction.migrate_instance.self_ms",
    "sketch.translate_declaration.self_ms",
    "satisfaction.validate_instance.self_ms",
    "satisfaction.satisfies.self_ms",
    "sketch.is_closed.self_ms",
    "io.load.calls",
    "io.load.self_ms",
    "verdicts.to_json.self_ms",
    "cli.main.self_ms",
    "setup.graphs.iter_homomorphisms.yielded",
    "setup.graphs.iter_homomorphisms.self_ms",
    "trace.op_ms",
    "trace.untraced_op_ms",
    "trace.overhead_ms",
    "trace.layer_self_ms",
    "trace.unattributed_ms",
    "trace.spans",
)


def per_layer_unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("registry", "satax", "logic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fault",
        choices=("none", "flip-verdict", "broken-translate"),
        default="none",
        help="plant a wrong expectation (registry) or a wrong translation "
        "(satax), to show that the checks catch it",
    )
    return parser.parse_args(argv)


def import_dcl(modules) -> dict:
    """Import dcl afresh from SRC, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "dcl" or m.startswith("dcl.")]:
        del sys.modules[name]
    dcl = {short: importlib.import_module(f"dcl.{short}") for short in modules}
    where = Path(sys.modules["dcl"].__file__).resolve().parent
    if where != SRC / "dcl":
        raise RuntimeError(f"imported dcl from {where}, not {SRC / 'dcl'}")
    return dcl


def set_up(prepare, args, seconds: float, workdir: Path, trace: bool = False):
    """Import, generate the inputs and warm up; traced throughout with ``trace``.

    Returns (plan, seconds taken, tracer or None).
    """
    from spans import MODULES, Tracer

    start = time.perf_counter()
    dcl = import_dcl(MODULES)
    tracer = Tracer(dcl) if trace else None
    if tracer is not None:
        tracer.install()
    try:
        plan = prepare(dcl, args.seed, seconds, workdir, args.fault)
        for op in plan.warmup:
            op.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return plan, time.perf_counter() - start, tracer


def execute(op, tracer=None, root: int = -1):
    """Run one operation (traced under a root span when given a tracer) and
    check its output untimed. Returns (seconds, error or None, wrong output)."""
    if tracer is not None:
        tracer.install()
        tracer.enter(root)
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a fault of the program: count it, go on
        out, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
    else:
        error = None
    elapsed = time.perf_counter() - start
    if tracer is not None:
        elapsed = tracer.exit()
        tracer.uninstall()
    wrong = False
    if error is None:
        error = op.check(out)
        wrong = error is not None
    del out
    gc.collect(0)
    return elapsed, error, wrong


def measure(plan, tracer=None) -> dict:
    """Time every operation of every round, one at a time.

    With a tracer each operation runs twice in a row, untraced and traced,
    in alternating order; ``times`` are then the traced times.
    """
    runs = {False: [], True: []}
    errors = []
    wrong = 0
    n = 0
    for _ in range(plan.rounds):
        for op in plan.ops:
            root = -1
            if tracer is None:
                order = (False,)
            else:
                root = tracer.name_id(f"op.{op.kind}")
                order = (False, True) if n % 2 == 0 else (True, False)
            for traced in order:
                elapsed, error, bad = (
                    execute(op, tracer, root) if traced else execute(op)
                )
                runs[traced].append(elapsed)
                if error is not None:
                    errors.append(error)
                wrong += bad
            n += 1
        gc.collect()
    return {
        "times": runs[tracer is not None],
        "untraced": runs[False],
        "attempted": len(runs[False]) + len(runs[True]),
        "errors": errors,
        "wrong": wrong,
    }


def end_to_end(result: dict, setup_times: list) -> dict:
    times = result["times"]
    completed = result["attempted"] - len(result["errors"])
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": completed / sum(times),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(tracer, result: dict) -> dict:
    ops = len(result["times"])
    op_s = sum(result["times"])
    untraced_s = sum(result["untraced"])
    layer_s = tracer.self_sum("ops", exclude_prefix="op.")
    values = {
        "trace.op_ms": op_s * 1e3 / ops,
        "trace.untraced_op_ms": untraced_s * 1e3 / ops,
        "trace.overhead_ms": (op_s - untraced_s) * 1e3 / ops,
        "trace.layer_self_ms": layer_s * 1e3 / ops,
        "trace.unattributed_ms": (op_s - layer_s) * 1e3 / ops,
        "trace.spans": sum(n for (ph, _), n in tracer.calls.items() if ph == "ops") / ops,
    }
    for metric in PER_LAYER:
        if metric in values:
            continue
        phase, per = ("setup", 1) if metric.startswith("setup.") else ("ops", ops)
        name = metric[len("setup."):] if phase == "setup" else metric
        base, _, field = name.rpartition(".")
        if field == "self_ms":
            value = tracer.total(phase, base, "self") * 1e3 / per
        elif field in ("calls", "built"):
            value = tracer.total(phase, base, "calls") / per
        elif field == "match_ratio":
            calls = tracer.total(phase, base, "calls")
            value = tracer.total(phase, f"{base}.matches", "count") / calls if calls else 0.0
        elif field == "kept_ratio":
            enumerated = tracer.total(phase, f"{base}.enumerated", "count")
            kept = tracer.total(phase, f"{base}.kept", "count")
            value = kept / enumerated if enumerated else 0.0
        else:  # yielded, nodes: counters kept under the metric's own name
            value = tracer.total(phase, name, "count") / per
        values[metric] = value
    return {m: {"value": values[m], "unit": per_layer_unit(m)} for m in PER_LAYER}


def run(args) -> int:
    from workloads import WORKLOADS

    prepare = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            plan, setup_s, tracer = set_up(
                prepare, args, args.seconds * TRACE_SHARE, workdir, trace=True
            )
            tracer.phase = "ops"
            setup_times = [setup_s]
        else:
            tracer = None
            setup_times = []
            for _ in range(SETUP_REPEATS):
                plan = None
                gc.collect()
                plan, setup_s, _ = set_up(prepare, args, args.seconds, workdir)
                setup_times.append(setup_s)
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            result = measure(plan, tracer)
        finally:
            gc.enable()
            gc.unfreeze()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = per_layer(tracer, result)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(result, setup_times)
    errors = result["errors"]
    summary = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": len(errors),
        "metrics": metrics,
    }
    record = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fault": args.fault,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": sys.version.split()[0],
        "operations": len(plan.ops),
        "rounds": plan.rounds,
        "setup_s": setup_times,
        "op_kinds": [op.kind for op in plan.ops],
        "op_s": result["times"],
        "untraced_op_s": result["untraced"] if tracer is not None else None,
        "errors": errors[:20],
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n"
    )
    for error in errors[:5]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if not (SRC / "dcl" / "__init__.py").is_file():
        print(f"error: the dcl sources are missing ({SRC / 'dcl'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
