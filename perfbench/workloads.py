"""The three workloads: how each builds its operations from a seed, and checks them.

A workload's ``prepare`` gets the freshly imported dcl modules, the seed, a
size (the run's ``--seconds``) and a scratch directory, and returns a `Plan`:
a seeded list of operations, how many whole rounds to run over it, and a few
warm-up operations. An operation's ``run`` is the timed call into dcl; its
``check`` compares the output with a computation made apart from the program,
or with a property the method must have, and returns an error text or None.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from registry_gen import (
    BROKEN_BY,
    VARIANTS,
    expected_verdicts,
    instance_json,
    registry_records,
)


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Plan(NamedTuple):
    ops: list
    rounds: int
    warmup: list


# Nominal seconds per round (for registry: per instance of each size and
# variant), near what one took on a 2-core x86 VM when the benchmark was
# defined; logic's is set so that --seconds 25 gives 9 rounds, 108
# operations. They only turn --seconds into a fixed count: the population a
# run times depends on --seconds and the seed, never on how fast the code is.
REGISTRY_BLOCK_S = 1.2
SATAX_ROUND_S = 1.25
LOGIC_ROUND_S = 2.75

REGISTRY_SIZES = (1, 2, 3, 4, 5)
SATAX_TRIPLES = 2000


def _count(seconds: float, nominal: float) -> int:
    return max(1, round(seconds / nominal))


# ---------------------------------------------------------------------------
# registry: `dcl check` on seeded registry-shaped instances


def prepare_registry(dcl: dict, seed: int, seconds: float, workdir: Path, fault: str) -> Plan:
    per_class = _count(seconds, REGISTRY_BLOCK_S)
    sketch_path = str(Path(dcl["cli"].__file__).parent / "data" / "registry-sketch.json")
    rng = random.Random(seed)
    specs = []
    for drivers in REGISTRY_SIZES:
        for variant in VARIANTS:
            for k in range(per_class):
                records = registry_records(random.Random(rng.getrandbits(64)), drivers, variant)
                expected = expected_verdicts(records)
                broken = [d for d, holds in expected.items() if not holds]
                if broken != ([BROKEN_BY[variant]] if BROKEN_BY[variant] else []):
                    raise AssertionError(f"generator made {variant} break {broken}")
                path = workdir / f"registry-n{drivers}-{variant}-{k}.json"
                path.write_text(json.dumps(instance_json(records)))
                specs.append((drivers, variant, str(path), expected))
    if fault == "flip-verdict":
        drivers, variant, path, expected = specs[0]
        first = sorted(expected)[0]
        specs[0] = (drivers, variant, path, {**expected, first: not expected[first]})
    ops = [
        _registry_op(dcl["cli"], sketch_path, path, variant, expected)
        for _, variant, path, expected in specs
    ]
    # one single-driver instance of each variant
    warmup = [op for op, spec in zip(ops, specs) if spec[0] == 1][::per_class]
    rng.shuffle(ops)
    return Plan(ops, 1, warmup)


def _registry_op(cli, sketch_path: str, path: str, variant: str, expected: dict) -> Op:
    argv = ["check", sketch_path, path]

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result) -> Optional[str]:
        code, text = result
        if code not in (0, 1):
            return f"{path}: exit code {code}"
        report = json.loads(text)
        got = {d["id"]: d["status"] for d in report["declarations"]}
        want = {d: "valid" if holds else "invalid" for d, holds in expected.items()}
        if got != want:
            wrong = sorted(d for d in set(got) | set(want) if got.get(d) != want.get(d))
            return f"{path}: verdicts differ from the records on {wrong}"
        if any(d["status"] == "valid" and not d["evidence"] for d in report["declarations"]):
            return f"{path}: a Valid verdict without evidence"
        if code != (0 if all(expected.values()) else 1):
            return f"{path}: exit code {code} for {variant}"
        return None

    return Op(variant, run, check)


# ---------------------------------------------------------------------------
# satax: the Sat-axiom on seeded (morphism, declaration, instance) triples


def prepare_satax(dcl: dict, seed: int, seconds: float, workdir: Path, fault: str) -> Plan:
    randgen, satisfaction, instances = dcl["randgen"], dcl["satisfaction"], dcl["instances"]
    sig = randgen.harness_signature()
    rng = random.Random(seed)
    triples = [randgen.random_satax_triple(rng, sig) for _ in range(SATAX_TRIPLES)]
    # looked up at call time, so that a traced pass sees the traced function
    if fault == "broken-translate":
        translate = lambda f, d: dcl["cli"]._broken_translate(f, d)
    else:
        translate = lambda f, d: dcl["sketch"].translate_declaration(f, d)
    status = dcl["verdicts"].Status

    def op(f, d, t) -> Op:
        def run():
            return satisfaction.verify_sat_axiom(f, d, t, sig, translate=translate)

        def check(result) -> Optional[str]:
            left, right = result.reduct_side, result.translated_side
            if status.UNKNOWN in (left.status, right.status):
                return f"{d.label}: Unknown verdict"
            if left.status is not right.status:
                return f"{d.label}: reduct {left.status.value}, translated {right.status.value}"
            if left.is_valid and instances.serialize_instance(
                left.evidence.restricted
            ) != instances.serialize_instance(right.evidence.restricted):
                return f"{d.label}: evidence bytes differ"
            if not result.passed:
                return f"{d.label}: harness reports {result.detail}"
            return None

        return Op("satax", run, check)

    ops = [op(*triple) for triple in triples]
    return Plan(ops, _count(seconds, SATAX_ROUND_S), ops[:20])


# ---------------------------------------------------------------------------
# logic: proof search plus model sweep, and the dependency soundness sweep


# Per round: each cheap goal once, the dependency sweep six times and the
# coproduct goal twice. Sorted by cost (cheap goals < dependency sweep <
# coproduct goal) the classes hold ranks [0, 1/3), [1/3, 5/6) and [5/6, 1),
# so the median falls mid-class on the dependency sweep and the 90th
# percentile mid-class on the coproduct goal, never on a class boundary.
CHEAP_GOALS = (0, 1, 2, 4)
COPRODUCT_GOAL = 3
DEPS_PER_ROUND = 6
COPRODUCT_PER_ROUND = 2

PROOF_DEPTH = 4
SWEEP_SIZE = 3
DEPS_SIZE = 2
MAX_PARALLEL = 1


def logic_goals(dcl: dict) -> list:
    """The five (theory, goal) pairs of acceptance criterion 06, in its order."""
    fixtures, injlogic = dcl["fixtures"], dcl["injlogic"]
    out_theory = fixtures.outgoing_edge_theory()
    pair_theory = fixtures.edge_pair_theory()
    goals = [(th, th.formulas[name]) for th in (out_theory, pair_theory) for name in th.formulas]
    edge = injlogic.axiom(out_theory, "out-edge")
    goals.append((out_theory, injlogic.coproduct_macro(edge, edge).conclusion))
    goals.append(
        (
            pair_theory,
            pair_theory.formulas["out-edge"].then(pair_theory.formulas["close-cycle"]),
        )
    )
    return goals


def prepare_logic(dcl: dict, seed: int, seconds: float, workdir: Path, fault: str) -> Plan:
    injlogic, signature = dcl["injlogic"], dcl["signature"]
    goals = logic_goals(dcl)
    data = Path(dcl["cli"].__file__).parent / "data"
    span_sig = dcl["io"].load(data / "span-signature.json")
    forms = _FormAgreement(dcl)

    def goal_op(i: int) -> Op:
        theory, goal = goals[i]

        def run():
            proof = injlogic.bounded_entailment(theory, goal, max_depth=PROOF_DEPTH)
            if not proof.derivable:
                return proof, None
            sweep = injlogic.semantic_entails(
                theory, proof.derivation.conclusion, SWEEP_SIZE, max_parallel=MAX_PARALLEL
            )
            return proof, sweep

        def check(result) -> Optional[str]:
            proof, sweep = result
            if not proof.derivable:
                return f"goal {i}: not derived at depth {PROOF_DEPTH}"
            try:
                injlogic.verify_derivation(proof.derivation, theory)
            except injlogic.DerivationError as exc:
                return f"goal {i}: proof does not re-verify: {exc}"
            if not sweep.entailed:
                return f"goal {i}: model sweep says {sweep.status}"
            return None

        return Op("coproduct" if i == COPRODUCT_GOAL else f"goal{i}", run, check)

    def deps_op() -> Op:
        def run():
            return signature.verify_dependency_soundness(
                span_sig, DEPS_SIZE, max_parallel=MAX_PARALLEL
            )

        return Op("deps", run, lambda report: _check_span_report(report, forms))

    round_ops = (
        [goal_op(i) for i in CHEAP_GOALS]
        + [deps_op() for _ in range(DEPS_PER_ROUND)]
        + [goal_op(COPRODUCT_GOAL) for _ in range(COPRODUCT_PER_ROUND)]
    )
    random.Random(seed).shuffle(round_ops)
    def prove(theory, goal):
        return lambda: injlogic.bounded_entailment(theory, goal, max_depth=PROOF_DEPTH)

    warmup = [Op("warmup", prove(*pair), lambda result: None) for pair in goals]
    return Plan(round_ops, _count(seconds, LOGIC_ROUND_S), warmup)


def _check_span_report(report, forms) -> Optional[str]:
    """The span signature's known obligation: [jm] does not make its legs [1].

    Every violation must be a [jm]-valid apex whose leg, restricted along
    the dependency, breaks [1]; both predicates are coded here over the
    witness. The restricted leg is also decided in regular and lifting form.
    """
    if report.ok:
        return "dependency sweep found no violation"
    flagged = {v.dependency for v in report.violations}
    if flagged != {"d1", "d2"}:
        return f"violations name {sorted(flagged)}, expected d1 and d2"
    for v in report.violations:
        leg = {"d1": "01", "d2": "02"}[v.dependency]
        t = v.witness
        apex = [n for n in t.carrier.sorted_nodes if t.typing.node_map[n] == "0"]
        targets = {
            n: tuple(
                sorted(
                    (t.typing.arrow_map[a.id], a.tgt)
                    for a in t.carrier.arrows
                    if a.src == n
                )
            )
            for n in apex
        }
        if len(set(targets.values())) != len(apex):
            return f"{v.dependency}: witness is not jointly monic"
        legs = [sum(1 for lab, _ in targets[n] if lab == leg) for n in apex]
        if all(c == 1 for c in legs):
            return f"{v.dependency}: witness leg {leg} is single-valued"
        error = forms.check(t, leg, legs)
        if error:
            return f"{v.dependency}: {error}"
    return None


class _FormAgreement:
    """Regular and lifting forms of [exists] and [unique] on a leg restriction.

    Both forms must agree with each other and with the at-least-one and
    at-most-one predicates. The leg restriction is built here, element by
    element, not by a pullback; decisions are memoized on its bytes, since
    every sweep reports the same witnesses.
    """

    def __init__(self, dcl: dict) -> None:
        fixtures, signature = dcl["fixtures"], dcl["signature"]
        self.graphs, self.instances, self.signature = dcl["graphs"], dcl["instances"], signature
        self.symbols = []
        for symbol in (fixtures.existence_symbol(), fixtures.uniqueness_symbol()):
            lifting = signature.ConstraintSymbol(
                symbol.name,
                symbol.arity,
                signature.regular_to_lifting(symbol.arity, symbol.semantics),
            )
            self.symbols.append((symbol, lifting))
        self.memo: dict[bytes, Optional[str]] = {}

    def check(self, t, leg: str, counts: list) -> Optional[str]:
        graphs, instances = self.graphs, self.instances
        arity = self.signature.single_arrow_arity()
        sources = [n for n in t.carrier.sorted_nodes if t.typing.node_map[n] == "0"]
        target_node = "1" if leg == "01" else "2"
        targets = [n for n in t.carrier.sorted_nodes if t.typing.node_map[n] == target_node]
        links = [a for a in t.carrier.sorted_arrows if t.typing.arrow_map[a.id] == leg]
        restricted = instances.TypedInstance.build(
            arity,
            graphs.Graph.build(sources + targets, links),
            {**{n: "A" for n in sources}, **{n: "B" for n in targets}},
            {a.id: "r" for a in links},
        )
        key = instances.serialize_instance(restricted)
        if key not in self.memo:
            expected = (all(c >= 1 for c in counts), all(c <= 1 for c in counts))
            self.memo[key] = None
            for (regular, lifting), holds in zip(self.symbols, expected):
                r = self.signature.evaluate(regular, restricted).status.value
                l = self.signature.evaluate(lifting, restricted).status.value
                if r != l:
                    self.memo[key] = f"{regular.name}: regular says {r}, lifting {l}"
                elif r != ("valid" if holds else "invalid"):
                    self.memo[key] = f"{regular.name}: {r}, direct predicate says {holds}"
        return self.memo[key]


WORKLOADS = {
    "registry": prepare_registry,
    "satax": prepare_satax,
    "logic": prepare_logic,
}
