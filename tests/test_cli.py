import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcl
import dcl.cli
import dcl.graphs
import dcl.io
import dcl.signature
from dcl.cli import main
from dcl.io import FormatError, _indented, dumps, from_json, load, save, to_json
from dcl.graphs import Graph, GraphMorphism, identity
from dcl.injlogic import InjTheory
from dcl.instances import (
    Delta,
    SliceMorphism,
    TypedInstance,
    as_slice_morphism,
    identity_delta,
    iter_slice_morphisms,
    terminal_graph,
)
from dcl.io import formula_to_json, theory_to_json
from dcl.randgen import random_graph, random_morphism_into, random_typed_instance
from test_search import within_seconds


DATA = resources.files("dcl").joinpath("data")


def data_path(name: str) -> str:
    return str(DATA.joinpath(name))


SKETCH = data_path("registry-sketch.json")
VALID = data_path("registry-valid.json")
FIVE = data_path("registry-five-wheels.json")
DUP = data_path("registry-dup-identity.json")
UNLICENSED = data_path("registry-unlicensed.json")
SPAN_SIG = data_path("span-signature.json")
OUT_THEORY = data_path("out-edge-theory.json")
GOAL = data_path("coproduct-goal.json")
FRAGMENT = data_path("vehicle-fragment-map.json")


class TestCommandLine:
    # one call of each command, and a usage error
    CALLS = [
        ["check", SKETCH, VALID],
        ["close", SKETCH],
        ["canon", VALID],
        ["translate", SPAN_SIG, "--to", "lifting"],
        ["migrate", FRAGMENT, VALID, "--direction", "pull"],
        ["infer", OUT_THEORY, GOAL, "--depth", "1"],
        ["deps-check", SPAN_SIG, "--size", "0"],
        ["satax", "--trials", "3"],
        ["check", SKETCH],
    ]

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        construct = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(parser)
            construct(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        dcl.cli._shared_parser.cache_clear()
        codes = [main(argv) for argv in self.CALLS]
        assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 3]
        # the first call builds the parser and its eight subcommand parsers
        assert len(built) == 9
        codes = [main(argv) for argv in self.CALLS]
        assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 3] and len(built) == 9

    def test_no_state_kept_between_parses(self, capsys, monkeypatch):
        seen = []
        for name in ("cmd_check", "cmd_deps_check"):
            monkeypatch.setattr(dcl.cli, name, lambda args: seen.append(vars(args)) or 0)
        for argv in (
            ["check", "--close", "--allow-unclosed", SKETCH, VALID],
            ["check", SKETCH, VALID],
            ["deps-check", SPAN_SIG, "--size", "1"],
            ["deps-check", SPAN_SIG],
        ):
            assert main(argv) == 0
        assert [(d.get("close"), d.get("allow_unclosed"), d.get("size")) for d in seen] == [
            (True, True, None),
            (False, False, None),
            (None, None, 1),
            (None, None, 2),
        ]

    def test_built_parser_is_the_callers(self, capsys):
        parser = dcl.cli.build_parser()
        assert parser is not dcl.cli.build_parser()
        parser.add_argument("--extra")
        assert parser.parse_args(["--extra", "x", "canon", VALID]).extra == "x"
        assert main(["--extra", "x", "canon", VALID]) == 3

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check"], "the following arguments are required: sketch, instance"),
            (["infer", "a", "b", "--depth", "x"], "argument --depth: expected an integer >= 0"),
            ([], "the following arguments are required: command"),
        ],
        ids=["check-without-files", "depth-not-an-integer", "no-command"],
    )
    def test_usage_error_exit_three(self, capsys, argv, message):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: dcl") and message in captured.err

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["check", "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dcl check")

    @pytest.mark.parametrize(
        "argv",
        [
            ["deps-check", SPAN_SIG, "--size", "-1"],
            ["infer", OUT_THEORY, GOAL, "--depth", "-1"],
            ["infer", OUT_THEORY, GOAL, "--size", "-2"],
            ["satax", "--trials", "-5"],
            ["satax", "--max-nodes", "-1"],
            # every arity has a node: no declaration binds into an empty graph
            ["satax", "--max-nodes", "0"],
        ],
        ids=lambda argv: " ".join(a for a in argv if a not in (SPAN_SIG, OUT_THEORY, GOAL)),
    )
    def test_negative_count_exit_three(self, capsys, argv):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "expected an integer >= " in captured.err


class TestCheck:
    def test_valid_instance_exit_zero(self, capsys):
        assert main(["check", SKETCH, VALID]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["overall"] == "valid"

    @pytest.mark.parametrize(
        "path,target",
        [
            (FIVE, "has:[1..4,6]"),
            (DUP, "driver-identity:[key]"),
            (UNLICENSED, "licensed-drive:[sub4]"),
        ],
    )
    def test_mutations_exit_one_and_name_declaration(self, capsys, path, target):
        assert main(["check", SKETCH, path]) == 1
        out = json.loads(capsys.readouterr().out)
        invalid = [d["id"] for d in out["declarations"] if d["status"] == "invalid"]
        assert invalid == [target]

    def test_missing_file_exit_three(self, capsys):
        assert main(["check", SKETCH, "/no/such/file.json"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", SKETCH, str(bad)]) == 3

    def test_undecodable_file_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00{")
        assert main(["canon", str(bad)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: unreadable: ")

    def test_directory_exit_three(self, tmp_path, capsys):
        folder = tmp_path / "folder.json"
        folder.mkdir()
        assert main(["canon", str(folder)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {folder}: unreadable: ")

    def test_wrong_kind_exit_three(self, capsys):
        assert main(["check", SKETCH, SPAN_SIG]) == 3

    def test_deterministic_output(self, capsys):
        main(["check", SKETCH, VALID])
        first = capsys.readouterr().out
        main(["check", SKETCH, VALID])
        assert capsys.readouterr().out == first

    def test_size_guard_hit_exit_two(self, capsys, monkeypatch):
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 2)
        assert main(["check", SKETCH, VALID]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["overall"] == "unknown"
        details = [d["detail"] or "" for d in out["declarations"]]
        assert any(
            detail.startswith("canonical-form bound exceeded: spent ")
            and detail.endswith(" of 2 units")
            for detail in details
        )

    def test_disjoint_copies_checked_at_default_bound(self, capsys, tmp_path):
        # 24 relabelled copies: 216 nodes, no restriction hard to canonicalize
        one = json.loads(pathlib.Path(VALID).read_text())
        copies = {
            "kind": "instance",
            "schema": one["schema"],
            "carrier": {"nodes": [], "arrows": []},
            "typing": {"nodes": {}, "arrows": {}},
        }
        carrier, typing = copies["carrier"], copies["typing"]
        for i in range(24):
            name = f"c{i}.{{}}".format
            carrier["nodes"] += [name(n) for n in one["carrier"]["nodes"]]
            carrier["arrows"] += [
                {"id": name(a["id"]), "src": name(a["src"]), "tgt": name(a["tgt"])}
                for a in one["carrier"]["arrows"]
            ]
            for kind in ("nodes", "arrows"):
                typing[kind].update(
                    (name(x), t) for x, t in one["typing"][kind].items()
                )
        path = tmp_path / "copies.json"
        path.write_text(json.dumps(copies))
        assert main(["check", SKETCH, str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["overall"] == "valid"


class TestMigrate:
    def test_pull_instance(self, capsys, tmp_path):
        assert main(["migrate", FRAGMENT, VALID, "--direction", "pull"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["schema"]["nodes"]) == {"Vehicle", "Wheel"}

    def test_push_sketch(self, capsys, tmp_path):
        sketch = load(SKETCH)
        frag_map = load(FRAGMENT)
        sub_sketch_path = tmp_path / "frag-sketch.json"
        from dcl.sketch import Sketch

        frag_sketch = Sketch("frag", frag_map.dom, sketch.signature, ())
        sub_sketch_path.write_text(dumps(frag_sketch))
        assert main(["migrate", FRAGMENT, str(sub_sketch_path), "--direction", "push"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "sketch"

    def test_pull_rejects_sketch_payload(self, capsys):
        assert main(["migrate", FRAGMENT, SKETCH, "--direction", "pull"]) == 3

    def test_map_that_is_not_an_object_exit_three(self, capsys, tmp_path):
        # dict(["AB"]) == {"A": "B"}: a list must not read as a node map
        graph = lambda node: {"nodes": [node], "arrows": []}
        files = {
            "map.json": {"dom": graph("A"), "cod": graph("B"), "nodes": ["AB"], "arrows": {}},
            "instance.json": {
                "schema": graph("B"),
                "carrier": graph("b"),
                "typing": {"nodes": {"b": "B"}, "arrows": {}},
            },
        }
        for (name, document), kind in zip(files.items(), ("morphism", "instance")):
            (tmp_path / name).write_text(json.dumps({"kind": kind, **document}))
        argv = ["migrate", str(tmp_path / "map.json"), str(tmp_path / "instance.json")]
        assert main(argv + ["--direction", "pull"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestTranslate:
    def test_roundtrip_via_lifting(self, capsys, tmp_path):
        from dcl.fixtures import existence_symbol, uniqueness_symbol
        from dcl.signature import Signature

        sig = Signature(
            {s.name: s for s in (existence_symbol(), uniqueness_symbol())}, ()
        )
        src = tmp_path / "sig.json"
        src.write_text(dumps(sig))
        assert main(["translate", str(src), "--to", "lifting"]) == 0
        lifted = capsys.readouterr().out
        assert '"lifting"' in lifted
        mid = tmp_path / "lifted.json"
        mid.write_text(lifted)
        assert main(["translate", str(mid), "--to", "regular"]) == 0
        assert '"regular"' in capsys.readouterr().out

    def test_golden_both_directions(self, capsys, tmp_path):
        from dcl.fixtures import existence_symbol, uniqueness_symbol
        from dcl.signature import ConstraintSymbol, Signature, regular_to_lifting

        # one symbol of each kind, so each direction translates one of them
        unique = uniqueness_symbol()
        lifting = regular_to_lifting(unique.arity, unique.semantics)
        symbols = [existence_symbol(), ConstraintSymbol(unique.name, unique.arity, lifting)]
        save(Signature({s.name: s for s in symbols}, ()), tmp_path / "sig.json")
        out = {}
        for to, digest in [
            ("lifting", "4bf2741ba26d3fcdf8f88107c7671629b3be0ac17f864ca1e497b3bd295401c2"),
            ("regular", "d4d19764df6e069ac5a512cb13150f500a044d2eb730530c85b14c62cc26987c"),
        ]:
            assert main(["translate", str(tmp_path / "sig.json"), "--to", to]) == 0
            out[to] = capsys.readouterr().out
            assert hashlib.sha256(out[to].encode()).hexdigest() == digest
        (tmp_path / "lifted.json").write_text(out["lifting"])
        assert main(["translate", str(tmp_path / "lifted.json"), "--to", "regular"]) == 0
        assert capsys.readouterr().out == out["regular"]

    @pytest.mark.parametrize("kind", ["lifting", "table"])
    def test_semantics_over_another_graph_refused(self, capsys, tmp_path, kind):
        # a lifting pair that targets, or a table entry that lives over, another
        # graph than the arity is refused on load: translated, the pair would
        # replace the arity, and the table would find every instance Invalid
        from dcl.fixtures import uniqueness_symbol
        from dcl.signature import (
            ConstraintSymbol,
            Signature,
            parallel_pair_arity,
            regular_to_lifting,
        )

        unique = uniqueness_symbol()
        lifting = regular_to_lifting(unique.arity, unique.semantics)
        data = json.loads(dumps(Signature({"[s]": ConstraintSymbol("[s]", unique.arity, lifting)})))
        if kind == "lifting":
            data["symbols"][0]["arity"] = parallel_pair_arity().to_json()
        else:
            entry = {
                "schema": {"nodes": ["X"], "arrows": []},
                "carrier": {"nodes": ["x"], "arrows": []},
                "typing": {"nodes": {"x": "X"}, "arrows": {}},
            }
            table = {"kind": "table", "entries": [{"id": "row", "instance": entry}]}
            data["symbols"][0]["semantics"] = table
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(data))
        assert main(["translate", str(path), "--to", "regular"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "symbol '[s]': its semantics lives over another graph"
        assert captured.err == f"error: {path}: {reason}\n"


class TestSatax:
    def test_clean_run(self, capsys):
        assert main(["satax", "--trials", "25", "--seed", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] == 25 and out["failed"] == 0
        assert "undecided" not in out

    def test_unknown_trials_are_undecided(self, capsys, monkeypatch):
        # both sides of a trial Unknown agree, but nothing was checked
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 2)
        assert main(["satax", "--trials", "50", "--seed", "7"]) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["failed"] == 0 and out["undecided"] > 0
        assert out["passed"] + out["undecided"] == 50
        assert captured.err.startswith("unknown: canonical-form bound exceeded: spent ")

    def test_reproducible(self, capsys):
        main(["satax", "--trials", "10", "--seed", "3"])
        first = capsys.readouterr().out
        main(["satax", "--trials", "10", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_fault_injection_caught(self, capsys):
        assert main(["satax", "--trials", "25", "--seed", "7", "--fault-inject"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["failed"] > 0 and out["failures"]


class TestInfer:
    def test_derivable_goal(self, capsys):
        assert main(["infer", OUT_THEORY, GOAL, "--depth", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "derivable"
        assert out["proof"]["rule"] == "CoproductMacro"

    def test_canonical_form_bound_prints_unknown(self, capsys, monkeypatch):
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 2)
        assert main(["infer", OUT_THEORY, GOAL]) == 2
        # the goal's key is the first canonical form computed; its first
        # component has 4 elements and links, and 6 incidences
        detail = "canonical-form bound exceeded: spent 10 of 2 units"
        assert json.loads(capsys.readouterr().out) == {"status": "unknown", "detail": detail}

    def test_symmetric_goal_ends_within_the_guard(self, capsys, tmp_path):
        # domains of 10 bare nodes sent onto 5 nodes, in fibres 2,2,2,2,2 and
        # 3,1,2,2,2: equal endpoints but not isomorphic; a search over the
        # 10! domain isomorphisms ran for more than a minute
        def fibred(sizes):
            dom = [f"a{i}" for i in range(sum(sizes))]
            owner = [f"b{j}" for j, k in enumerate(sizes) for _ in range(k)]
            s, q = Graph.build(dom), Graph.build(set(owner))
            return as_slice_morphism(GraphMorphism(s, q, dict(zip(dom, owner)), {}))

        theory, goal = tmp_path / "theory.json", tmp_path / "goal.json"
        pairs = InjTheory(terminal_graph(), {"pairs": fibred([2] * 5)})
        theory.write_text(json.dumps(theory_to_json(pairs)))
        goal.write_text(json.dumps(formula_to_json(fibred([3, 1, 2, 2, 2]))))
        argv = ["infer", str(theory), str(goal), "--depth", "1", "--size", "1"]
        assert within_seconds(10, lambda: main(argv)) == 2
        detail = "depth bound 1 reached: spent 10 of 4000 units"
        assert json.loads(capsys.readouterr().out) == {"status": "unknown", "detail": detail}

    def test_unknown_goal(self, capsys, tmp_path):
        goal = tmp_path / "goal.json"
        from dcl.graphs import GraphMorphism
        from dcl.instances import as_slice_morphism
        from dcl.io import formula_to_json

        s = Graph.build(["A"])
        q = Graph.build(
            ["A", "B"], [("r1", "A", "B"), ("r2", "A", "B"), ("r3", "B", "B")]
        )
        f = as_slice_morphism(GraphMorphism(s, q, {"A": "A"}, {}))
        goal.write_text(json.dumps(formula_to_json(f)))
        assert main(["infer", OUT_THEORY, str(goal), "--depth", "1"]) == 2

    @pytest.mark.parametrize(
        "theory,depth,detail",
        [
            (OUT_THEORY, "1", "depth bound 1 reached: spent 73 of 4000 units"),
            (
                data_path("edge-pair-theory.json"),
                "2",
                "proof-search bound exceeded: spent 5927 of 4000 units",
            ),
        ],
        ids=["depth-bound", "budget-bound"],
    )
    def test_unknown_prints_the_bound(self, capsys, tmp_path, theory, depth, detail):
        from dcl.graphs import GraphMorphism
        from dcl.instances import as_slice_morphism

        # every node has a loop: derivable from neither theory
        s, q = Graph.build(["A"]), Graph.build(["A"], [("l", "A", "A")])
        goal = tmp_path / "loop-goal.json"
        save(as_slice_morphism(GraphMorphism(s, q, {"A": "A"}, {})), goal)
        assert main(["infer", theory, str(goal), "--depth", depth]) == 2
        assert json.loads(capsys.readouterr().out) == {"status": "unknown", "detail": detail}


class TestCanonClose:
    def test_canon_iso_invariant(self, capsys, tmp_path):
        g1 = tmp_path / "g1.json"
        g2 = tmp_path / "g2.json"
        g1.write_text(dumps(Graph.build(["a", "b"], [("e", "a", "b")])))
        g2.write_text(dumps(Graph.build(["p", "q"], [("x", "p", "q")])))
        assert main(["canon", str(g1)]) == 0
        first = capsys.readouterr().out
        assert main(["canon", str(g2)]) == 0
        assert capsys.readouterr().out == first

    def test_canon_size_guard_exit_two(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "g.json"
        path.write_text(dumps(Graph.build(["a", "b"], [("e", "a", "b")])))
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 1)
        assert main(["canon", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: canonical-form bound exceeded: spent 4 of 1 units\n"

    def test_canon_de_bruijn_hits_bound(self, capsys, tmp_path):
        # B(2,9): 512 nodes, 1024 arrows, every node of in- and out-degree 2;
        # refinement never splits it, and the search runs out of work
        path = tmp_path / "debruijn.json"
        path.write_text(
            dumps(
                Graph.build(
                    [f"v{i}" for i in range(512)],
                    [
                        (f"e{i}.{b}", f"v{i}", f"v{(2 * i + b) % 512}")
                        for i in range(512)
                        for b in (0, 1)
                    ],
                )
            )
        )
        assert main(["canon", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: canonical-form bound exceeded: spent ")
        assert "Traceback" not in captured.err

    def test_close_adds_consequences(self, capsys, tmp_path):
        from dcl.graphs import GraphMorphism
        from dcl.fixtures import span_signature
        from dcl.sketch import ConstraintDeclaration, Sketch

        sig = span_signature()
        carrier = Graph.build(["L", "V", "T"], [("a", "L", "V"), ("b", "L", "T")])
        binding = GraphMorphism(
            sig.symbols["[jm]"].arity,
            carrier,
            {"0": "L", "1": "V", "2": "T"},
            {"01": "a", "02": "b"},
        )
        s = Sketch("s", carrier, sig, (ConstraintDeclaration("jm", "[jm]", binding),))
        path = tmp_path / "s.json"
        path.write_text(dumps(s))
        assert main(["close", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [d["id"] for d in out["declarations"]] == ["jm", "jm/d1", "jm/d2"]

    def test_close_and_check_prime_a_taken_id(self, capsys, tmp_path):
        # "x/d1" declares [1] on g, so the [1] on f that closure adds along d1
        # is "x/d1'", not a second "x/d1"
        from dcl.graphs import GraphMorphism
        from dcl.fixtures import span_signature
        from dcl.sketch import ConstraintDeclaration, Sketch

        sig = span_signature()
        carrier = Graph.build(["A", "B", "C"], [("f", "A", "B"), ("g", "A", "C")])
        ends = {"0": "A", "1": "B", "2": "C"}
        jm = GraphMorphism(sig.symbols["[jm]"].arity, carrier, ends, {"01": "f", "02": "g"})
        one = GraphMorphism(sig.symbols["[1]"].arity, carrier, {"A": "A", "B": "C"}, {"r": "g"})
        declarations = (
            ConstraintDeclaration("x", "[jm]", jm),
            ConstraintDeclaration("x/d1", "[1]", one),
        )
        path = tmp_path / "s.json"
        path.write_text(dumps(Sketch("s", carrier, sig, declarations)))
        assert main(["close", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        closed = [(d["id"], d["binding"]["arrows"]) for d in out["declarations"]]
        assert closed == [
            ("x", {"01": "f", "02": "g"}),
            ("x/d1", {"r": "g"}),
            ("x/d1'", {"r": "f"}),
        ]
        empty = tmp_path / "empty.json"
        empty.write_text(dumps(TypedInstance.empty(carrier)))
        assert main(["check", "--close", str(path), str(empty)]) == 0
        ids = [d["id"] for d in json.loads(capsys.readouterr().out)["declarations"]]
        assert ids == ["x", "x/d1", "x/d1'"]


class TestDepsCheck:
    def test_sound_signature(self, capsys, tmp_path):
        from dcl.graphs import identity
        from dcl.signature import Dependency, Signature, multiplicity_symbol

        exact = multiplicity_symbol([(1, 1)])
        loose = multiplicity_symbol([(1, None)])
        sig = Signature(
            {exact.name: exact, loose.name: loose},
            (Dependency("widen", exact.name, loose.name, identity(exact.arity)),),
        )
        path = tmp_path / "sig.json"
        path.write_text(dumps(sig))
        assert main(["deps-check", str(path), "--size", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["checked"] > 0

    def test_obligation_signature_flagged(self, capsys):
        # the jm signature delegates leg functionality to closure, so the
        # raw dependency sweep reports witnesses
        assert main(["deps-check", SPAN_SIG, "--size", "2"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert not out["ok"] and out["violations"]

    @pytest.mark.parametrize("undecided_side", ["source", "target"])
    def test_unknown_verdict_exit_two(self, capsys, tmp_path, undecided_side):
        # a zero search limit leaves some classes of [u0] undecided
        from dcl.fixtures import uniqueness_formula
        from dcl.graphs import identity
        from dcl.signature import ConstraintSymbol, Dependency, Regular, Signature
        from dcl.signature import multiplicity_symbol, single_arrow_arity

        bounded = ConstraintSymbol(
            "[u0]", single_arrow_arity(), Regular(uniqueness_formula(), search_limit=0)
        )
        loose = multiplicity_symbol([(0, None)])
        source, target = (bounded, loose) if undecided_side == "source" else (loose, bounded)
        sig = Signature(
            {bounded.name: bounded, loose.name: loose},
            (Dependency("d", source.name, target.name, identity(source.arity)),),
        )
        path = tmp_path / "sig.json"
        path.write_text(dumps(sig))
        assert main(["deps-check", str(path), "--size", "1"]) == 2
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert not out["ok"] and out["violations"] == [] and len(out["undecided"]) == 2
        detail = "injectivity-search bound exceeded: spent 1 of 0 units"
        assert all(u["status"] == "unknown" and u["detail"] == detail for u in out["undecided"])
        side = "class" if undecided_side == "source" else "restriction"
        assert all(u["on"] == side for u in out["undecided"])
        assert captured.err == f"unknown: {detail}\n"

    def test_witness_cap_ends_size_three(self, capsys):
        # the whole size-3 report would list millions of violations: the sweep
        # keeps the cap per leg and stops once both legs have dropped one
        code = within_seconds(30, lambda: main(["deps-check", SPAN_SIG, "--size", "3"]))
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["stopped"] == ["[jm]"]
        assert len(out["violations"]) == 2 * dcl.signature.SWEEP_WITNESS_LIMIT
        assert set(out["dropped"]) == {"d1", "d2"}
        assert all(c["violations"] > 0 and c["undecided"] == 0 for c in out["dropped"].values())

    def test_witness_cap_at_size_two(self, capsys, monkeypatch):
        # both legs reach their 1,495th violation at the last class but one, and
        # the last is not [jm]-valid: a cap of 1,495 drops nothing, and one of
        # 1,494 drops one per leg and stops, having checked as many
        main(["deps-check", SPAN_SIG, "--size", "2"])
        full = json.loads(capsys.readouterr().out)
        monkeypatch.setattr(dcl.signature, "SWEEP_WITNESS_LIMIT", 1495)
        main(["deps-check", SPAN_SIG, "--size", "2"])
        assert json.loads(capsys.readouterr().out) == full
        monkeypatch.setattr(dcl.signature, "SWEEP_WITNESS_LIMIT", 1494)
        assert main(["deps-check", SPAN_SIG, "--size", "2"]) == 1
        out = json.loads(capsys.readouterr().out)
        by_leg = [[v for v in full["violations"] if v["dependency"] == d] for d in ("d1", "d2")]
        assert out["violations"] == by_leg[0][:1494] + by_leg[1][:1494]
        assert out["dropped"] == {d: {"violations": 1, "undecided": 0} for d in ("d1", "d2")}
        assert out["stopped"] == ["[jm]"] and out["checked"] == full["checked"]

    def test_witness_cap_counts_undecided(self, capsys, monkeypatch):
        # at size 1 with a canonical-form bound of 2, each leg has 4 violations
        # and 12 undecided classes, and its 4th violation comes last
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 2)
        monkeypatch.setattr(dcl.signature, "SWEEP_WITNESS_LIMIT", 3)
        assert main(["deps-check", SPAN_SIG, "--size", "1"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert len(out["violations"]) == len(out["undecided"]) == 6
        assert out["dropped"] == {d: {"violations": 1, "undecided": 1} for d in ("d1", "d2")}
        assert out["stopped"] == ["[jm]"]

    def test_model_sweep_bound_ends_size_three(self, capsys, tmp_path):
        # [jm] onto [0..*] along 01 never violates, so neither the cap nor the
        # stop ends its size-3 sweep of millions of classes: the bound does
        from dcl.fixtures import span_signature
        from dcl.signature import Dependency, Signature, multiplicity_symbol
        from dcl.signature import single_arrow_arity

        jm = span_signature().symbols["[jm]"]
        anything = multiplicity_symbol([(0, None)])
        along = GraphMorphism(single_arrow_arity(), jm.arity, {"A": "0", "B": "1"}, {"r": "01"})
        sig = Signature(
            {jm.name: jm, anything.name: anything},
            (Dependency("d", jm.name, anything.name, along),),
        )
        path = tmp_path / "sig.json"
        path.write_text(dumps(sig))
        code = within_seconds(60, lambda: main(["deps-check", str(path), "--size", "3"]))
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        limit = dcl.signature.MODEL_SWEEP_LIMIT
        detail = f"model-sweep bound exceeded: spent {limit + 1} of {limit} units"
        assert code == 2 and not out["ok"] and out["bound"] == detail
        assert out["violations"] == [] and "undecided" not in out and out["checked"] > 0
        assert captured.err == f"unknown: {detail}\n"

    def test_model_sweep_bound_after_a_violation_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(dcl.signature, "MODEL_SWEEP_LIMIT", 100)
        assert main(["deps-check", SPAN_SIG, "--size", "2"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["violations"] and out["checked"] > 0
        assert out["bound"] == "model-sweep bound exceeded: spent 101 of 100 units"

    def test_canonical_form_bound_on_a_class_is_undecided(self, capsys, monkeypatch):
        # a class whose canonical form spends the bound is reported, witnessed
        # as enumerated, not an abort of the whole sweep
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 2)
        code = main(["deps-check", SPAN_SIG, "--size", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1 and out["violations"]
        assert {u["dependency"] for u in out["undecided"]} == {"d1", "d2"}
        for u in out["undecided"]:
            assert u["on"] == "class" and u["status"] == "unknown"
            assert u["detail"].startswith("canonical-form bound exceeded: spent ")
            assert all("#" in n for n in u["witness"]["carrier"]["nodes"])


def shipped(name: str):
    return json.loads(DATA.joinpath(name).read_text())


def replaced(document, key: str, value):
    """A copy of `document` with the value of the first `key` met, depth first,
    replaced by `value`."""
    document = copy.deepcopy(document)
    stack = [document]
    while stack:
        node = stack.pop()
        if isinstance(node, dict) and key in node:
            node[key] = value
            return document
        children = node.values() if isinstance(node, dict) else node
        stack.extend(c for c in reversed(list(children)) if isinstance(c, (dict, list)))
    raise KeyError(key)


def one_symbol_signature(symbol) -> dict:
    from dcl.signature import Signature

    return json.loads(dumps(Signature({symbol.name: symbol})))


def regular_signature() -> dict:
    from dcl.fixtures import existence_symbol

    return one_symbol_signature(existence_symbol())


def commutativity_signature() -> dict:
    from dcl.signature import commutativity_symbol

    return one_symbol_signature(commutativity_symbol())


def table_signature() -> dict:
    """One table symbol over the single arrow, with the entry "row"."""
    from dcl.signature import ConstraintSymbol, Table, single_arrow_arity

    arity = single_arrow_arity()
    carrier = Graph.build(["a1", "b1"], [("l1", "a1", "b1")])
    entry = TypedInstance.build(arity, carrier, {"a1": "A", "b1": "B"}, {"l1": "r"})
    return one_symbol_signature(ConstraintSymbol("[t]", arity, Table((("row", entry),))))


def set_at(document, path: tuple, value):
    """A copy of `document` with the value at the key and index `path` set to `value`."""
    document = copy.deepcopy(document)
    holder = document
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return document


# the payload file takes this place in the command, or comes last
PAYLOAD = "<payload>"
SKETCH_FILE = "registry-sketch.json"
CHECK_SKETCH = ["check", PAYLOAD, VALID]
TO_LIFTING = ["translate", "--to", "lifting"]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command,payload",
        [
            (["deps-check"], {"kind": "signature"}),
            (["infer", OUT_THEORY], {}),
            (["infer", OUT_THEORY], {"kind": "formula"}),
            (["check", SKETCH], {"kind": "instance", "schema": []}),
            (["canon"], {"kind": "graph", "nodes": [1, "a"], "arrows": []}),
            (
                ["canon"],
                {"kind": "graph", "nodes": ["a"], "arrows": [{"id": 7, "src": "a", "tgt": "a"}]},
            ),
            (
                ["canon"],
                {"kind": "graph", "nodes": ["a"], "arrows": [{"id": "e", "src": "a", "tgt": ["a"]}]},
            ),
            # semantics naming arrows that are not arrows of the arity
            (CHECK_SKETCH, replaced(shipped(SKETCH_FILE), "path1", ["r1", 1.5])),
            (CHECK_SKETCH, replaced(shipped(SKETCH_FILE), "second", "r3")),
            (CHECK_SKETCH, replaced(shipped(SKETCH_FILE), "path2", ["s1"])),
            (["deps-check"], replaced(shipped("span-signature.json"), "first", [])),
            (TO_LIFTING, replaced(commutativity_signature(), "path", "fg")),
            (TO_LIFTING, replaced(commutativity_signature(), "direct", None)),
            # counts that are not non-negative JSON integers
            (CHECK_SKETCH, replaced(shipped(SKETCH_FILE), "intervals", [["1", 1.7]])),
            (CHECK_SKETCH, replaced(shipped(SKETCH_FILE), "intervals", [[0, True]])),
            (CHECK_SKETCH, replaced(shipped(SKETCH_FILE), "intervals", [[-1, 1]])),
            (TO_LIFTING, replaced(regular_signature(), "search_limit", "many")),
            (TO_LIFTING, replaced(regular_signature(), "search_limit", True)),
            (TO_LIFTING, replaced(regular_signature(), "search_limit", -1)),
            # node and arrow fields that are not lists
            (["canon"], {"kind": "graph", "nodes": "ab", "arrows": []}),
            (["canon"], {"kind": "graph", "nodes": {"a": 1}, "arrows": []}),
            (["canon"], {"kind": "graph", "nodes": ["a"], "arrows": {}}),
            # ids and names that are not strings
            (CHECK_SKETCH, set_at(shipped(SKETCH_FILE), ("declarations", 0, "id"), True)),
            (
                ["close"],
                set_at(
                    set_at(shipped(SKETCH_FILE), ("declarations", 0, "id"), 1),
                    ("declarations", 1, "id"),
                    "1",
                ),
            ),
            (CHECK_SKETCH, set_at(shipped(SKETCH_FILE), ("name",), 1.5)),
            (TO_LIFTING, set_at(shipped("span-signature.json"), ("dependencies", 0, "id"), True)),
            (TO_LIFTING, set_at(regular_signature(), ("symbols", 0, "name"), 7)),
            (
                ["deps-check"],
                set_at(table_signature(), ("symbols", 0, "semantics", "entries", 0, "id"), 1),
            ),
        ],
    )
    def test_exit_three_with_message(self, capsys, tmp_path, command, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        if PAYLOAD not in command:
            command = command + [PAYLOAD]
        assert main([str(path) if arg == PAYLOAD else arg for arg in command]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command,payload,message",
        [
            (
                TO_LIFTING,
                set_at(shipped("span-signature.json"), ("dependencies", 1, "to"), "nosuch"),
                "dependency 'd2' names unknown symbol 'nosuch'",
            ),
            (
                ["infer", PAYLOAD, GOAL],
                set_at(shipped("out-edge-theory.json"), ("formulas",), []),
                "formulas: expected a dict, got list",
            ),
            (
                ["infer", PAYLOAD, GOAL],
                set_at(shipped("out-edge-theory.json"), ("ambient",), "graph"),
                "ambient: expected a dict, got str",
            ),
        ],
        ids=["unknown-symbol", "formulas-list", "ambient-string"],
    )
    def test_exit_three_names_what_is_wrong(self, capsys, tmp_path, command, payload, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        if PAYLOAD not in command:
            command = command + [PAYLOAD]
        assert main([str(path) if arg == PAYLOAD else arg for arg in command]) == 3
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("kind", [[], {}, 7, None])
    def test_semantics_kind_not_a_string(self, capsys, tmp_path, kind):
        # read as unknown, as a file kind is, not as an unhashable dict key
        path = tmp_path / "input.json"
        semantics = {"kind": kind, "first": "01", "second": "02"}
        path.write_text(json.dumps(replaced(shipped("span-signature.json"), "semantics", semantics)))
        assert main(["deps-check", str(path)]) == 3
        assert f"unknown semantics kind {kind!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,symbols,symbol,command",
        [
            # read as one [1..4,6] of [0..*], the five-wheels instance checked valid
            ("registry-sketch.json", ("signature", "symbols"), "[1..4,6]", ["check", PAYLOAD, FIVE]),
            # read as one [1] of [0..*], the sweep was ok over 3,212 restrictions
            ("span-signature.json", ("symbols",), "[1]", ["deps-check", PAYLOAD]),
        ],
    )
    def test_duplicate_symbol_name_exit_three(
        self, capsys, tmp_path, name, symbols, symbol, command
    ):
        document = shipped(name)
        holder = document
        for key in symbols:
            holder = holder[key]
        first = next(s for s in holder if s["name"] == symbol)
        holder.append({**first, "semantics": {"kind": "multiplicity", "intervals": [[0, None]]}})
        path = tmp_path / name
        path.write_text(json.dumps(document))
        assert main([str(path) if arg == PAYLOAD else arg for arg in command]) == 3
        assert capsys.readouterr().err == f"error: {path}: duplicate symbol name {symbol!r}\n"

    def test_deeply_nested_json_exit_three(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["canon", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err

    def test_long_dependency_chain_reported(self, capsys, tmp_path):
        # symbol i depends on symbol i + 1: a chain deeper than the recursion limit
        from dcl.graphs import identity
        from dcl.signature import Dependency, Signature, multiplicity_symbol

        symbols = [multiplicity_symbol([(0, None)], name=f"s{i}") for i in range(1500)]
        deps = tuple(
            Dependency(f"d{i}", a.name, b.name, identity(a.arity))
            for i, (a, b) in enumerate(zip(symbols, symbols[1:]))
        )
        path = tmp_path / "chain.json"
        path.write_text(dumps(Signature({s.name: s for s in symbols}, deps)))
        assert main(["deps-check", str(path), "--size", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["checked"] > 0

    def test_size_guard_while_loading_exit_two(self, capsys, tmp_path, monkeypatch):
        # a table entry is canonicalized when the signature is built
        from dcl.signature import ConstraintSymbol, Signature, Table, single_arrow_arity

        arity = single_arrow_arity()
        entry = {
            "schema": arity.to_json(),
            "carrier": {"nodes": ["a1", "b1"], "arrows": [{"id": "l1", "src": "a1", "tgt": "b1"}]},
            "typing": {"nodes": {"a1": "A", "b1": "B"}, "arrows": {"l1": "r"}},
        }
        sig = Signature({"[t]": ConstraintSymbol("[t]", arity, Table())})
        data = json.loads(dumps(sig))
        data["symbols"][0]["semantics"]["entries"] = [{"id": "row", "instance": entry}]
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(data))
        monkeypatch.setattr(dcl.graphs, "CANONICAL_WORK_LIMIT", 2)
        assert main(["deps-check", str(path)]) == 2
        assert "canonical-form bound exceeded" in capsys.readouterr().err


class TestArityShapeAtLoad:
    """A symbol whose arity has another shape than its semantics reads is
    refused when its signature is loaded, under every command that reads it."""

    SHAPES = {
        "multiplicity": (
            {"nodes": ["A", "B"], "arrows": [["r1", "A", "B"], ["r2", "A", "B"]]},
            {"kind": "multiplicity", "intervals": [[1, 1]]},
        ),
        "key": (
            {"nodes": ["C", "V", "W"], "arrows": [["k1", "C", "V"], ["k2", "V", "W"]]},
            {"kind": "key"},
        ),
        "jointly_monic": (
            {"nodes": ["0", "1", "2"], "arrows": [["01", "0", "1"], ["02", "1", "2"]]},
            {"kind": "jointly_monic", "first": "01", "second": "02"},
        ),
        "subset": (
            {"nodes": ["A", "B", "C"], "arrows": [["r1", "A", "B"], ["r2", "A", "C"]]},
            {"kind": "subset", "first": "r1", "second": "r2"},
        ),
        "composite_subset4": (
            {
                "nodes": ["A", "B", "C", "D", "E"],
                "arrows": [["r1", "A", "B"], ["r2", "B", "D"], ["s1", "A", "C"], ["s2", "C", "E"]],
            },
            {"kind": "composite_subset4", "path1": ["r1", "r2"], "path2": ["s1", "s2"]},
        ),
        "commutativity": (
            {
                "nodes": ["A", "B", "C", "D"],
                "arrows": [["f", "A", "B"], ["g", "C", "D"], ["h", "A", "D"]],
            },
            {"kind": "commutativity", "path": ["f", "g"], "direct": "h"},
        ),
    }

    @pytest.mark.parametrize("kind", SHAPES)
    @pytest.mark.parametrize(
        "command",
        [TO_LIFTING, ["deps-check"], ["close"], CHECK_SKETCH],
        ids=["translate", "deps-check", "close", "check"],
    )
    def test_exit_three_naming_the_symbol(self, capsys, tmp_path, kind, command):
        nodes, arrows = self.SHAPES[kind][0].values()
        arity = {"nodes": nodes, "arrows": [dict(zip(("id", "src", "tgt"), a)) for a in arrows]}
        symbol = {"name": "[s]", "arity": arity, "semantics": self.SHAPES[kind][1]}
        payload = {"kind": "signature", "symbols": [symbol]}
        if command[0] in ("close", "check"):
            empty = {"nodes": [], "arrows": []}
            payload = {"kind": "sketch", "carrier": empty, "signature": payload, "declarations": []}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        if PAYLOAD not in command:
            command = command + [PAYLOAD]
        assert main([str(path) if arg == PAYLOAD else arg for arg in command]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: symbol '[s]': a {kind} needs ")


# Each shipped file with the cheap commands that read it.
FUZZ_COMMANDS = {
    SKETCH_FILE: [CHECK_SKETCH, ["close", PAYLOAD]],
    "registry-valid.json": [["check", SKETCH, PAYLOAD], ["canon", PAYLOAD]],
    "span-signature.json": [
        ["translate", PAYLOAD, "--to", "lifting"],
        ["deps-check", PAYLOAD, "--size", "1"],
    ],
    "out-edge-theory.json": [["infer", PAYLOAD, GOAL, "--depth", "1"]],
    "edge-pair-theory.json": [["infer", PAYLOAD, GOAL, "--depth", "1"]],
    "coproduct-goal.json": [["infer", OUT_THEORY, PAYLOAD, "--depth", "1"]],
    "vehicle-fragment-map.json": [["migrate", PAYLOAD, VALID, "--direction", "pull"]],
}
OTHER_TYPE_VALUES = [None, True, 0, 1.5, "x", [], {}]


def json_parts(value, keys: set, strings: set) -> None:
    """Collect the dict keys and the string values of a JSON value."""
    if isinstance(value, dict):
        keys.update(value)
        children = value.values()
    elif isinstance(value, list):
        children = value
    else:
        if isinstance(value, str):
            strings.add(value)
        return
    for child in children:
        json_parts(child, keys, strings)


def holders(value, key: str) -> list:
    """The dicts inside a JSON value that have `key`."""
    if isinstance(value, dict):
        found = [value] if key in value else []
        children = value.values()
    elif isinstance(value, list):
        found, children = [], value
    else:
        return []
    return found + [d for child in children for d in holders(child, key)]


def mutate(document, rng: random.Random) -> None:
    """One mutation, in place: drop a key or element, give a value another
    type, duplicate a list element (such as an id) or rename a string.

    The place is drawn by key name first, a key that is also a string value
    (an id keying a map) standing in one group for them all, so the few
    keys that carry semantics are drawn as often as the many ids."""
    keys: set = set()
    strings: set = set()
    json_parts(document, keys, strings)
    key = rng.choice([None, *sorted(keys - strings)])
    if key is None:
        key = rng.choice(sorted(keys & strings))
    holder = rng.choice(holders(document, key))
    value = holder[key]
    while isinstance(value, list) and value and rng.random() < 0.5:
        holder, key = value, rng.randrange(len(value))
        value = holder[key]
    op = rng.choice(["drop", "retype", "rename"] + ["duplicate"] * isinstance(holder, list))
    if op == "drop":
        del holder[key]
    elif op == "retype":
        holder[key] = rng.choice([v for v in OTHER_TYPE_VALUES if type(v) is not type(value)])
    elif op == "duplicate":
        holder.insert(key, copy.deepcopy(value))
    else:
        name = rng.choice([f"{key}'", *sorted(keys | strings)])
        if isinstance(value, str):
            holder[key] = name
        elif isinstance(holder, dict):
            holder[name] = holder.pop(key)


class TestCliFuzz:
    # hypothesis picks the seed; the draws are uniform, which finds the few
    # keys that carry semantics far more often than its own biased draws
    @given(st.randoms(use_true_random=True))
    @settings(deadline=None)
    def test_mutated_shipped_files_exit_cleanly(self, rng):
        for _ in range(3):
            name = rng.choice(sorted(FUZZ_COMMANDS))
            document = shipped(name)
            mutate(document, rng)
            with tempfile.TemporaryDirectory() as tmp:
                path = pathlib.Path(tmp) / name
                path.write_text(json.dumps(document))
                for command in FUZZ_COMMANDS[name]:
                    argv = [str(path) if arg == PAYLOAD else arg for arg in command]
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        code = main(argv)
                    assert code in (0, 1, 2, 3), (argv, document)
                    assert "Traceback" not in err.getvalue()


def list_paths(value, path=()) -> list:
    """The key and index paths to every list inside a JSON value."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return []
    found = [path] if isinstance(value, list) else []
    return found + [p for key, child in children for p in list_paths(child, path + (key,))]


def reading_command(name: str) -> list:
    """A cheap command that reads the shipped file `name` in place of PAYLOAD."""
    # the registry mutations are instances shaped like the valid one
    return FUZZ_COMMANDS.get(name, FUZZ_COMMANDS["registry-valid.json"])[0]


RETYPED_LISTS = [
    (name, path, value)
    for name in sorted(p.name for p in DATA.iterdir() if p.name.endswith(".json"))
    for path in list_paths(shipped(name))
    for value in ({}, "")
]


class TestRetypedListFields:
    # a list read as another type must not pass for an empty or a shorter list
    @pytest.mark.parametrize(
        "name,path,value",
        RETYPED_LISTS,
        ids=[f"{n}:{'.'.join(map(str, p))}={json.dumps(v)}" for n, p, v in RETYPED_LISTS],
    )
    def test_exit_three(self, capsys, tmp_path, name, path, value):
        document = shipped(name)
        holder = document
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        file = tmp_path / name
        file.write_text(json.dumps(document))
        argv = [str(file) if arg == PAYLOAD else arg for arg in reading_command(name)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestRoundtrips:
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in DATA.iterdir() if p.name.endswith(".json"))
    )
    def test_parse_serialize_parse(self, name, tmp_path):
        obj = load(data_path(name))
        text = dumps(obj)
        again = tmp_path / name
        again.write_text(text)
        assert dumps(load(str(again))) == text


def kind_samples() -> list:
    """(kind, object) pairs covering every file kind, from the shipped files
    where one holds that kind; formulas both plain and over a schema."""
    from dcl.fixtures import existence_formula

    sketch, t = load(SKETCH), load(VALID)
    return [
        ("graph", t.carrier),
        ("morphism", load(FRAGMENT)),
        ("instance", t),
        ("delta", identity_delta(t)),
        ("signature", load(SPAN_SIG)),
        ("sketch", sketch),
        ("theory", load(OUT_THEORY)),
        ("formula", load(GOAL)),
        ("formula", existence_formula()),
    ]


class TestKindsTable:
    def test_samples_cover_every_kind(self):
        assert {kind for kind, _ in kind_samples()} == set(dcl.io._KINDS)

    @pytest.mark.parametrize("kind,obj", kind_samples())
    def test_write_read_write(self, kind, obj):
        data = to_json(obj)
        assert data["kind"] == kind
        assert to_json(from_json(data)) == data

    def test_plain_formula_keeps_its_ambient(self):
        # written as read: {"kind": "graph"}, not a slice ambient without its base
        assert json.loads(dumps(load(GOAL))) == shipped("coproduct-goal.json")

    @pytest.mark.parametrize("obj", [object(), 3, {"kind": "graph"}])
    def test_unsupported_object(self, obj):
        with pytest.raises(FormatError, match="cannot serialize"):
            to_json(obj)

    @pytest.mark.parametrize("kind", [{}, ["graph"]])
    def test_kind_not_a_string_exit_three(self, capsys, tmp_path, kind):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"kind": kind, "nodes": [], "arrows": []}))
        assert main(["canon", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown kind" in err and "Traceback" not in err

    def test_sketch_morphism_is_no_kind(self, capsys, tmp_path):
        # a reduct's report is `migrate --direction pull` then `check`, not a transfer
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"kind": "sketch_morphism"}))
        assert main(["canon", str(path)]) == 3
        assert capsys.readouterr().err == f"error: {path}: unknown kind 'sketch_morphism'\n"


# Hashes of stdout for commands on the shipped data, run from `dcl/data`.
# The benchmark checks verdicts only; these pin every byte: evidence, the
# order of offenders and witnesses, and the layout.
GOLDEN = [
    (["check", "registry-sketch.json", "registry-valid.json"], 0,
     "c35b71c36af6c3c54467e7a416794507dfc2009b97b5e86344f39467c5da3958"),
    (["check", "registry-sketch.json", "registry-five-wheels.json"], 1,
     "3e3d5621720adb96292077c6018e9e4f3a26a1f09ef6adb5f43b913713cf0f49"),
    (["check", "registry-sketch.json", "registry-dup-identity.json"], 1,
     "728c4e617235e463ac1bed55962516e70234b742b1b818ce208e8e09fd5607f7"),
    (["check", "registry-sketch.json", "registry-unlicensed.json"], 1,
     "eb75a3afad18c975133775da1bd5b367d642253ceb62caaa40eb484edca4abd3"),
    (["close", "registry-sketch.json"], 0,
     "f4270204219af52569f7a376030538c6928396c6aa5d665967bd32058329d281"),
    (["canon", "registry-valid.json"], 0,
     "557496ac7797adff6e87744a631e2f8f0023bc8d69dac0ffa64a1e34aa797e56"),
    (["translate", "span-signature.json", "--to", "lifting"], 0,
     "b36ea5c52c8cd3674df8064a8b0dcd3af0240f601428495ec25a05d8852b810a"),
    (["translate", "span-signature.json", "--to", "regular"], 0,
     "b36ea5c52c8cd3674df8064a8b0dcd3af0240f601428495ec25a05d8852b810a"),
    (["migrate", "vehicle-fragment-map.json", "registry-valid.json", "--direction", "pull"], 0,
     "e4b1c091584fb7b1e3b353f4deef0713a3054dc01da450869b9f1285cced500a"),
    (["infer", "out-edge-theory.json", "coproduct-goal.json"], 0,
     "3e94e95de1e231d96daef81dfaa8b2205088ace135a5192a72141fabe6e634ad"),
    (["deps-check", "span-signature.json", "--size", "2"], 1,
     "7b6dd676993a23375cec4fb9c62347b31ee3f26b012e63d47b82a56ab2c0dee0"),
    (["satax", "--trials", "1000", "--seed", "7"], 0,
     "f1bb4b9a8525fd9f5488e46bac27e410a36236175c144a7255567c4bc07db284"),
    (["satax", "--trials", "1000", "--seed", "7", "--fault-inject"], 1,
     "61e286ffb91ef37aa12480cdbe314a0401494be5d721cbc86c6dc46607a81f51"),
]


class TestGoldenStdout:
    @pytest.mark.parametrize(
        "argv,code,digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
    )
    def test_stdout_hash(self, capsys, monkeypatch, argv, code, digest):
        monkeypatch.chdir(str(DATA))
        assert main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
JSON_KEYS = [st.text(), st.integers() | st.booleans() | st.floats(allow_nan=False), st.none()]
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        *(st.dictionaries(keys, inner) for keys in JSON_KEYS),
    ),
    max_leaves=30,
)


class TestJsonWriter:
    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_equals_indented_json_dumps(self, value):
        # tuples, empty containers, non-ASCII and control characters, int keys
        assert _indented(value) == json.dumps(value, indent=2, sort_keys=True)


def run_with_hash_seed(args: list[str], seed: int) -> str:
    """Stdout of `python args` under PYTHONHASHSEED=seed, importing this dcl."""
    src = str(pathlib.Path(dcl.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestHashSeedIndependence:
    def test_canonical_relabelings(self):
        code = (
            "import hashlib, json, random\n"
            "from dcl.instances import _canonical_delta, as_slice, identity_delta\n"
            "from dcl.randgen import random_graph\n"
            "rng, digest = random.Random(0), hashlib.sha256()\n"
            "for _ in range(3000):\n"
            "    r = _canonical_delta(identity_delta(as_slice(random_graph(rng, 6, 8)))).left.map\n"
            "    digest.update(json.dumps([r.node_map, r.arrow_map]).encode())\n"
            "print(digest.hexdigest())\n"
        )
        assert len({run_with_hash_seed(["-c", code], seed) for seed in (1, 2, 3)}) == 1

    def test_migrate_delta_stdout(self, tmp_path):
        paths = automorphic_delta_files(tmp_path)
        argv = ["-m", "dcl.cli", "migrate", *paths, "--direction", "pull"]
        assert len({run_with_hash_seed(argv, seed) for seed in (1, 2, 3)}) == 1


def automorphic_delta_files(tmp_path) -> list[str]:
    """Paths of a schema map and a delta to pull back along it.  Seed 329
    draws an apex with automorphisms: which one the canonical renaming of
    the pulled-back apex picks decides the printed legs."""
    rng = random.Random(329)
    schema = random_graph(rng, 2, 2)
    f = random_morphism_into(rng, schema, 3, 4)
    apex = random_typed_instance(rng, schema, 3, 8)
    target = random_typed_instance(rng, schema, 2, 3)
    leg = next(iter_slice_morphisms(apex, target))
    paths = [str(tmp_path / "map.json"), str(tmp_path / "delta.json")]
    save(f, paths[0])
    save(Delta(SliceMorphism.identity(apex), leg), paths[1])
    return paths


def cycles_delta_files(tmp_path) -> list[str]:
    """Paths of the identity map of a two-node schema and the identity delta
    of a 4-cycle and a 2-cycle that alternate between its nodes.  The ids
    interleave the two fibres, and refinement leaves both cycles to the
    search: an apex numbered fibre by fibre, not in sorted-id order, takes
    other automorphisms and prints other legs."""
    schema = Graph.build(["A", "B"], [("f", "A", "B"), ("g", "B", "A")])
    cycles = [["v637", "v261", "v759", "v367"], ["v814", "v707"]]
    steps = [(v, c[(i + 1) % len(c)], i % 2) for c in cycles for i, v in enumerate(c)]
    carrier = Graph.build([v for c in cycles for v in c], [(f"a{v}", v, w) for v, w, _ in steps])
    node_typing = {v: "AB"[odd] for v, _, odd in steps}
    t = TypedInstance.build(schema, carrier, node_typing, {f"a{v}": "fg"[odd] for v, _, odd in steps})
    paths = [str(tmp_path / "map.json"), str(tmp_path / "delta.json")]
    save(identity(schema), paths[0])
    save(identity_delta(t), paths[1])
    return paths


class TestCanonicalDigests:
    """Stdout digests of canonical forms that no shipped file reaches: any
    change to how a canonical order is named shows here."""

    @pytest.mark.parametrize(
        "files,expected",
        [
            (
                automorphic_delta_files,
                "aa40dd0e3eb73645d322eb9909a2c104ac33872eae2ee2a632661be7fa1790f0",
            ),
            (
                cycles_delta_files,
                "6aa10c56279574fcb1040178070317d14631dee6a7314ad7f0f895480bc9f6b1",
            ),
        ],
        ids=["seed-329", "cycles"],
    )
    def test_migrate_pull_on_automorphic_apex(self, capsys, tmp_path, files, expected):
        assert main(["migrate", *files(tmp_path), "--direction", "pull"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected

    def test_canon_on_random_graphs(self, capsys, tmp_path):
        rng, digest = random.Random(0), hashlib.sha256()
        for i in range(50):
            path = tmp_path / f"g{i}.json"
            save(random_graph(rng, 7, 10), str(path))
            assert main(["canon", str(path)]) == 0
            digest.update(capsys.readouterr().out.encode())
        expected = "a0297f5d905cd52209335e8cdb7f900fa0bcdc4f80b7483405c5e2bb83b480a0"
        assert digest.hexdigest() == expected


class TestExports:
    def test_every_exported_name_resolves(self):
        assert len(set(dcl.__all__)) == len(dcl.__all__)
        assert [name for name in dcl.__all__ if not hasattr(dcl, name)] == []
        namespace: dict = {}
        exec("from dcl import *", namespace)
        assert set(dcl.__all__) <= set(namespace)
