import json
from importlib import resources

import pytest

from dcl.cli import main
from dcl.io import dumps, load
from dcl.graphs import Graph


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

    def test_wrong_kind_exit_three(self, capsys):
        assert main(["check", SKETCH, SPAN_SIG]) == 3

    def test_deterministic_output(self, capsys):
        main(["check", SKETCH, VALID])
        first = capsys.readouterr().out
        main(["check", SKETCH, VALID])
        assert capsys.readouterr().out == first

    def test_size_guard_hit_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("DCL_SIZE_GUARD", "2")
        assert main(["check", SKETCH, VALID]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["overall"] == "unknown"
        details = [d["detail"] or "" for d in out["declarations"]]
        assert any("DCL_SIZE_GUARD" in detail for detail in details)


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


class TestSatax:
    def test_clean_run(self, capsys):
        assert main(["satax", "--trials", "25", "--seed", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] == 25 and out["failed"] == 0

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

    def test_unknown_goal(self, capsys, tmp_path):
        goal = tmp_path / "goal.json"
        from dcl.graphs import GraphMorphism
        from dcl.injlogic import as_slice_morphism
        from dcl.io import formula_to_json

        s = Graph.build(["A"])
        q = Graph.build(
            ["A", "B"], [("r1", "A", "B"), ("r2", "A", "B"), ("r3", "B", "B")]
        )
        f = as_slice_morphism(GraphMorphism(s, q, {"A": "A"}, {}))
        goal.write_text(json.dumps(formula_to_json(f, plain=True)))
        assert main(["infer", OUT_THEORY, str(goal), "--depth", "1"]) == 2


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
        monkeypatch.setenv("DCL_SIZE_GUARD", "1")
        assert main(["canon", str(path)]) == 2
        assert "DCL_SIZE_GUARD" in capsys.readouterr().err

    def test_close_adds_consequences(self, capsys, tmp_path):
        from dcl.fixtures import span_single_valued_signature
        from dcl.graphs import GraphMorphism
        from dcl.sketch import ConstraintDeclaration, Sketch

        sig = span_single_valued_signature()
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
        ],
    )
    def test_exit_three_with_message(self, capsys, tmp_path, command, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        assert main(command + [str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

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
            "carrier": {"nodes": ["a1", "a2", "a3"], "arrows": []},
            "typing": {"nodes": {"a1": "A", "a2": "A", "a3": "A"}, "arrows": {}},
        }
        sig = Signature({"[t]": ConstraintSymbol("[t]", arity, Table())})
        data = json.loads(dumps(sig))
        data["symbols"][0]["semantics"]["entries"] = [{"id": "row", "instance": entry}]
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(data))
        monkeypatch.setenv("DCL_SIZE_GUARD", "2")
        assert main(["deps-check", str(path)]) == 2
        assert "DCL_SIZE_GUARD" in capsys.readouterr().err


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
