"""Command-line interface: exit codes, output formats, and round trips."""

import json
from fractions import Fraction

import pytest

from welfareshare import cli, core, egalitarian, rivals
from welfareshare.cli import main
from welfareshare.model import MAX_EXPONENT, parse_rational
from welfareshare.welfare import MAX_TABLE_AGENTS, SetFunctionOracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


EX_MATCHING = {
    "kind": "matching",
    "agents": ["ann", "bob"],
    "items": ["attic", "cellar"],
    "values": [["3", "1"], ["1", "3"]],
    "rent": "2",
}


class TestSolve:
    def test_two_shapley_exact(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "fixture:TWO(delta=1/5)",
            "--mechanism",
            "shapley",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["utilities"] == ["4/5", "0"]

    def test_lexmax_dominates_rp(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "fixture:EX1(delta=1/10)",
            "--mechanism",
            "lexmax",
            "--disagreement",
            "rp",
        )
        assert code == 0
        doc = json.loads(out)
        us = [parse_rational(u) for u in doc["utilities"]]
        ds = [parse_rational(u) for u in doc["disagreement"]["utilities"]]
        assert all(u >= d for u, d in zip(us, ds))

    def test_empty_core_exit_code(self, capsys, tmp_path):
        dfile = tmp_path / "d.json"
        dfile.write_text(json.dumps({"utilities": ["0", "0", "0"]}))
        code, _, err = run(
            capsys,
            "solve",
            "fixture:EMPTY_CORE",
            "--mechanism",
            "lexmax",
            "--disagreement",
            f"explicit={dfile}",
        )
        assert code == 4
        assert "empty" in err.lower()

    def test_rent_is_shifted(self, capsys, tmp_path):
        path = write_instance(tmp_path / "inst.json", EX_MATCHING)
        code, out, _ = run(capsys, "solve", path, "--mechanism", "lexmax")
        assert code == 0
        doc = json.loads(out)
        # welfare 6 minus rent 2 split between symmetric agents
        us = [parse_rational(u) for u in doc["utilities"]]
        assert sum(us) == 4
        assert us[0] == us[1]

    def test_explain_attaches_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "fixture:TWO(delta=1/5)",
            "--mechanism",
            "lexmax",
            "--explain",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trace"]["exhausted"] is True

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["fixture:EX1(delta=1/10)", "--explain"], 1),
            (["fixture:WF_FAIL", "--explain"], 1),
            (["fixture:WF_FAIL"], 0),
        ],
    )
    def test_water_filling_runs_at_most_once(self, capsys, monkeypatch, argv, expected):
        calls = []
        water_filling = egalitarian.water_filling

        def counting(o, d):
            calls.append(d)
            return water_filling(o, d)

        for module in (cli, egalitarian, rivals):
            if hasattr(module, "water_filling"):
                monkeypatch.setattr(module, "water_filling", counting)
        code, _, _ = run(capsys, "solve", *argv)
        assert code == 0
        assert len(calls) == expected

    def test_explain_lp_fallback_output(self, capsys):
        # WF_FAIL is not submodular: the LP answers, water filling stalls
        code, out, _ = run(capsys, "solve", "fixture:WF_FAIL", "--explain")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["mechanism", "alternative", "transfers", "utilities",
                             "disagreement", "trace"]
        assert (doc["alternative"], doc["utilities"]) == (1, ["0", "1", "1"])
        assert doc["trace"] == {
            "initially_locked": [],
            "initial_tight": [],
            "iterations": [
                {
                    "increment": "1/3",
                    "locked": [0, 1, 2],
                    "tight_sets": [
                        {"agents": [0, 1], "wmax": "1"},
                        {"agents": [0, 2], "wmax": "1"},
                    ],
                }
            ],
            "final_utilities": ["1/3", "2/3", "2/3"],
            "exhausted": False,
        }
        code, out, _ = run(capsys, "solve", "fixture:WF_FAIL", "--explain", "--output", "table")
        assert code == 0
        assert out.endswith(
            "water filling exhausted: False\n  raise by 1/3, lock agents [0, 1, 2]\n"
        )

    def test_explain_water_filling_output(self, capsys):
        code, out, _ = run(
            capsys, "solve", "fixture:EX1(delta=1/10)", "--explain", "--output", "table"
        )
        assert code == 0
        assert out.splitlines()[-3:] == [
            "student3              3/5         ≈0.6              0",
            "water filling exhausted: True",
            "  raise by 1/20, lock agents [0, 1]",
        ]

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "fixture:TWO(delta=1/5)",
            "--output",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "agent,utility,transfer"
        assert len(lines) == 3

    def test_table_output(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "fixture:TWO(delta=1/5)",
            "--output",
            "table",
        )
        assert code == 0
        assert "mechanism: lexmax" in out
        assert "≈" in out

    def test_json_values_are_exact_rationals(self, capsys):
        code, out, _ = run(capsys, "solve", "fixture:EX5", "--disagreement", "uniform")
        assert code == 0
        doc = json.loads(out)
        for key in ("utilities", "transfers"):
            for s in doc[key]:
                parse_rational(s)  # must not raise


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/file.json")
        assert code == 2
        assert "error" in err

    def test_malformed_fixture(self, capsys):
        code, _, _ = run(capsys, "solve", "fixture:EX1(delta=1/10")
        assert code == 2

    def test_unknown_fixture(self, capsys):
        code, _, _ = run(capsys, "solve", "fixture:NOPE")
        assert code == 2

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "solve", str(path))
        assert code == 2

    def test_incompatible_mechanism(self, capsys):
        code, _, _ = run(
            capsys, "solve", "fixture:EX2", "--mechanism", "ef-maxmin"
        )
        assert code == 3

    def test_incompatible_disagreement(self, capsys):
        code, _, _ = run(
            capsys, "solve", "fixture:EX2", "--disagreement", "rp"
        )
        assert code == 3

    @pytest.mark.parametrize(
        "n, mechanism, message",
        [
            (MAX_TABLE_AGENTS + 1, "nash", f"takes at most {MAX_TABLE_AGENTS} agents"),
            (15, "shapley", "shapley enumeration bound exceeded"),
        ],
    )
    def test_past_enumeration_bound(self, capsys, tmp_path, n, mechanism, message):
        doc = {"kind": "general", "alternatives": ["a", "b"], "values": [["1", "0"]] * n}
        path = write_instance(tmp_path / "big.json", doc)
        code, out, err = run(capsys, "solve", path, "--mechanism", mechanism)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("where", ["embedded", "file"])
    def test_float_disagreement_utility(self, capsys, tmp_path, where):
        utilities = [1.5, "0"]
        if where == "embedded":
            doc = dict(EX_MATCHING, disagreement={"mode": "explicit", "utilities": utilities})
            argv = [write_instance(tmp_path / "inst.json", doc)]
        else:
            dfile = tmp_path / "d.json"
            dfile.write_text(json.dumps({"utilities": utilities}))
            argv = ["fixture:TWO(delta=1/5)", "--disagreement", f"explicit={dfile}"]
        code, _, err = run(capsys, "solve", *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "float" in err

    def test_explicit_disagreement_wrong_length(self, capsys, tmp_path):
        dfile = tmp_path / "d.json"
        dfile.write_text(json.dumps({"utilities": ["0", "0", "0"]}))
        code, _, err = run(
            capsys, "solve", "fixture:TWO(delta=1/5)", "--disagreement", f"explicit={dfile}"
        )
        assert code == 2
        assert err == "error: disagreement has 3 utilities for 2 agents\n"

    @pytest.mark.parametrize(
        "where, text",
        [
            ("values", "1/0"),
            ("rent", "1/0"),
            ("embedded", "1/0"),
            ("file", "1/0"),
            ("values", f"1e{MAX_EXPONENT + 1}"),
        ],
    )
    def test_unparseable_rational(self, capsys, tmp_path, where, text):
        doc = dict(EX_MATCHING)
        argv = []
        if where == "values":
            doc["values"] = [[text, "1"], ["1", "2"]]
        elif where == "rent":
            doc["rent"] = text
        elif where == "embedded":
            doc["disagreement"] = {"mode": "explicit", "utilities": [text, "0"]}
        else:
            dfile = tmp_path / "d.json"
            dfile.write_text(json.dumps({"utilities": [text, "0"]}))
            argv = ["--disagreement", f"explicit={dfile}"]
        code, _, err = run(capsys, "solve", write_instance(tmp_path / "inst.json", doc), *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_default_rp_beyond_bound(self, capsys, tmp_path):
        n = 11
        doc = {
            "kind": "matching",
            "items": [f"item{j}" for j in range(n)],
            "values": [[str((i * j) % 7) for j in range(n)] for i in range(n)],
        }
        code, _, err = run(capsys, "solve", write_instance(tmp_path / "inst.json", doc))
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--disagreement rp-mc" in err


class TestOracleReuse:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "fixture:EX1(delta=1/10)", "--mechanism", "lexmax", "--explain"],
            ["compare", "fixture:EX1(delta=1/10)", "--output", "json"],
        ],
    )
    def test_one_oracle_per_call(self, capsys, monkeypatch, argv):
        built = []
        init = SetFunctionOracle.__init__

        def counting_init(self, backing):
            built.append(backing)
            init(self, backing)

        monkeypatch.setattr(SetFunctionOracle, "__init__", counting_init)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(built) == 1


class TestEmptyCore:
    def test_empty_core_reported(self, capsys):
        code, out, _ = run(capsys, "compare", "fixture:EMPTY_CORE", "--output", "json")
        assert code == 0
        errors = {e["mechanism"]: e.get("error") for e in json.loads(out)}
        assert errors["lexmax"] == errors["nucleolus-ws"] == "empty WS-core"
        assert errors["shapley"] is None
        code, out, _ = run(capsys, "compare", "fixture:EMPTY_CORE", "--output", "table")
        assert code == 0
        assert f"{'lexmax':<14} empty WS-core\n" in out
        assert f"{'nucleolus-ws':<14} empty WS-core\n" in out
        code, _, err = run(capsys, "solve", "fixture:EMPTY_CORE", "--mechanism", "nucleolus-ws")
        assert code == 4
        assert err == "error: WS-core is empty\n"

    @pytest.mark.parametrize("fixture", ["fixture:EX1(delta=1/10)", "fixture:EMPTY_CORE"])
    def test_compare_solves_the_core_lp_once(self, capsys, monkeypatch, fixture):
        # the lexmax and nucleolus-ws guards share one verdict per game; the
        # WS-core feasibility LP is the only one over nonnegative variables
        core_lps = []
        solve = core.simplex_solve

        def counting_solve(lp):
            if lp.nonneg:
                core_lps.append(lp)
            return solve(lp)

        monkeypatch.setattr(core, "simplex_solve", counting_solve)
        code, _, _ = run(capsys, "compare", fixture, "--output", "json")
        assert code == 0
        assert len(core_lps) == 1


class TestCheck:
    def test_ex4_submodular_fails(self, capsys):
        code, out, _ = run(capsys, "check", "fixture:EX4", "--submodular")
        assert code == 1
        assert "submodular: no" in out
        assert "witness" in out

    def test_matching_submodular_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "fixture:EX1(delta=1/10)", "--submodular"
        )
        assert code == 0
        assert "submodular: yes" in out

    def test_ex1_decompose(self, capsys):
        code, out, _ = run(
            capsys, "check", "fixture:EX1(delta=1/10)", "--decompose"
        )
        assert code == 0
        assert "2 block(s)" in out

    def test_ws_core_nonempty(self, capsys):
        code, out, _ = run(
            capsys,
            "check",
            "fixture:EX1(delta=1/10)",
            "--ws-core",
            "--disagreement",
            "rp",
        )
        assert code == 0
        assert out == "ws-core: nonempty  witness 3/5 1/2 3/5\n"

    def test_solution_round_trip(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "solve",
            "fixture:EX1(delta=1/10)",
            "--mechanism",
            "lexmax",
            "--disagreement",
            "rp",
        )
        assert code == 0
        sol_file = tmp_path / "sol.json"
        sol_file.write_text(out)
        code, out, _ = run(
            capsys,
            "check",
            "fixture:EX1(delta=1/10)",
            "--anticore",
            str(sol_file),
        )
        assert code == 0
        assert "anticore: ok" in out

    def test_anticore_violation_detected(self, capsys, tmp_path):
        sol_file = tmp_path / "sol.json"
        sol_file.write_text(json.dumps({"utilities": ["100", "100", "100"]}))
        code, out, _ = run(
            capsys,
            "check",
            "fixture:EX1(delta=1/10)",
            "--anticore",
            str(sol_file),
        )
        assert code == 1
        assert "violation" in out

    @pytest.mark.parametrize(
        "utilities, message",
        [([0.5, "0", "0"], "float"), (["0"], "solution has 1 utilities for 3 agents")],
    )
    def test_bad_anticore_utilities(self, capsys, tmp_path, utilities, message):
        sol_file = tmp_path / "sol.json"
        sol_file.write_text(json.dumps({"utilities": utilities}))
        code, _, err = run(
            capsys, "check", "fixture:EX1(delta=1/10)", "--anticore", str(sol_file)
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestCompare:
    def test_two_table(self, capsys):
        code, out, _ = run(capsys, "compare", "fixture:TWO(delta=1/5)")
        assert code == 0
        for tag in ("lexmax", "shapley", "ks", "nash", "nucleolus-ws", "ef-maxmin"):
            assert tag in out

    def test_two_json_values(self, capsys):
        code, out, _ = run(
            capsys, "compare", "fixture:TWO(delta=1/5)", "--output", "json"
        )
        assert code == 0
        doc = {entry["mechanism"]: entry for entry in json.loads(out)}
        delta = Fraction(1, 5)
        assert doc["lexmax"]["utilities"] == ["3/5", "1/5"]
        assert doc["shapley"]["utilities"] == ["4/5", "0"]
        ks = [parse_rational(u) for u in doc["ks"]["utilities"]]
        assert ks == [(1 - delta) / (1 + delta), delta * (1 - delta) / (1 + delta)]
        assert doc["nucleolus-ws"]["utilities"] == ["7/10", "1/10"]
        ef = [parse_rational(u) for u in doc["ef-maxmin"]["utilities"]]
        assert ef == [(1 - delta) / 2, (1 - delta) / 2]

    def test_ks4_ks_not_weakly_decomposable(self, capsys):
        code, out, _ = run(
            capsys, "compare", "fixture:KS4", "--output", "json"
        )
        assert code == 0
        doc = {entry["mechanism"]: entry for entry in json.loads(out)}
        assert doc["ks"]["flags"]["weakly_decomposable"] is False

    def test_ex3_shapley_not_in_anticore(self, capsys):
        code, out, _ = run(capsys, "compare", "fixture:EX3", "--output", "json")
        assert code == 0
        doc = {entry["mechanism"]: entry for entry in json.loads(out)}
        assert doc["shapley"]["flags"]["in_anticore"] is False
