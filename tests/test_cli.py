"""Command-line interface: exit codes, output formats, and round trips."""

import json
from fractions import Fraction

import pytest

from welfareshare import cli, core, egalitarian, rivals
from welfareshare.cli import main
from welfareshare.decompose import MAX_EXACT_COMPONENT_AGENTS, MAX_GENERAL_COMPONENT_AGENTS
from welfareshare.model import MAX_EXPONENT, parse_rational
from welfareshare.rivals import MAX_SHAPLEY_AGENTS
from welfareshare.welfare import MAX_SUBMODULAR_AGENTS, MAX_TABLE_AGENTS, SetFunctionOracle


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

    def test_table_output_past_the_float_range(self, capsys, tmp_path):
        # 1e400 overflows a float; the approximate column rounds exactly
        doc = {"kind": "matching", "items": ["a", "b"], "values": [["1e400", "0"], ["0", "1"]]}
        code, out, _ = run(
            capsys, "solve", write_instance(tmp_path / "big.json", doc), "--output", "table"
        )
        assert code == 0
        assert "≈1e+400" in out

    @pytest.mark.parametrize(
        "x, text",
        [
            # a subnormal float keeps too few digits, below it a float is 0,
            # and past the float range there is none
            (Fraction(123456, 10**325), "1.23456e-320"),
            (Fraction(1, 10**400), "1e-400"),
            (Fraction(-1, 10**400), "-1e-400"),
            (Fraction(-(10**400)), "-1e+400"),
            # in the float range the float's own digits
            (Fraction(0), "0"),
            (Fraction(1, 3), "0.333333"),
            (Fraction(-7, 2), "-3.5"),
            (Fraction(123456789), "1.23457e+08"),
            (Fraction(22250738585072014, 10**324), "2.22507e-308"),
        ],
    )
    def test_approx_rounds_exactly_past_the_normal_floats(self, x, text):
        assert cli._approx(x) == text

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

    @pytest.mark.parametrize(
        "params, first_utility",
        [
            ("", "1/2"),
            (", variant=false", "1/2"),
            (", variant=0", "1/2"),
            (", variant=true", "3/4"),
            (", variant=1", "3/4"),
        ],
    )
    def test_lip_variant(self, capsys, params, first_utility):
        code, out, _ = run(capsys, "solve", f"fixture:LIP(n=4{params})", "--mechanism", "shapley")
        assert code == 0
        assert json.loads(out)["utilities"][0] == first_utility

    def test_lip_variant_not_a_flag(self, capsys):
        code, out, err = run(
            capsys, "solve", "fixture:LIP(n=4, variant=maybe)", "--mechanism", "shapley"
        )
        assert (code, out) == (2, "")
        assert err == "error: LIP variant must be true, false, 1 or 0, not 'maybe'\n"

    @pytest.mark.parametrize(
        "spec, key",
        [("fixture:EX2(delta=1)", "delta"), ("fixture:EX1(delta=1/10, foo=1)", "foo")],
    )
    def test_unknown_fixture_parameter(self, capsys, spec, key):
        code, out, err = run(capsys, "solve", spec)
        assert (code, out) == (2, "")
        assert err == f"error: fixture {spec[8:11]} takes no parameter '{key}'\n"

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
        "n, task, message",
        [
            (MAX_TABLE_AGENTS + 1, "nash", f"takes at most {MAX_TABLE_AGENTS} agents"),
            (MAX_SHAPLEY_AGENTS + 1, "shapley", "shapley enumeration bound exceeded"),
            (
                MAX_SUBMODULAR_AGENTS + 1,
                "submodular",
                "submodularity check exceeds enumeration bound",
            ),
        ],
    )
    def test_past_enumeration_bound(self, capsys, tmp_path, n, task, message):
        # task: a mechanism for solve, or "submodular" for check --submodular
        doc = {"kind": "general", "alternatives": ["a", "b"], "values": [["1", "0"]] * n}
        path = write_instance(tmp_path / "big.json", doc)
        if task == "submodular":
            code, out, err = run(capsys, "check", path, "--submodular")
        else:
            code, out, err = run(capsys, "solve", path, "--mechanism", task)
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

    @pytest.mark.parametrize(
        "where, message",
        [
            ("values", "values must be a JSON array"),
            ("row", "each row of values must be a JSON array"),
            ("items", "items must be a JSON array"),
            ("alternatives", "alternatives must be a JSON array"),
            ("agents", "agents must be a JSON array"),
            ("null agents", "agents must be a JSON array"),
            ("embedded", "bad embedded disagreement: utilities must be a JSON array"),
            ("file", "bad disagreement file: utilities must be a JSON array"),
            ("anticore", "bad solution file: utilities must be a JSON array"),
        ],
    )
    def test_string_where_an_array_belongs(self, capsys, tmp_path, where, message):
        # a JSON string is a sequence in Python: "12" would read as (1, 2)
        doc, argv = dict(EX_MATCHING), ["solve"]
        if where == "values":
            doc["values"] = "3113"
        elif where == "row":
            doc = {"kind": "matching", "items": "ab", "values": ["12", "34"]}
        elif where == "items":
            doc["items"] = "ac"
        elif where == "alternatives":
            doc = {"kind": "general", "alternatives": "ab", "values": [["1", "0"]]}
        elif where in ("agents", "null agents"):
            doc["agents"] = "ab" if where == "agents" else None
        elif where == "embedded":
            doc["disagreement"] = {"mode": "explicit", "utilities": "12"}
        else:
            dfile = tmp_path / "d.json"
            dfile.write_text(json.dumps({"utilities": "12"}))
            if where == "file":
                argv += ["--disagreement", f"explicit={dfile}"]
            else:
                argv = ["check", "--anticore", str(dfile)]
        path = write_instance(tmp_path / "inst.json", doc)
        code, out, err = run(capsys, *argv, path)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("where", ["values", "rent", "embedded", "file", "anticore"])
    def test_bool_where_a_number_belongs(self, capsys, tmp_path, where):
        # JSON true is a Python bool, an int subclass: it must not read as 1
        doc, argv = dict(EX_MATCHING), ["solve"]
        if where == "values":
            doc["values"] = [[True, "1"], ["1", "3"]]
        elif where == "rent":
            doc["rent"] = True
        elif where == "embedded":
            doc["disagreement"] = {"mode": "explicit", "utilities": [True, "0"]}
        else:
            dfile = tmp_path / "d.json"
            dfile.write_text(json.dumps({"utilities": [True, "0"]}))
            if where == "file":
                argv += ["--disagreement", f"explicit={dfile}"]
            else:
                argv = ["check", "--anticore", str(dfile)]
        path = write_instance(tmp_path / "inst.json", doc)
        code, out, err = run(capsys, *argv, path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "refusing bool input" in err

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

    @pytest.mark.parametrize("command", ["solve", "check", "compare"])
    def test_rent_on_a_rectangular_matching(self, capsys, tmp_path, command):
        doc = dict(EX_MATCHING, items=["attic", "cellar", "shed"],
                   values=[["3", "1", "0"], ["1", "3", "0"]], rent="4")
        code, out, err = run(capsys, command, write_instance(tmp_path / "inst.json", doc))
        assert (code, out) == (2, "")
        assert err == "error: rent needs a square matching instance\n"

    @pytest.mark.parametrize(
        "disagreement, argv, message",
        [
            (["0", "0"], [], "embedded disagreement must be an object"),
            ({"mode": 5}, [], "embedded disagreement mode must be a string, not 5"),
            ({"mode": "rp-mc", "seed": "7"}, [], "seed must be an integer, not '7'"),
            ({"mode": "rp-mc", "seed": True}, [], "seed must be an integer, not True"),
            ({"mode": "rp-mc", "samples": "10"}, [],
             "samples must be a positive integer, not '10'"),
            ({"mode": "rp-mc", "samples": 0}, [], "samples must be a positive integer, not 0"),
            (None, ["--disagreement", "rp-mc", "--samples", "0"], "positive integer, not 0"),
            ({"utilities": ["1", "1"]}, [], 'utilities need "mode": "explicit"'),
            ({"mode": "rp", "utilities": ["1", "1"]}, [], 'utilities need "mode": "explicit"'),
        ],
    )
    def test_bad_disagreement_options(self, capsys, tmp_path, disagreement, argv, message):
        doc = dict(EX_MATCHING, disagreement=disagreement)
        path = write_instance(tmp_path / "inst.json", doc)
        code, out, err = run(capsys, "solve", path, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_embedded_rp_mc_options(self, capsys, tmp_path):
        doc = dict(EX_MATCHING, disagreement={"mode": "rp-mc", "seed": 3, "samples": 40})
        code, out, _ = run(capsys, "solve", write_instance(tmp_path / "inst.json", doc))
        assert code == 0
        assert json.loads(out)["disagreement"]["provenance"] == "rp_montecarlo(seed=3, samples=40)"

    @pytest.mark.parametrize(
        "flags, provenance",
        [
            (["--seed", "9", "--samples", "70"], "rp_montecarlo(seed=9, samples=70)"),
            (["--seed", "9"], "rp_montecarlo(seed=9, samples=50)"),
            (["--samples", "70"], "rp_montecarlo(seed=4, samples=70)"),
        ],
    )
    def test_command_line_beats_embedded_rp_mc_options(self, capsys, tmp_path, flags, provenance):
        doc = dict(EX_MATCHING, disagreement={"mode": "rp-mc", "seed": 4, "samples": 50})
        path = write_instance(tmp_path / "inst.json", doc)
        code, out, _ = run(capsys, "solve", path, *flags)
        assert code == 0
        assert json.loads(out)["disagreement"]["provenance"] == provenance

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

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "general", "alternatives": ["a", "b"], "values": [[-1, 0], [-1, 1], [0, -1]],
             "disagreement": {"mode": "explicit", "utilities": ["1", "1", "-1"]}},
            {"kind": "matching", "items": ["w", "x", "y", "z"],
             "values": [[-3, 3, 2, -6], [-2, -10, 3, -10], [2, 8, 1, 1], [4, 2, -4, -9]],
             "disagreement": {"mode": "explicit", "utilities": ["5", "7", "5", "1"]}},
            {"kind": "matching", "items": ["x", "y"], "values": [[7, -3], [1, -9]], "rent": "-2",
             "disagreement": {"mode": "explicit", "utilities": ["4", "6"]}},
        ],
    )
    def test_ks_at_the_best_point(self, capsys, tmp_path, doc):
        # d(N) = sum of W_max({i}) > W_max(N): ks has no balanced point
        path = write_instance(tmp_path / "inst.json", doc)
        code, _, err = run(capsys, "solve", path, "--mechanism", "ks")
        assert (code, err) == (4, "error: WS-core is empty\n")
        code, out, _ = run(capsys, "compare", path, "--output", "json")
        assert code == 0
        errors = {e["mechanism"]: e.get("error") for e in json.loads(out)}
        assert errors["ks"] == errors["lexmax"] == "empty WS-core"
        assert errors["shapley"] is errors["nash"] is None

    @pytest.mark.parametrize("fixture", ["fixture:EX1(delta=1/10)", "fixture:EMPTY_CORE"])
    def test_compare_solves_no_core_lp(self, capsys, monkeypatch, fixture):
        # the WS-core feasibility LP is the one LP over nonnegative variables;
        # lexmax and nucleolus-ws decide emptiness from their own answers
        core_lps = []
        solve = core.simplex_solve

        def counting_solve(lp):
            if lp.nonneg:
                core_lps.append(lp)
            return solve(lp)

        monkeypatch.setattr(core, "simplex_solve", counting_solve)
        code, _, _ = run(capsys, "compare", fixture, "--output", "json")
        assert code == 0
        assert core_lps == []


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

    @pytest.mark.parametrize(
        "n, certificate",
        [
            (MAX_EXACT_COMPONENT_AGENTS, "exact"),
            (MAX_EXACT_COMPONENT_AGENTS + 1, "sufficient"),
        ],
    )
    def test_decompose_matching_at_the_bound(self, capsys, tmp_path, n, certificate):
        # each agent keeps her own item: singleton blocks, and each exact
        # block walks one state, so the edge costs little on both sides
        doc = {
            "kind": "matching",
            "items": [f"item{j}" for j in range(n)],
            "values": [["9" if i == j else "0" for j in range(n)] for i in range(n)],
        }
        path = write_instance(tmp_path / "inst.json", doc)
        code, out, _ = run(capsys, "check", path, "--decompose")
        assert code == 0
        assert out.splitlines()[0] == f"components ({certificate}): {n} block(s)"

    @pytest.mark.parametrize(
        "n, first_line",
        [
            (MAX_GENERAL_COMPONENT_AGENTS, "components (exact): 6 block(s)"),
            (MAX_GENERAL_COMPONENT_AGENTS + 1, "components (trivial): 1 block(s)"),
        ],
    )
    def test_decompose_general_at_the_bound(self, capsys, tmp_path, n, first_line):
        doc = {"kind": "general", "alternatives": ["a", "b"], "values": [["1", "0"]] * n}
        path = write_instance(tmp_path / "inst.json", doc)
        code, out, _ = run(capsys, "check", path, "--decompose")
        assert code == 0
        assert out.splitlines()[0] == first_line

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
