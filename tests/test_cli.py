import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qperm
from qperm.acceptance import _rich_spec
from qperm.cli import ExperimentConfig, build_parser, main
from qperm.errors import QpermError
from qperm.exchange import free_iid_functional
from qperm.weingarten import rational_str


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestEnvelope:
    def test_schema_fields(self, capsys):
        code, report = run_json(capsys, "haar", "moment", "--n", "4", "--i", "1", "--j", "2")
        assert code == 0
        assert set(report) == {"command", "config", "results", "pass"}
        assert report["pass"] is True

    def test_deterministic_output(self, capsys):
        args = ("weingarten", "dk", "--k", "2", "--n-range", "4..9")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestPartitionsCli:
    def test_enum_nc_k4_has_14(self, capsys):
        code, report = run_json(capsys, "partitions", "enum", "--k", "4", "--nc")
        assert code == 0
        assert report["results"]["count"] == 14
        assert len(report["results"]["partitions"]) == 14

    def test_enum_csv(self, capsys):
        code, out = run(capsys, "partitions", "enum", "--k", "2", "--csv")
        assert code == 0
        # comma-bearing partition texts are quoted, so the CSV stays parseable
        assert out.splitlines() == ["1|2", '"1,2"']

    def test_mobius(self, capsys):
        code, report = run_json(
            capsys, "partitions", "mobius", "--p", "1|2|3|4", "--q", "1,2,3,4"
        )
        assert code == 0
        assert report["results"]["mobius"] == -5


class TestWeingartenCli:
    def test_table_k2_n4(self, capsys):
        code, report = run_json(capsys, "weingarten", "table", "--k", "2", "--n", "4")
        assert code == 0
        assert report["results"]["matrix"] == [["1/12", "-1/12"], ["-1/12", "1/3"]]
        assert report["results"]["index"] == ["1|2", "1,2"]

    def test_table_csv_mirrors_order(self, capsys):
        import csv as csv_mod
        import io

        code, out = run(capsys, "weingarten", "table", "--k", "2", "--n", "4", "--csv")
        assert code == 0
        rows = list(csv_mod.reader(io.StringIO(out)))
        assert rows == [["1|2", "1/12", "-1/12"], ["1,2", "-1/12", "1/3"]]

    def test_k8_table_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        assert main(["weingarten", "table", "--k", "8", "--n", "5"]) == 1
        assert time.perf_counter() - start < 5
        assert "k <= 7" in capsys.readouterr().err

    def test_singular_is_usage_error_with_parameters(self, capsys):
        code = main(["weingarten", "table", "--k", "2", "--n", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "k=2" in err and "n=1" in err

    def test_asym_single_pair(self, capsys):
        code, report = run_json(
            capsys,
            "weingarten", "asym", "--k", "2", "--n-range", "4..12",
            "--p", "1|2", "--q", "1,2",
        )
        assert code == 0
        entry = report["results"][0]
        assert entry["relation"] == "mobius_residual"
        assert entry["bounded"] is True
        assert entry["rows"][0]["n"] == 4

    def test_dk_values(self, capsys):
        code, report = run_json(capsys, "weingarten", "dk", "--k", "2", "--n-range", "4..6")
        assert code == 0
        assert report["results"]["values"][0] == {"n": 4, "dk": "16/3"}


class TestHaarCli:
    def test_first_moment(self, capsys):
        code, report = run_json(capsys, "haar", "moment", "--n", "4", "--i", "1", "--j", "2")
        assert code == 0
        assert report["results"]["value"] == "1/4"

    def test_word_moment(self, capsys):
        code, report = run_json(
            capsys, "haar", "moment", "--n", "4", "--i", "1,2", "--j", "3,3"
        )
        assert code == 0
        assert report["results"]["value"] == "0/1"

    def test_n13_first_moment_is_fast(self, capsys):
        # the Weingarten sum at k = 1; an average over 13! permutations would
        # run for hours
        start = time.perf_counter()
        code, report = run_json(capsys, "haar", "moment", "--n", "13", "--i", "1", "--j", "1")
        assert code == 0
        assert report["results"]["value"] == "1/13"
        assert report["config"] == {"n": 13, "i": [1], "j": [1]}
        assert time.perf_counter() - start < 5

    def test_method_flag_is_gone(self, capsys):
        assert main(["haar", "moment", "--n", "4", "--i", "1", "--j", "1",
                     "--method", "average"]) == 1


class TestCumulantsCli:
    SPEC = {"alphabet": ["c"], "k_max": 8, "cumulants": {"c,c": "1/1"}}

    def test_convert_spec_to_moment(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        code, report = run_json(
            capsys, "cumulants", "convert", "--spec", str(path), "--word", "c,c,c,c"
        )
        assert code == 0
        assert report["results"]["value"] == "2/1"

    def test_convert_moments_to_cumulant(self, capsys, tmp_path):
        moments = {
            "alphabet": ["a"],
            "k_max": 2,
            "moments": {"a": "1/2", "a,a": "1/1"},
        }
        path = tmp_path / "mf.json"
        path.write_text(json.dumps(moments))
        code, report = run_json(
            capsys, "cumulants", "convert", "--moments", str(path), "--word", "a,a"
        )
        assert code == 0
        assert report["results"]["value"] == "3/4"  # 1 - (1/2)^2

    def test_free_moment(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        code, report = run_json(
            capsys,
            "cumulants", "free-moment", "--spec", str(path),
            "--letters", "c,c,c,c", "--labels", "1,2,1,2",
        )
        assert code == 0
        assert report["results"]["value"] == "0/1"

    def test_check_free_detects_tensor_pair(self, capsys, tmp_path):
        moments = {}
        import itertools

        for k in range(1, 5):
            for word in itertools.product("ab", repeat=k):
                even = all(word.count(s) % 2 == 0 for s in set(word))
                moments[",".join(word)] = "1/1" if even else "0/1"
        data = {"alphabet": ["a", "b"], "k_max": 4, "moments": moments}
        path = tmp_path / "mf.json"
        path.write_text(json.dumps(data))
        code, report = run_json(
            capsys,
            "cumulants", "check-free", "--moments", str(path), "--families", "a=1,b=2",
        )
        assert code == 2
        assert report["pass"] is False
        assert report["results"]["violations"]

    def test_check_free_tolerance_applies_to_rationals(self, capsys, tmp_path):
        # kappa(a, b) = kappa(b, a) = 1/1000: not free exactly, free within 1/100
        moments = {"a": "0", "b": "0", "a,a": "1", "b,b": "1", "a,b": "1/1000", "b,a": "1/1000"}
        path = tmp_path / "mf.json"
        path.write_text(json.dumps({"alphabet": ["a", "b"], "k_max": 2, "moments": moments}))
        args = ("cumulants", "check-free", "--moments", str(path), "--families", "a=1,b=2")
        code, report = run_json(capsys, *args)
        assert code == 2
        assert report["results"]["free"] is False
        assert {v["value"] for v in report["results"]["violations"]} == {"1/1000"}
        code, report = run_json(capsys, *args, "--tol", "1/100")
        assert code == 0
        assert report["results"]["free"] is True

    @pytest.mark.parametrize(
        "tol, message", [("--tol=-1/100", "tolerance must be >= 0"), ("--tol=abc", "bad rational")]
    )
    def test_check_free_refuses_a_bad_tolerance(self, capsys, tmp_path, tol, message):
        # every mixed cumulant is exactly 0, so only the tolerance can fail the run
        moments = {"a": "0", "b": "0", "a,a": "1", "b,b": "1", "a,b": "0", "b,a": "0"}
        path = tmp_path / "mf.json"
        path.write_text(json.dumps({"alphabet": ["a", "b"], "k_max": 2, "moments": moments}))
        args = ["cumulants", "check-free", "--moments", str(path), "--families", "a=1,b=2"]
        assert main(args + [tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


    @pytest.mark.parametrize("degree", ["0", "-1", "5"])
    def test_check_free_refuses_a_degree_outside_one_to_kmax(self, capsys, degree):
        path = Path(__file__).parent / "golden" / "tensor.json"  # k_max 4
        args = ["cumulants", "check-free", "--moments", str(path), "--families", "a=1,b=2"]
        assert main(args + [f"--kmax={degree}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"max_degree {degree} outside 1..4" in captured.err

    def test_check_free_refuses_families_for_letters_outside_the_alphabet(self, capsys):
        path = Path(__file__).parent / "golden" / "mf.json"  # alphabet: a
        args = ["cumulants", "check-free", "--moments", str(path), "--families", "a=1,b=2"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "not in the alphabet" in captured.err


class TestUrnCli:
    def test_quantum(self, capsys):
        code, report = run_json(
            capsys, "urn", "quantum", "--n", "4", "--lam", "1,0,0,0", "--j", "1,1"
        )
        assert code == 0
        assert report["results"]["value"] == "1/4"

    def test_classical(self, capsys):
        code, report = run_json(
            capsys, "urn", "classical", "--n", "2", "--lam", "1,0", "--j", "1,2"
        )
        assert code == 0
        assert report["results"]["value"] == "0/1"

    def test_classical_above_eight_weights(self, capsys):
        lam = ",".join(["1"] * 5 + ["0"] * 7)
        code, report = run_json(
            capsys, "urn", "classical", "--n", "12", "--lam", lam, "--j", "1,2,3"
        )
        assert code == 0
        assert report["results"]["value"] == "1/22"

    def test_classical_more_than_k_max_labels(self, capsys):
        ones = ",".join(["1"] * 9)
        labels = ",".join(str(x) for x in range(1, 10))
        assert main(["urn", "classical", "--n", "9", "--lam", ones, "--j", labels]) == 1
        assert "k=9" in capsys.readouterr().err

    def test_gap(self, capsys):
        code, report = run_json(
            capsys, "urn", "gap", "--n", "6", "--lam", "1,1,1,0,0,0", "--j", "1,2,1,2"
        )
        assert code == 0
        results = report["results"]
        assert Fraction(results["gap"]) <= Fraction(results["bound"])

    def test_gap_outside_unit_weights(self, capsys):
        code, report = run_json(capsys, "urn", "gap", "--n", "4", "--lam", "5,0,0,0", "--j", "1,2")
        assert code == 0
        assert report["results"]["gap"] == "25/16"

    def test_rational_weights(self, capsys):
        code, report = run_json(
            capsys, "urn", "quantum", "--n", "3", "--lam", "1/2,1/2,1/2", "--j", "2,2"
        )
        assert code == 0
        assert report["results"]["value"] == "1/4"


class TestMagicCli:
    def test_validate_permutation(self, capsys):
        code, report = run_json(capsys, "magic", "validate", "--perm", "2,1,3")
        assert code == 0
        assert report["results"]["violations"] == []

    def test_validate_two_projection(self, capsys):
        code, report = run_json(capsys, "magic", "validate", "--line", "3,4")
        assert code == 0
        assert report["results"] == {"n": 4, "d": 2, "violations": []}

    @pytest.mark.parametrize(
        "line, message", [("3", "bad line"), ("3,4,5", "bad line"), ("0,0", "a line needs")]
    )
    def test_refuses_a_bad_line(self, capsys, line, message):
        assert main(["magic", "validate", "--line", line]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_invariance_violation_exit_code(self, capsys, tmp_path):
        import itertools

        moments = {}
        for k in range(1, 5):
            for word in itertools.product(range(1, 5), repeat=k):
                even = all(word.count(s) % 2 == 0 for s in set(word))
                moments[",".join(str(x) for x in word)] = "1/1" if even else "0/1"
        data = {"alphabet": ["1", "2", "3", "4"], "k_max": 4, "moments": moments}
        path = tmp_path / "mf.json"
        path.write_text(json.dumps(data))
        code, report = run_json(
            capsys,
            "magic", "invariance", "--line", "3,4",
            "--moments", str(path), "--degree", "4",
        )
        assert code == 2
        assert report["pass"] is False
        assert report["results"]["max_deviation"] == "288/625"
        assert report["results"]["witness"] == [1, 3, 1, 3]
        code, report = run_json(
            capsys,
            "magic", "invariance", "--perm", "2,1,4,3",
            "--moments", str(path), "--degree", "4",
        )
        assert code == 0

    def test_exact_invariance_reports_the_deviation(self, capsys, tmp_path):
        # criterion 8's n = 4 functional, one word raised off its kernel class
        mf = free_iid_functional(_rich_spec(4), 4, 4)
        mf.moments[(1, 3, 2, 3)] += Fraction(1, 10)
        path = tmp_path / "mf.json"
        path.write_text(json.dumps(mf.to_json_dict()))
        args = ("magic", "invariance", "--moments", str(path), "--degree", "4")
        for unitary in (("--perm", "2,1,3,4"), ("--line", "3,4")):
            code, report = run_json(capsys, *args, *unitary)
            assert code == 2
            assert report["pass"] is False
            assert report["results"]["max_deviation"] == "1/10"
            assert report["results"]["witness"] == [1, 3, 2, 3]

    @pytest.mark.parametrize("degree", ["0", "-1", "5"])
    def test_invariance_refuses_a_degree_outside_one_to_kmax(self, capsys, degree):
        path = Path(__file__).parent / "golden" / "labels.json"  # k_max 4
        args = ["magic", "invariance", "--perm", "2,1,4,3", "--moments", str(path)]
        assert main(args + [f"--degree={degree}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"max_degree {degree} outside 1..4" in captured.err


class TestReproduceAll:
    def test_smoke_config_passes(self, capsys):
        code, report = run_json(
            capsys,
            "reproduce-all", "--k-max", "3", "--n-range", "4..6",
        )
        assert code == 0
        assert report["pass"] is True
        assert len(report["results"]) == 13
        for entry in report["results"]:
            assert entry["pass"] is True

    def test_one_point_sweep_passes(self, capsys):
        # the no-growth rule of criteria 3 and 10 holds on a single n
        code, report = run_json(capsys, "reproduce-all", "--k-max", "2", "--n-range", "4..4")
        assert code == 0
        assert len(report["results"]) == 13

    def test_byte_identical_for_fixed_seed(self, capsys):
        args = ("reproduce-all", "--k-max", "2", "--n-range", "4..5", "--seed", "5")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_timings_file_leaves_stdout_unchanged(self, capsys, tmp_path):
        args = ("reproduce-all", "--k-max", "2", "--n-range", "4..5", "--seed", "5")
        path = tmp_path / "timings.json"
        _, plain = run(capsys, *args)
        code, timed = run(capsys, *args, "--timings", str(path))
        assert code == 0
        assert timed == plain
        timings = json.loads(path.read_text())
        assert [c["criterion"] for c in timings["criteria"]] == list(range(1, 14))
        assert all(c["seconds"] >= 0 for c in timings["criteria"])
        pair = timings["caches"]["qperm.weingarten._weingarten_pair"]
        assert set(pair) == {"hits", "misses", "maxsize", "currsize"}
        assert pair["currsize"] >= 1
        assert "qperm.partitions._all_nc" in timings["caches"]
        assert "qperm.exchange._urn_vector" in timings["caches"]
        assert timings["caches"]["qperm.exchange._gap_bound"]["currsize"] >= 1
        # tables built by earlier tests are cached here, so only some builds show
        assert all(b["count"] >= 1 and b["seconds"] >= 0 for b in timings["builds"].values())
        cold = tmp_path / "cold.json"
        env = {**os.environ, "PYTHONPATH": str(Path(qperm.__file__).resolve().parents[1])}
        command = [sys.executable, "-m", "qperm.cli", *args, "--timings", str(cold)]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0 and done.stdout == plain
        assert set(json.loads(cold.read_text())["builds"]) == {
            "NC order", "mobius column", "join exponents", "inverse", "certificate",
            "urn vector", "free vector",
        }

    @pytest.mark.parametrize("n_range", ["10..12", "5..60", "2..8"])
    def test_refuses_a_bottom_other_than_four(self, capsys, n_range):
        # the sweeps start at their own n; echoing another LO would misreport the run
        assert main(["reproduce-all", "--k-max", "2", "--n-range", n_range]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "only the top HI trims them" in captured.err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["partitions", "enum", "--bogus"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["urn", "--help"]) == 0

    def test_bad_partition_text(self, capsys):
        assert main(["partitions", "mobius", "--p", "1,,2", "--q", "1,2"]) == 1

    def test_bad_range(self, capsys):
        assert main(["weingarten", "dk", "--k", "2", "--n-range", "x..y"]) == 1

    def test_pair_outside_nc_k(self, capsys):
        assert main(["weingarten", "asym", "--k", "2", "--n-range", "4..5",
                     "--p", "1|2|3", "--q", "1,2,3"]) == 1

    def test_out_of_bound_k(self, capsys):
        assert main(["partitions", "enum", "--k", "0"]) == 1

    def test_mobius_above_k_max(self, capsys):
        # refused with BoundError before the NC(10) order is built
        p = "|".join(str(x) for x in range(1, 11))
        q = ",".join(str(x) for x in range(1, 11))
        assert main(["partitions", "mobius", "--p", p, "--q", q]) == 1
        assert "k=10" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["cumulants", "free-moment", "--spec", "/nope.json",
                     "--letters", "c", "--labels", "1"]) == 1

    def test_conflicting_unitary_flags(self, capsys):
        assert main(["magic", "validate", "--perm", "1,2", "--line", "3,4"]) == 1

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["magic", "validate", "--perm", "2,1", "--line", "3,4"], ("--perm", "--line")),
            (["magic", "validate"], ("--perm", "--line")),
            (["cumulants", "convert", "--spec", "S", "--moments", "M", "--word", "c"],
             ("--spec", "--moments")),
            (["cumulants", "convert", "--word", "c"], ("--spec", "--moments")),
        ],
        ids=["unitary-both", "unitary-neither", "input-both", "input-neither"],
    )
    def test_flag_conflicts_name_both_flags(self, capsys, argv, flags):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(flag in captured.err for flag in flags), captured.err

    def test_empty_permutation_is_one_error_line(self, capsys):
        # an empty --perm is given, so it is parsed, not taken for a missing flag
        assert main(["magic", "validate", "--perm", ""]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


GOLDEN = Path(__file__).resolve().parent / "golden"


def _command_paths(parser, path=()):
    """The argparse path of every subcommand below `parser`."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return [" ".join(path)]
    return [
        command
        for name, sub in subparsers[0].choices.items()
        for command in _command_paths(sub, (*path, name))
    ]


class TestCommandField:
    """The JSON report's "command" is the argparse path of the subcommand."""

    ARGV = {
        "partitions enum": ["--k", "3"],
        "partitions mobius": ["--p", "1|2", "--q", "1,2"],
        "weingarten table": ["--k", "2", "--n", "4"],
        "weingarten asym": ["--k", "2", "--n-range", "4..5"],
        "weingarten dk": ["--k", "2", "--n-range", "4..5"],
        "haar moment": ["--n", "4", "--i", "1", "--j", "2"],
        "cumulants convert": ["--spec", str(GOLDEN / "spec.json"), "--word", "c,c"],
        "cumulants free-moment": [
            "--spec", str(GOLDEN / "spec.json"), "--letters", "c,c", "--labels", "1,1",
        ],
        "cumulants check-free": [
            "--moments", str(GOLDEN / "tensor.json"), "--families", "a=1,b=2",
        ],
        "urn quantum": ["--n", "4", "--lam", "1,0,0,0", "--j", "1,1"],
        "urn classical": ["--n", "4", "--lam", "1,0,0,0", "--j", "1,1"],
        "urn gap": ["--n", "4", "--lam", "1,0,0,0", "--j", "1,1"],
        "magic validate": ["--perm", "2,1"],
        "magic invariance": [
            "--perm", "2,1,4,3", "--moments", str(GOLDEN / "labels.json"), "--degree", "2",
        ],
        "reproduce-all": ["--k-max", "2", "--n-range", "4..4"],
    }

    def test_every_subcommand_is_covered(self):
        assert sorted(_command_paths(build_parser())) == sorted(self.ARGV)

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_command_is_the_argparse_path(self, capsys, command):
        code, report = run_json(capsys, *command.split(), *self.ARGV[command])
        assert code in (0, 2)
        assert report["command"] == command


class TestJsonInputErrors:
    """Bad JSON input ends in one "error: ..." line naming the bad key or
    value, with exit code 1 and no report."""

    FREE = {"a": "0", "b": "0", "a,a": "1", "b,b": "1", "a,b": "0", "b,a": "0"}

    @pytest.mark.parametrize(
        "data, argv, message",
        [
            ({"alphabet": ["a"], "k_max": 2},
             ["cumulants", "convert", "--moments", "@", "--word", "a,a"], "no 'moments' key"),
            ({"alphabet": ["c"], "k_max": 2, "moments": {"c": "0"}},
             ["cumulants", "convert", "--spec", "@", "--word", "c,c"], "no 'cumulants' key"),
            ([1, 2], ["cumulants", "convert", "--moments", "@", "--word", "a"], "not an object"),
            ({"alphabet": ["a"], "k_max": 2, "moments": ["a"]},
             ["cumulants", "convert", "--moments", "@", "--word", "a"],
             "moments ['a'] is not a JSON object"),
            ({"alphabet": 5, "k_max": 2, "moments": {"a": "0"}},
             ["cumulants", "convert", "--moments", "@", "--word", "a"],
             "alphabet 5 is not a JSON array"),
            ({"alphabet": ["a"], "k_max": 2, "moments": {"a": "0", "a,a": "x"}},
             ["cumulants", "convert", "--moments", "@", "--word", "a,a"],
             "'a,a': 'x' is not a rational"),
            ({"alphabet": ["a"], "k_max": 2.5, "moments": {"a": "0", "a,a": "1"}},
             ["cumulants", "convert", "--moments", "@", "--word", "a,a"],
             "k_max=2.5 must be an integer"),
            ({"alphabet": ["a", "b"], "k_max": 2, "moments": FREE},
             ["cumulants", "check-free", "--moments", "@", "--families", "a=1"],
             "no family for the letters ['b']"),
            ({"alphabet": ["a", "b"], "k_max": 1, "moments": {"a": "0", "b": "0"}},
             ["magic", "invariance", "--perm", "2,1", "--moments", "@", "--degree", "1"],
             "moment word 'a'"),
        ],
        ids=["moments-missing", "cumulants-missing", "input-not-object", "moments-not-object",
             "alphabet-not-array", "value-not-rational", "k_max-not-integer",
             "letter-without-family", "labels-not-integers"],
    )
    def test_refused_with_one_error_line(self, capsys, tmp_path, data, argv, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        assert main([str(path) if arg == "@" else arg for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


class TestExperimentConfig:
    def test_validates(self):
        ExperimentConfig(k_max=4, n_range=(4, 8))
        with pytest.raises(QpermError):
            ExperimentConfig(k_max=0)
        with pytest.raises(QpermError):
            ExperimentConfig(n_range=(5, 4))

    def test_rational_round_trip(self):
        for q in [Fraction(3, 7), Fraction(-1, 12), Fraction(5), Fraction(0)]:
            assert Fraction(rational_str(q)) == q

    @given(st.fractions())
    def test_rational_round_trip_randomized(self, q):
        assert Fraction(rational_str(q)) == q


class TestReadme:
    README = Path(__file__).resolve().parent.parent / "README.md"

    @classmethod
    def documented_commands(cls):
        readme = cls.README.read_text()
        return [
            line
            for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
            for line in block.splitlines()
            if line.startswith("qperm ")
        ]

    def test_every_documented_command_parses(self):
        # keeps removed flags and subcommands out of the documentation
        lines = self.documented_commands()
        assert len(lines) >= 14
        parser = build_parser()
        for line in lines:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
            assert callable(args.handler), line

    def test_every_documented_command_runs(self, capsys, monkeypatch):
        # the input files the examples name are the ones in tests/golden/
        monkeypatch.chdir(GOLDEN)
        for line in self.documented_commands():
            code = main(shlex.split(line, comments=True)[1:])
            captured = capsys.readouterr()
            assert code in (0, 2), (line, captured.err)
            assert captured.out and captured.err == "", line

    def test_python_tour_runs_and_matches_its_comments(self):
        # the block's last line asserts the gap bound; each line `expr  # value`
        # whose comment starts with an integer or a Fraction must give that value
        (block,) = re.findall(r"^```python\n(.*?)^```", self.README.read_text(), flags=re.M | re.S)
        namespace = {}
        exec(block, namespace)
        checked = 0
        for line in block.splitlines():
            expr, _, comment = line.partition("  # ")
            value = re.match(r"-?\d+|Fraction\(-?\d+, \d+\)", comment.lstrip())
            if value:
                assert eval(expr, namespace) == eval(value.group(), namespace), line
                checked += 1
        assert checked >= 6
