"""Command-line behavior: exit codes, output bytes, input plumbing.

run() is driven in-process; stdout/stderr go through capsys so the
asserted bytes are exactly what a shell would see.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from rep3.cli import main, run
from rep3.enumeration import enumerate_graphs
from rep3.graphcore import write_graph6
from rep3.solver import solve3

import helpers

# labeled path 0-1-2-3; parses to degrees (1, 2, 2, 1)
PATH4 = "Ch"
TRIANGLE = "Bw"


def out_of(capsys):
    return capsys.readouterr().out


# ---------------------------------------------------------------- solve

def test_solve_triangle(capsys):
    assert run(["solve", "--graph", TRIANGLE]) == 0
    assert out_of(capsys) == '{"n":3,"deleted":[],"witness":[0,1,2],"degree":2}\n'


def test_solve_two_vertices_misses(capsys):
    # no graph on fewer than three vertices can repeat a degree thrice
    assert run(["solve", "--graph", "A?"]) == 1
    assert out_of(capsys) == "none\n"


def test_solve_order_five_exact(capsys):
    rec = write_graph6(helpers.antiregular5()).decode("ascii")
    assert run(["solve", "--graph", rec]) == 0
    assert json.loads(out_of(capsys)) == solve3(helpers.antiregular5()).to_dict()


def test_solve_byte_identical_across_runs(capsys):
    run(["solve", "--graph", TRIANGLE])
    first = out_of(capsys)
    run(["solve", "--graph", TRIANGLE])
    assert out_of(capsys) == first


def test_solve_table_format(capsys):
    assert run(["solve", "--graph", TRIANGLE, "--format", "table"]) == 0
    text = out_of(capsys)
    assert "witness" in text and "0 1 2" in text


# --------------------------------------------------------------- oracle

def test_oracle_path4_at_budget_one(capsys):
    assert run(["oracle", "--graph", PATH4, "--max-k", "1"]) == 1
    assert out_of(capsys) == "none\n"


def test_oracle_hit(capsys):
    assert run(["oracle", "--graph", TRIANGLE, "--max-k", "0"]) == 0
    assert json.loads(out_of(capsys))["witness"] == [0, 1, 2]


def test_oracle_budget_over_order(capsys):
    assert run(["oracle", "--graph", TRIANGLE, "--max-k", "3"]) == 2
    assert capsys.readouterr().err != ""


# ------------------------------------------------------------- classify

def test_classify_edge_file(capsys, tmp_path):
    f = tmp_path / "paw.json"
    f.write_text('{"n":4,"edges":[[0,1],[0,2],[1,2],[0,3]]}')
    assert run(["classify", "--graph", "@" + str(f), "--triple", "0,1,2"]) == 0
    assert out_of(capsys) == '{"condition":"C2","labeling":[1,2,0],"p":1,"q":0}\n'


@pytest.mark.parametrize("doc", [
    '{"n": 5, "edges": [["a", 1]]}',
    '{"n": 5, "edges": [[0.0, 1]]}',
    '{"n": true, "edges": []}',
])
def test_solve_rejects_non_integer_json(capsys, tmp_path, doc):
    f = tmp_path / "bad.json"
    f.write_text(doc)
    assert run(["solve", "--graph", "@" + str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_solve_rejects_deeply_nested_json(capsys, tmp_path):
    f = tmp_path / "deep.json"
    f.write_text('{"n": 5, "edges": ' + "[" * 200_000 + "]" * 200_000 + "}")
    assert run(["solve", "--graph", "@" + str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_classify_infeasible_is_not_an_error(capsys):
    assert run(["classify", "--graph", PATH4, "--triple", "0,1,2"]) == 0
    assert out_of(capsys) == '{"condition":null,"p":0,"q":1}\n'


def test_classify_table(capsys):
    assert run(["classify", "--graph", TRIANGLE, "--triple", "0,1,2",
                "--format", "table"]) == 0
    assert "C2" in out_of(capsys)


# ------------------------------------------------------------- equalize

def test_equalize_default_budget(capsys):
    rec = write_graph6(helpers.paw()).decode("ascii")
    assert run(["equalize", "--graph", rec, "--triple", "0,1,2"]) == 0
    assert out_of(capsys) == '{"deleted":[3]}\n'


def test_equalize_miss(capsys):
    assert run(["equalize", "--graph", PATH4, "--triple", "0,1,3",
                "--budget", "1"]) == 1
    assert out_of(capsys) == "none\n"


def test_equalize_infeasible_without_budget(capsys):
    assert run(["equalize", "--graph", PATH4, "--triple", "0,1,2"]) == 2
    assert "budget" in capsys.readouterr().err


def test_equalize_negative_budget(capsys):
    assert run(["equalize", "--graph", PATH4, "--triple", "0,1,2",
                "--budget", "-1"]) == 2


# ------------------------------------------------------------------ gen

def test_gen_stdout(capsys):
    assert run(["gen", "--n", "4"]) == 0
    lines = out_of(capsys).splitlines()
    assert lines == [write_graph6(g).decode("ascii") for g in enumerate_graphs(4)]
    assert len(lines) == 11


def test_gen_to_file(capsys, tmp_path):
    target = tmp_path / "four.g6"
    assert run(["gen", "--n", "4", "--out", str(target)]) == 0
    assert out_of(capsys) == ""
    assert len(target.read_text().splitlines()) == 11


def test_gen_order_out_of_range(capsys):
    assert run(["gen", "--n", "10"]) == 2


# --------------------------------------------------------------- verify

def test_verify_json_report(capsys):
    assert run(["verify", "--min-n", "5", "--max-n", "5", "--jobs", "1"]) == 0
    report = json.loads(out_of(capsys))
    assert report["per_n"]["5"]["graph_count"] == 34
    assert report["verified"] is True


def test_verify_table_report(capsys):
    assert run(["verify", "--min-n", "5", "--max-n", "5", "--jobs", "1",
                "--format", "table"]) == 0
    text = out_of(capsys)
    assert "34" in text and "verified" in text


def test_verify_input_file_filters_by_order(capsys, tmp_path):
    f = tmp_path / "two.g6"
    five = write_graph6(next(iter(enumerate_graphs(5)))).decode("ascii")
    six = write_graph6(next(iter(enumerate_graphs(6)))).decode("ascii")
    f.write_text(five + "\n" + six + "\n")
    assert run(["verify", "--min-n", "5", "--max-n", "5",
                "--input", str(f), "--jobs", "1"]) == 0
    assert json.loads(out_of(capsys))["per_n"]["5"]["graph_count"] == 1


def test_verify_input_counts_skipped_orders(capsys, tmp_path):
    f = tmp_path / "mixed.g6"
    f.write_text(PATH4 + "\nDQo\n")
    assert run(["verify", "--min-n", "5", "--max-n", "5",
                "--input", str(f), "--jobs", "1"]) == 0
    report = json.loads(out_of(capsys))
    assert report["per_n"]["5"]["graph_count"] == 1
    assert report["skipped"] == 1


def test_verify_input_names_records_without_header(capsys, tmp_path):
    # the one order-8 class that needs three deletions
    f = tmp_path / "extremal.g6"
    f.write_text(">>graph6<<G?Cj|{  \n")
    assert run(["verify", "--min-n", "8", "--max-n", "8",
                "--input", str(f), "--jobs", "1"]) == 0
    assert json.loads(out_of(capsys))["per_n"]["8"]["extremal_witnesses"] == ["G?Cj|{"]


def test_verify_empty_input_is_not_verified(capsys, tmp_path):
    f = tmp_path / "empty.g6"
    f.write_text("")
    assert run(["verify", "--min-n", "5", "--max-n", "5",
                "--input", str(f), "--jobs", "1"]) == 1
    report = json.loads(out_of(capsys))
    assert report["per_n"]["5"]["graph_count"] == 0
    assert report["verified"] is False


def test_verify_malformed_input(capsys, tmp_path):
    f = tmp_path / "bad.g6"
    f.write_text("Bw\nB\n")
    assert run(["verify", "--min-n", "5", "--max-n", "5",
                "--input", str(f)]) == 2


# ----------------------------------------------- lemmas, identity, extremal

def test_lemmas_report(capsys):
    assert run(["lemmas", "--max-n", "4"]) == 0
    report = json.loads(out_of(capsys))
    suites = report["lemma_results"]
    assert set(suites) == {"induced_path", "median_feasible",
                           "feasible_budget", "paired_degree_gap"}
    assert suites["induced_path"]["instances_checked"] == 11


def test_identity_report(capsys):
    assert run(["identity", "--max-n", "3"]) == 0
    report = json.loads(out_of(capsys))
    assert report["lemma_results"]["counting_identity"]["instances_checked"] == 2


def test_lemmas_and_identity_over_nothing_exit_1(capsys):
    assert run(["identity", "--max-n", "1"]) == 1
    assert json.loads(out_of(capsys))["verified"] is False
    assert run(["identity", "--max-n", "1", "--format", "table"]) == 1
    assert out_of(capsys).endswith("status: nothing checked\n")
    assert run(["lemmas", "--max-n", "2"]) == 1
    assert json.loads(out_of(capsys))["verified"] is False


def test_extremal_json(capsys):
    assert run(["extremal", "--n", "5"]) == 0
    report = json.loads(out_of(capsys))
    assert report["n"] == 5 and report["target"] == 2
    assert len(report["witnesses"]) == 3


def test_extremal_table(capsys):
    assert run(["extremal", "--n", "5", "--format", "table"]) == 0
    assert len(out_of(capsys).splitlines()) == 3


# ------------------------------------------------------------ bad usage

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["solve"],
    ["solve", "--graph", "~~~"],
    ["solve", "--graph", "@/nonexistent/edges.json"],
    ["classify", "--graph", TRIANGLE, "--triple", "0,1"],
    ["classify", "--graph", TRIANGLE, "--triple", "0,1,five"],
    ["verify", "--min-n", "5", "--max-n", "5", "--jobs", "0"],
    ["verify", "--min-n", "4", "--max-n", "5"],
])
def test_usage_errors(capsys, argv):
    assert run(argv) == 2
    capsys.readouterr()


def test_help_lists_subcommands(capsys):
    assert run(["--help"]) == 0
    text = out_of(capsys)
    for name in ("solve", "oracle", "classify", "equalize", "gen",
                 "verify", "lemmas", "extremal", "identity"):
        assert name in text


def test_main_exit_status(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["rep3", "oracle", "--graph", PATH4,
                                      "--max-k", "1"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1


def test_module_entry_point():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "rep3.cli", "gen", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert len(done.stdout.splitlines()) == 4
    assert done.stdout.splitlines() == [
        write_graph6(g).decode("ascii") for g in enumerate_graphs(3)
    ]
