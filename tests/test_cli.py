"""Command-line behavior: exit codes, output bytes, input plumbing.

run() is driven in-process; stdout/stderr go through capsys so the
asserted bytes are exactly what a shell would see.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from rep3 import cli, harness, solver
from rep3.cli import main, run
from rep3.enumeration import enumerate_graphs
from rep3.errors import TheoremViolation
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


# helpers.seeded_graph(62, 62) as graph6, whose 316 data bytes reach
# every position of the graph6 decode table
ORDER_62 = (
    r"}Uhqw\uNCvLTgBMlupdPsuO?EtTPWPnF|FaCrb\E|rqV]ERGGJT|Ea|xezUNRuU_"
    r"mnCz[llrkGwPWDSzQcDiEGentctKUsFTzw|PDgeH|j?]Nfcjx]cqbCy{N]Xpv\Iy"
    r"R??wmGSHl@Ide_AWikHKrUoA_fGqb\X?beMAnhSx~cY_D{i|aHQa_vGex]EHzH`B"
    r"^EhHs^LxOsR_oQRQbxk`vCuPdpqw~wKpkDEL\EXPqGkJ]cx|gv[VrSeEYFe`^Ug`"
    r"VjkVltwTd]jqAYuiU||UPRI?A}O~gVQX_riN[TN~H}GycRLAU{A^MbJbTnWj?"
)


def test_solve_theorem_violation_exits_1(capsys, monkeypatch):
    def solve3(g):
        raise TheoremViolation("planted miss")

    monkeypatch.setattr(cli, "solve3", solve3)
    assert run(["solve", "--graph", "DQo"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "theorem violation: planted miss\n"


def test_solve_order_62_record(capsys):
    assert write_graph6(helpers.seeded_graph(62, 62)).decode("ascii") == ORDER_62
    assert run(["solve", "--graph", ORDER_62]) == 0
    assert out_of(capsys) == '{"n":62,"deleted":[],"witness":[24,37,39],"degree":26}\n'


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


def test_solve_non_ascii_graph_is_malformed(capsys):
    # the same typed error a graph6 file with these bytes gives
    assert run(["solve", "--graph", "D\u00e9"]) == 2
    assert capsys.readouterr().err == "error: non-ascii record\n"


@pytest.mark.parametrize(
    "spec,err",
    [
        ("-\x80H??????", "error: non-ascii record\n"),
        ("-abc", "error: order byte decodes to -18, outside [1, 62]\n"),
    ],
)
def test_solve_graph_text_may_begin_with_a_dash(capsys, spec, err):
    # the text is the graph, not an option, and gets the typed error
    assert run(["solve", "--graph", spec]) == 2
    assert capsys.readouterr().err == err


def test_solve_non_utf8_edge_file_is_malformed(capsys, tmp_path):
    # an edge-list file must be UTF-8 text; a stray 0xff byte is typed
    f = tmp_path / "bad.json"
    f.write_bytes(b'{"n": 3, "edges": [[0, 1]], "x": "\xff"}')
    assert run(["solve", "--graph", "@" + str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: edge-list file is not UTF-8\n"


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


def test_equalize_table(capsys):
    rec = write_graph6(helpers.paw()).decode("ascii")
    assert run(["equalize", "--graph", rec, "--triple", "0,1,2", "--format", "table"]) == 0
    assert out_of(capsys) == "delete 3\n"


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


def test_verify_table_reports_violations(capsys, monkeypatch):
    # a search that deletes past allowance(5) = 2 fails every class
    monkeypatch.setattr(
        harness, "solve3", lambda g: solver.DeletionCertificate(g.n, (0, 1, 2), (3, 4), 0)
    )
    assert run(["verify", "--min-n", "5", "--max-n", "5", "--jobs", "1",
                "--format", "table"]) == 1
    lines = out_of(capsys).splitlines()
    assert lines[1].split() == ["5", "34", "0/0/0/0", "0", "34"]
    assert lines[-1] == "status: VIOLATIONS FOUND"


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


def test_verify_input_multi_byte_order_names_line(capsys, tmp_path):
    f = tmp_path / "wide.g6"
    f.write_bytes(b"Bw\n~abc\n")
    assert run(["verify", "--min-n", "5", "--max-n", "5", "--input", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 2: multi-byte order encoding not supported\n"


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


@pytest.mark.parametrize("command", ["lemmas", "identity"])
def test_lemmas_and_identity_take_jobs(capsys, command):
    # the report, elapsed time aside, does not depend on the worker count
    reports = []
    for jobs in ("1", "2"):
        assert run([command, "--max-n", "6", "--jobs", jobs]) == 0
        report = json.loads(out_of(capsys))
        del report["elapsed"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["verified"] is True


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
    ["lemmas", "--max-n", "5", "--jobs", "0"],
    ["identity", "--max-n", "5", "--jobs", "0"],
])
def test_usage_errors(capsys, argv):
    assert run(argv) == 2
    capsys.readouterr()


# every order or index out of range: exit 2 and one typed error line; an
# argument that begins with "{" is an edge-list document, passed as @FILE
RANGE_ERRORS = [
    (["gen", "--n", "0"], "enumeration supports orders 1..9, got 0"),
    (["gen", "--n", "10"], "enumeration supports orders 1..9, got 10"),
    (["lemmas", "--max-n", "10"], "lemma suites cover orders 1..9, got 10"),
    (["lemmas", "--max-n", "0"], "lemma suites cover orders 1..9, got 0"),
    (["identity", "--max-n", "10"], "identity suite covers orders 1..9, got 10"),
    (["extremal", "--n", "4"], "extremal search covers orders 5..9, got 4"),
    (["extremal", "--n", "10"], "extremal search covers orders 5..9, got 10"),
    (["verify", "--min-n", "4", "--max-n", "8"], "need 5 <= min_n <= max_n <= 9, got 4..8"),
    (["verify", "--min-n", "5", "--max-n", "10"], "need 5 <= min_n <= max_n <= 9, got 5..10"),
    (["solve", "--graph", "~????????????"], "multi-byte order encoding not supported"),
    (["solve", "--graph", "?"], "order byte decodes to 0, outside [1, 62]"),
    (["solve", "--graph", '{"n": 65, "edges": []}'], "order must be an int in [1, 64], got 65"),
    (["solve", "--graph", '{"n": 3, "edges": [[0, 3]]}'], "edge (0, 3) outside 0..2"),
    (["solve", "--graph", '{"n": 3, "edges": [[0, 1.5]]}'],
     "edge (0, 1.5) has a non-integer endpoint"),
    (["equalize", "--graph", TRIANGLE, "--triple", "0,1,9"], "(0, 1, 9) outside 0..2"),
    (["oracle", "--graph", TRIANGLE, "--max-k", "1"], "max_k 1 outside [0, 0] for order 3"),
    (["oracle", "--graph", TRIANGLE, "--max-k", "3"], "max_k 3 outside [0, 0] for order 3"),
]


@pytest.mark.parametrize("argv,err", RANGE_ERRORS, ids=[" ".join(a) for a, _ in RANGE_ERRORS])
def test_range_errors(capsys, tmp_path, argv, err):
    if argv[-1].startswith("{"):
        f = tmp_path / "edges.json"
        f.write_text(argv[-1])
        argv = [*argv[:-1], "@" + str(f)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


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


def _src_env():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    done = subprocess.run(
        [sys.executable, "-m", "rep3.cli", "gen", "--n", "3"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert done.returncode == 0
    assert len(done.stdout.splitlines()) == 4
    assert done.stdout.splitlines() == [
        write_graph6(g).decode("ascii") for g in enumerate_graphs(3)
    ]


# A sweep of orders 5 and 6 at two jobs on a two-core host, over 190
# records, cuts chunks of 5; the second chunk, order 5's records 5..9,
# is the child's.  Its child exits on record 6, as one killed by a
# signal or the OOM killer would end, with no result and no error sent.
KILLED_CHILD = """
import os, sys
from rep3 import harness
from rep3.cli import run
from rep3.enumeration import catalogue_lines
from rep3.errors import WorkerCrash
from rep3.graphcore import _width

os.cpu_count = lambda: 2
catalogue_lines(6)  # orders 5 and 6 filled before the worker is planted
main, real, width = os.getpid(), harness._theorem_worker, _width(5)
victim = catalogue_lines(5).split()[6]

def worker(span):
    if os.getpid() != main and victim in [span[i:i + width] for i in range(0, len(span), width)]:
        os._exit(1)
    return real(span)

harness._theorem_worker = worker
try:
    harness.verify_theorem(5, 6, jobs=2)
except WorkerCrash as exc:
    print(exc, flush=True)
sys.exit(run(["verify", "--min-n", "5", "--max-n", "6", "--jobs", "2"]))
"""


def test_killed_child_ends_the_sweep():
    # a child that dies is the end of its pipe: the sweep raises a
    # WorkerCrash naming the chunk the child owed, and the CLI exits 2
    # with one error line, where a pool waited forever; the timeout
    # turns a regression into a failure, not a hang, and ends the
    # probe's whole process group, whose children hold its pipes too
    probe = subprocess.Popen(
        [sys.executable, "-c", KILLED_CHILD], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=_src_env(), start_new_session=True,
    )
    try:
        out, err = probe.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(probe.pid, signal.SIGKILL)
        probe.communicate()
        raise
    records = [write_graph6(g).decode("ascii") for g in enumerate_graphs(5)]
    message = f"{records[5]}..{records[9]}: the worker process died"
    assert out == message + "\n"
    assert err == f"error: {message}\n"
    assert probe.returncode == 2


def test_import_stays_lean():
    # four records once pulled in dataclasses, and with it inspect, in
    # every rep3 process; pickle loads only when a map first forks
    # children, and multiprocessing never, not even by a shared sweep
    probe = (
        "import sys, rep3.cli; "
        "lean = lambda: print(sorted({'dataclasses', 'inspect', 'multiprocessing', 'pickle'}"
        " & set(sys.modules))); "
        "lean(); rep3.cli.run(['verify', '--min-n', '5', '--max-n', '6', '--jobs', '2']); lean()"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # the sweep forks a child wherever there are two cores to share
    assert lines[0] == "[]" and lines[-1] == ("['pickle']" if os.cpu_count() > 1 else "[]")
