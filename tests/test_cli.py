import contextlib
import gc
import io
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from treecap import (SphericallySymmetric, build_tree, capacity_recursive,
                     tree_to_json)
from treecap import cli
from treecap.cli import main


@pytest.fixture
def tree_file(tmp_path):
    t = build_tree(SphericallySymmetric([2]))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree_to_json(t)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_capacity_json(capsys, tree_file):
    code, out, _ = run(capsys, ["capacity", "--tree", tree_file])
    payload = json.loads(out)
    assert code == 0
    assert payload["n_edges"] == 3
    assert payload["capacity"]["lower"] == pytest.approx(2 / 3)
    assert payload["capacity"]["upper"] == pytest.approx(2 / 3)


def test_capacity_human(capsys, tree_file):
    code, out, _ = run(capsys, ["capacity", "--tree", tree_file,
                                "--format", "human"])
    assert code == 0
    assert "capacity.lower:" in out


def test_capacity_of_subset(capsys, tree_file):
    code, out, _ = run(capsys, ["capacity", "--tree", tree_file,
                                "--set", "1"])
    payload = json.loads(out)
    assert code == 0
    assert payload["set"] == [1]
    assert payload["capacity"]["lower"] == pytest.approx(0.5)


def test_equilibrium_payload(capsys, tree_file):
    code, out, _ = run(capsys, ["equilibrium", "--tree", tree_file,
                                "--include-zero"])
    payload = json.loads(out)
    assert code == 0
    assert payload["capacity"]["lower"] == pytest.approx(2 / 3)
    assert payload["M"]["0"] == pytest.approx(2 / 3)
    assert payload["c"]["1"] == pytest.approx(1.0)


def test_verify_exit_codes(capsys, tmp_path, tree_file):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"M": [2 / 3, 1 / 3, 1 / 3]}))
    code, out, _ = run(capsys, ["verify", "--tree", tree_file,
                                "--measure", str(good)])
    assert code == 0
    assert json.loads(out)["is_equilibrium"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"M": [2 / 3, 1 / 3, 0.4]}))
    code, out, _ = run(capsys, ["verify", "--tree", tree_file,
                                "--measure", str(bad)])
    assert code == 1
    assert json.loads(out)["is_equilibrium"] is False


def test_verify_leaf_masses(capsys, tmp_path, tree_file):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"leaf_masses": {"1": 1 / 3, "2": 1 / 3}}))
    code, out, _ = run(capsys, ["verify", "--tree", tree_file,
                                "--measure", str(mfile)])
    assert code == 0


def test_tile_with_svg(capsys, tmp_path, tree_file):
    svg = tmp_path / "out.svg"
    code, out, _ = run(capsys, ["tile", "--tree", tree_file,
                                "--svg", str(svg), "--labels"])
    payload = json.loads(out)
    assert code == 0
    assert payload["validation"]["ok"] is True
    assert len(payload["tiling"]["squares"]) == 3
    text = svg.read_text()
    assert text.startswith("<svg") and text.count("<text") == 3


def test_symmetric(capsys):
    code, out, _ = run(capsys, ["symmetric", "--degrees", "2,2",
                                "--p", "2"])
    payload = json.loads(out)
    assert code == 0
    assert payload["capacity"]["lower"] == pytest.approx(4 / 7)


def test_resistance(capsys, tree_file):
    code, out, _ = run(capsys, ["resistance", "--tree", tree_file])
    payload = json.loads(out)
    assert code == 0
    assert payload["resistance"]["lower"] == pytest.approx(0.5)
    assert payload["capacity"]["upper"] == pytest.approx(2 / 3)


def test_construct_set(capsys):
    code, out, _ = run(capsys, ["construct-set", "--target", "0.25",
                                "--depth", "10", "--leaves"])
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["capacity"] - 0.25) <= 1e-3
    assert len(payload["leaves"]) == payload["n_leaves"]


def test_construct_set_beyond_the_explicit_budget_exits_2(capsys):
    code, out, err = run(capsys, ["construct-set", "--target", "0.3",
                                  "--depth", "20"])
    assert code == 2 and out == ""
    assert err.startswith("treecap:") and "explicit budget" in err
    assert "Traceback" not in err


def test_capacity_of_set_on_a_compact_tree_exits_2(capsys, tmp_path):
    tfile = tmp_path / "deep.json"
    tfile.write_text(json.dumps({"spec": {"variant": "homogeneous", "n": 2},
                                 "depth": 30}))
    code, out, err = run(capsys, ["capacity", "--tree", str(tfile),
                                  "--set", "5"])
    assert code == 2 and out == ""
    assert err.startswith("treecap:") and "explicitly stored" in err
    assert "Traceback" not in err


def test_a_depth_past_the_level_budget_exits_2(capsys, tmp_path):
    tfile = tmp_path / "spec.json"
    tfile.write_text(json.dumps({"spec": {"variant": "homogeneous", "n": 2}}))
    code, out, err = run(capsys, ["capacity", "--tree", str(tfile),
                                  "--depth", "2000001"])
    assert code == 2 and out == ""
    assert err.startswith("treecap: depth 2000001 is more than the 2000000 "
                          "levels a tree may have")

def test_verify_on_a_compact_tree_exits_2_for_either_measure_kind(
        capsys, tmp_path):
    # a spec with no depth loads as a compact tree; the leaf-mass
    # measure used to be read against it first and end in a traceback
    tfile = tmp_path / "compact.json"
    tfile.write_text(json.dumps({"spec": {"variant": "homogeneous", "n": 2}}))
    for measure in ({"leaf_masses": {"b": 0.3}}, {"M": [1.0]}):
        mfile = tmp_path / "mu.json"
        mfile.write_text(json.dumps(measure))
        code, out, err = run(capsys, ["verify", "--tree", str(tfile),
                                      "--measure", str(mfile)])
        assert code == 2 and out == ""
        assert err.startswith("treecap: verification needs an explicitly "
                              "stored tree")


def test_construct_tree(capsys):
    code, out, _ = run(capsys, ["construct-tree", "--target", "0.3",
                                "--digits", "30"])
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["achieved"]["lower"] - 0.3) <= 1e-4
    assert payload["runs"][0] == 1 and len(payload["runs"]) == 30


def test_oracle(capsys, tree_file):
    code, out, _ = run(capsys, ["oracle", "--tree", tree_file,
                                "--p", "2"])
    payload = json.loads(out)
    assert code == 0
    assert payload["converged"] is True
    assert payload["value"] == pytest.approx(2 / 3, rel=1e-6)


def test_tree_from_stdin(capsys, monkeypatch):
    t = build_tree(SphericallySymmetric([2]))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(tree_to_json(t))))
    code, out, _ = run(capsys, ["capacity", "--tree", "-"])
    assert code == 0
    assert json.loads(out)["capacity"]["lower"] == pytest.approx(2 / 3)


def test_depth_precedence(capsys, tmp_path):
    spec = {"spec": {"variant": "homogeneous", "n": 2}}
    stored = dict(spec, depth=4)
    path = tmp_path / "hom.json"

    path.write_text(json.dumps(stored))
    _, out, _ = run(capsys, ["capacity", "--tree", str(path)])
    assert json.loads(out)["n_edges"] == 2 ** 5 - 1  # file depth wins

    _, out, _ = run(capsys, ["capacity", "--tree", str(path),
                             "--depth", "3"])
    assert json.loads(out)["n_edges"] == 2 ** 4 - 1  # flag beats file

    path.write_text(json.dumps(spec))
    _, out, _ = run(capsys, ["capacity", "--tree", str(path)])
    assert json.loads(out)["n_edges"] == 2 ** 25 - 1  # fallback depth 24


def test_bad_inputs_exit_2(capsys, tmp_path, tree_file):
    code, _, err = run(capsys, ["capacity", "--tree",
                                str(tmp_path / "missing.json")])
    assert code == 2 and "treecap:" in err

    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    code, _, err = run(capsys, ["capacity", "--tree", str(mangled)])
    assert code == 2

    code, _, err = run(capsys, ["capacity", "--tree", tree_file,
                                "--p", "0.5"])
    assert code == 2

    with pytest.raises(SystemExit):
        main(["no-such-command"])
    capsys.readouterr()


def test_threads_env(capsys, tree_file, monkeypatch):
    monkeypatch.setenv("TREECAP_THREADS", "2")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    code, _, _ = run(capsys, ["capacity", "--tree", tree_file])
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_verify_leaf_masses_on_integer_labels(capsys, tmp_path):
    from treecap import Tree

    adj = Tree.from_adjacency({10: [3, 7], 3: [], 7: [1, 2], 1: [], 2: []})
    tfile = tmp_path / "int.json"
    tfile.write_text(json.dumps(tree_to_json(adj)))
    code, out, _ = run(capsys, ["equilibrium", "--tree", str(tfile)])
    assert code == 0
    M = json.loads(out)["M"]
    masses = {str(lab): M[str(lab)] for lab in (3, 1, 2)}
    mfile = tmp_path / "leaf.json"
    mfile.write_text(json.dumps({"leaf_masses": masses}))
    code, out, err = run(capsys, ["verify", "--tree", str(tfile),
                                  "--measure", str(mfile)])
    assert code == 0, err
    assert json.loads(out)["is_equilibrium"] is True

    mfile.write_text(json.dumps({"leaf_masses": {"4": 0.5}}))
    code, _, err = run(capsys, ["verify", "--tree", str(tfile),
                                "--measure", str(mfile)])
    assert code == 2 and "unknown edge label" in err


def test_depth_on_explicit_adjacency_exits_2(capsys, tmp_path):
    from treecap import Tree

    tfile = tmp_path / "adj.json"
    tfile.write_text(json.dumps(tree_to_json(
        Tree.from_adjacency({"r": ["a"], "a": []}))))
    code, _, err = run(capsys, ["capacity", "--tree", str(tfile),
                                "--depth", "4"])
    assert code == 2 and "treecap:" in err


def test_equilibrium_compact_layout(capsys, tmp_path):
    tfile = tmp_path / "hom.json"
    tfile.write_text(json.dumps({"spec": {"variant": "homogeneous", "n": 2},
                                 "depth": 30}))
    code, out, _ = run(capsys, ["equilibrium", "--tree", str(tfile),
                                "--include-zero"])
    payload = json.loads(out)
    assert code == 0
    assert len(payload["levels"]["c"]) == 31
    assert "M" not in payload


def test_all_exports_no_modules():
    import types

    import treecap
    assert treecap.__all__
    for name in treecap.__all__:
        assert not isinstance(getattr(treecap, name), types.ModuleType), name


def test_set_reads_leaf_labels(capsys, tmp_path):
    from treecap import Tree

    adj = Tree.from_adjacency({10: [3, 7], 3: [], 7: [1, 2], 1: [], 2: []})
    tfile = tmp_path / "int.json"
    tfile.write_text(json.dumps(tree_to_json(adj)))
    for labels, cap in (("3", 0.5), ("1,2", 0.4), ("2, 1, 2", 0.4)):
        ids = sorted({adj.id_of_label(int(s)) for s in labels.split(",")})
        code, out, _ = run(capsys, ["capacity", "--tree", str(tfile),
                                    "--set", labels])
        payload = json.loads(out)
        assert code == 0 and sorted(set(payload["set"])) == ids
        assert payload["capacity"]["lower"] == pytest.approx(cap, rel=1e-15)
        code, out, _ = run(capsys, ["oracle", "--tree", str(tfile),
                                    "--set", labels])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(cap, rel=1e-9)


DEEP = {"spec": {"variant": "homogeneous", "n": 2}, "depth": 30}
SHALLOW = {"spec": {"variant": "homogeneous", "n": 2}, "depth": 4}
FINITE = {"spec": {"variant": "symmetric", "degrees": [2]}}
ROOT_AB = {"id": "r", "children": ["a", "b"]}


@pytest.mark.parametrize("files, argv, says", [
    ({"t": "{not json"}, ["capacity", "--tree", "t"], "treecap:"),
    ({"t": [1, 2]}, ["capacity", "--tree", "t"], "not an object"),
    ({"t": {"spec": 5}}, ["capacity", "--tree", "t"], "tree spec"),
    ({"t": {"edges": 5}}, ["capacity", "--tree", "t"], "treecap:"),
    ({"t": FINITE, "m": [0.5]},
     ["verify", "--tree", "t", "--measure", "m"], "not an object"),
    ({"t": FINITE, "m": {"leaf_masses": [1]}},
     ["verify", "--tree", "t", "--measure", "m"], "leaf_masses"),
    ({"t": FINITE, "m": {"M": [1.0]}},
     ["verify", "--tree", "t", "--measure", "m"], "does not match"),
    ({}, ["construct-set", "--target", "nan"], "--target must be finite"),
    ({}, ["symmetric", "--degrees", "2", "--tail", "2", "--p", "1e308"],
     "p = 1e+308"),
    ({"t": SHALLOW}, ["capacity", "--tree", "t", "--p", "1e16"],
     "p = 1e+16"),
    ({"t": FINITE}, ["capacity", "--tree", "t", "--p", "nan"], "--p"),
    ({"t": FINITE}, ["capacity", "--tree", "t", "--p", "inf"], "--p"),
    ({"t": FINITE, "m": {"M": [1.0, 0.5, 0.5]}},
     ["verify", "--tree", "t", "--measure", "m", "--tol", "nan"], "--tol"),
    ({"t": SHALLOW}, ["capacity", "--tree", "t", "--tail-policy", "nan"],
     "--tail-policy"),
    ({"t": SHALLOW}, ["capacity", "--tree", "t", "--tail-policy", "1.5"],
     "tail value"),
    ({"t": FINITE}, ["capacity", "--tree", "t", "--set", "9"],
     "out of range"),
    ({"t": FINITE}, ["capacity", "--tree", "t", "--set", ","], "empty"),
    ({"t": FINITE}, ["oracle", "--tree", "t", "--set", "0"],
     "not a true leaf"),
    ({"t": DEEP}, ["oracle", "--tree", "t"], "explicitly stored"),
    ({"t": DEEP}, ["oracle", "--tree", "t", "--set", "5"],
     "explicitly stored"),
    ({"t": FINITE, "m": '{"leaf_masses": {"1": NaN, "2": 0.3}}'},
     ["verify", "--tree", "t", "--measure", "m"], "NaN"),
    ({"t": FINITE, "m": '{"M": [1e400, 0.5, 0.5]}'},
     ["verify", "--tree", "t", "--measure", "m"], "finite"),
    ({"t": FINITE, "m": '{"M": [NaN, 0.5, 0.5]}'},
     ["tile", "--tree", "t", "--measure", "m"], "NaN"),
    ({"t": '{"spec": {"variant": "symmetric", "degrees": [1e400]}}'},
     ["capacity", "--tree", "t"], "infinity"),
    ({"t": {"edges": [{"id": "r", "children": ["a"]},
                      {"id": "a", "children": ["b"]},
                      {"id": "a", "children": []}]}},
     ["capacity", "--tree", "t"], "'a' has more than one record"),
    ({"t": FINITE}, ["oracle", "--tree", "t", "--p", "3", "--tol", "-1"],
     "--tol"),
    ({"t": FINITE, "m": {"M": [1.0, 0.5, 0.5]}},
     ["verify", "--tree", "t", "--measure", "m", "--tol", "-1"], "--tol"),
    ({}, ["construct-set", "--target", "0.3", "--tol", "-1"], "--tol"),
    ({"t": {"spec": {"variant": "homogeneous", "n": 2.7}}},
     ["capacity", "--tree", "t"], "'n' holds 2.7"),
    ({"t": {"spec": {"variant": "symmetric", "degrees": [2, 1.9]}}},
     ["capacity", "--tree", "t"], "'degrees' holds 1.9"),
    ({"t": {"spec": {"variant": "subdyadic", "runs": [True, 0]}}},
     ["capacity", "--tree", "t"], "'runs' holds True"),
    ({}, ["construct-tree", "--target", "0.3", "--digits", "0"],
     "digit_count"),
    ({}, ["construct-tree", "--target", "0.3", "--digits", "-1"],
     "digit_count"),
    ({"t": FINITE, "m": {"masses": [1.0]}},
     ["verify", "--tree", "t", "--measure", "m"], '"M" array'),
    ({"t": '{"spec": {"variant": "homogeneous", "n": 1e400}}'},
     ["capacity", "--tree", "t"], "tree spec 'n' holds inf, not an integer"),
    ({"t": '{"spec": {"variant": "subdyadic", "runs": [-1e400]}}'},
     ["equilibrium", "--tree", "t"], "'runs' holds -inf"),
    ({"t": {"edges": [ROOT_AB, {"id": "a", "tail": "false"}, {"id": "b"}]}},
     ["capacity", "--tree", "t"],
     'edges[1]: "tail" holds \'false\', not true or false'),
    ({"t": {"edges": [{"id": "r", "children": "ab"}]}},
     ["capacity", "--tree", "t"],
     'edges[0]: "children" holds \'ab\', not an array'),
    ({"t": {"edges": [ROOT_AB, {"children": []}]}},
     ["capacity", "--tree", "t"], 'edges[1] has no "id"'),
    ({"t": {"edges": [{"id": "r", "children": 5}]}},
     ["capacity", "--tree", "t"], 'edges[0]: "children" holds 5'),
    ({"t": {"edges": [ROOT_AB, {"id": ["a"]}]}},
     ["capacity", "--tree", "t"], 'edges[1]: "id" holds [\'a\']'),
    ({"t": {"edges": [ROOT_AB, 5]}},
     ["capacity", "--tree", "t"], "edges[1] holds 5, not an object"),
    ({"t": {"edges": [{"id": "r", "children": ["a", [1]]}]}},
     ["capacity", "--tree", "t"],
     'edges[0]: "children" holds [\'a\', [1]], not an array of strings'),
    ({"t": {"edges": [{"id": True, "children": ["a"]}]}},
     ["capacity", "--tree", "t"], 'edges[0]: "id" holds True'),
    ({"t": {"root": ["r"], "edges": [ROOT_AB]}},
     ["capacity", "--tree", "t"], '"root" holds [\'r\']'),
    ({"t": {"root": "r"}}, ["capacity", "--tree", "t"],
     'a tree needs a "spec" or an "edges" array'),
], ids=["malformed-json", "tree-list", "spec-number", "edges-number",
        "measure-list", "leaf-masses-list", "M-too-short", "target-nan",
        "symmetric-huge-p", "capacity-huge-p", "p-nan", "p-inf", "tol-nan",
        "tail-policy-nan", "tail-policy-above-one", "set-out-of-range",
        "set-empty", "oracle-inner-edge", "oracle-compact",
        "oracle-compact-set", "leaf-mass-nan", "M-overflows",
        "tile-M-nan", "degree-overflows", "tree-repeated-id",
        "oracle-tol-negative", "verify-tol-negative",
        "construct-set-tol-negative", "spec-n-fractional",
        "spec-degree-fractional", "spec-run-bool", "digits-zero",
        "digits-negative", "measure-without-masses", "spec-n-overflows",
        "spec-run-overflows", "record-tail-string", "record-children-string",
        "record-without-id", "record-children-number", "record-id-list",
        "record-number", "record-child-list", "record-id-bool",
        "tree-root-list", "tree-without-edges"])
def test_malformed_input_exits_2_with_a_message(capsys, tmp_path, files,
                                                argv, says):
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("treecap:") and says in err
    assert "Traceback" not in err


def test_well_formed_records_with_tails_still_load(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"root": "r", "edges": [
        ROOT_AB, {"id": "a", "children": [], "tail": False},
        {"id": "b", "tail": True}]}))
    code, out, _ = run(capsys, ["capacity", "--tree", str(path),
                                "--tail-policy", "pessimistic"])
    assert code == 0
    assert json.loads(out)["capacity"] == {"lower": 0.5, "upper": 0.5}


def test_large_p_prints_no_overflow_warning(tmp_path):
    # the warning goes to the real stderr, which only a child process shows
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps(SHALLOW))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "treecap.cli", "capacity", "--tree",
         str(tfile), "--p", "1e15"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["capacity"] == {"lower": 0.0,
                                                   "upper": 1e-13}


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # the reader takes one line and leaves while the output is still
    # being written; only a child process has a real pipe to break
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps(
        {"spec": {"variant": "symmetric", "degrees": [2] * 12}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "treecap.cli", "equilibrium", "--tree",
         str(tfile), "--include-zero"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_a_reader_leaving_after_one_byte_gets_exit_1(tmp_path):
    # 2^16 - 1 edges print far more than a pipe buffer holds, so the
    # writer is still blocked on the pipe when the reader closes it
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps(
        {"spec": {"variant": "symmetric", "degrees": [2] * 15}}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "treecap.cli", "equilibrium", "--tree",
         str(tfile)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_broken_pipe_handler_in_process(monkeypatch, tmp_path, tree_file):
    # the same exit seen by line tracing: a stdout whose reader is gone,
    # backed by a file descriptor the handler may point at /dev/null
    class GonePipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return sink.fileno()

    with open(tmp_path / "sink", "w") as sink:
        monkeypatch.setattr(sys, "stdout", GonePipe())
        assert main(["capacity", "--tree", tree_file]) == 1


@pytest.mark.parametrize("measure, says", [
    ({"M": ["0.6666666666666666", 1 / 3, True]}, "'0.6666666666666666'"),
    ({"M": [2 / 3, 1 / 3, True]}, "True"),
    ({"M": [2 / 3, None, 1 / 3]}, "None"),
    ({"M": {"0": 2 / 3}}, '"M" must be an array'),
    ({"leaf_masses": {"1": True, "2": 1 / 3}}, "True"),
    ({"leaf_masses": {"1": 1 / 3, "2": "0.5"}}, "'0.5'"),
], ids=["M-string", "M-bool", "M-null", "M-object", "leaf-mass-bool",
        "leaf-mass-string"])
def test_measure_entries_must_be_json_numbers(capsys, tmp_path, tree_file,
                                              measure, says):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(measure))
    code, out, err = run(capsys, ["verify", "--tree", tree_file,
                                  "--measure", str(mfile)])
    assert code == 2 and out == ""
    assert err.startswith("treecap:") and says in err


def test_tile_of_a_non_equilibrium_measure_exits_1(capsys, tmp_path,
                                                   tree_file):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"M": [0.75, 0.25, 0.5]}))
    code, out, err = run(capsys, ["tile", "--tree", tree_file,
                                  "--measure", str(mfile)])
    payload = json.loads(out)
    assert code == 1 and err == ""
    assert payload["ok"] is False
    assert payload["error"].startswith("not an equilibrium measure")


@pytest.mark.parametrize("degrees, line", [
    ("2,2", "degrees: [2, 2]"),
    (",".join(["2"] * 9), "degrees: [9 entries]"),
], ids=["short-list", "long-list"])
def test_human_format_prints_lists(capsys, degrees, line):
    code, out, _ = run(capsys, ["symmetric", "--degrees", degrees,
                                "--format", "human"])
    assert code == 0 and line in out.splitlines()


def _dumped(obj):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli._dump(obj, "json")
    return buf.getvalue()


_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=2 ** 53, max_value=2 ** 80),
    st.floats(),
    st.sampled_from([1e-05, 1e16, -0.0, 5e-324, float("nan"), float("inf"),
                     -float("inf")]),
    st.text(), st.sampled_from(["\u00e9\u2603\U0001f600", "\x00\x1f\n\"\\"]))
# one key type per dict, so that sort_keys can order them
_KEYS = [st.text(), st.integers(), st.floats(), st.booleans(), st.none()]


def _documents(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(k, children, max_size=4) for k in _KEYS),
        st.lists(st.dictionaries(st.sampled_from(["edge", "x", "y", "side"]),
                                 _SCALARS), max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _documents, max_leaves=30))
def test_json_output_is_the_indent_encoders_bytes(obj):
    assert _dumped(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.skipif(json.encoder.c_make_encoder is None,
                    reason="this interpreter has no C JSON encoder")
def test_the_pure_python_encoder_never_runs(capsys, monkeypatch, tmp_path,
                                            tree_file):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps({"M": [2 / 3, 1 / 3, 1 / 3]}))
    runs = [
        ["capacity", "--tree", tree_file],
        ["capacity", "--tree", tree_file, "--set", "1"],
        ["equilibrium", "--tree", tree_file, "--include-zero"],
        ["verify", "--tree", tree_file, "--measure", str(mfile)],
        ["tile", "--tree", tree_file, "--svg", str(tmp_path / "t.svg")],
        ["symmetric", "--degrees", "2,3", "--tail", "2"],
        ["resistance", "--tree", tree_file],
        ["construct-set", "--target", "0.25", "--depth", "10", "--leaves"],
        ["construct-tree", "--target", "0.3", "--digits", "8"],
        ["oracle", "--tree", tree_file, "--p", "3"],
    ]
    assert {argv[0] for argv in runs} == set(cli._COMMANDS)
    outs = []
    for argv in runs:
        code, out, err = run(capsys, argv)
        assert code in (0, 1) and err == "", argv
        outs.append(out)
    monkeypatch.undo()
    for out in outs:
        assert out == json.dumps(json.loads(out), indent=2,
                                 sort_keys=True) + "\n"


def test_json_output_peak_memory_stays_below_four_times_its_length():
    res = capacity_recursive(build_tree(SphericallySymmetric([2] * 15)), 2.0)
    payload = dict(res.to_json(), p=2.0)
    buf = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(buf):
            cli._dump(payload, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(buf.getvalue())
    assert n > 4_000_000
    assert peak < 4 * n, f"peak {peak} B for {n} B of output"


def test_a_payload_that_cannot_be_encoded_prints_nothing(capsys,
                                                         monkeypatch):
    # the first value encodes, the second cannot
    monkeypatch.setitem(cli._COMMANDS, "symmetric", lambda args: (
        0, {"a": [1.0, 2.0], "b": {"c": [{1, 2}]}}))
    code, out, err = run(capsys, ["symmetric", "--degrees", "2"])
    assert code == 2 and out == ""
    assert err == "treecap: Object of type set is not JSON serializable\n"


DEEP_JSON = {"tree": '{"edges": ' + "[" * 2000 + "]" * 2000 + "}",
             "measure": '{"M": ' * 2000 + "0" + "}" * 2000}


@pytest.mark.parametrize("kind", ["tree", "measure"])
def test_json_nested_too_deeply_exits_2_with_a_message(capsys, tmp_path,
                                                       tree_file, kind):
    path = tmp_path / "f.json"
    path.write_text(DEEP_JSON[kind])
    argv = (["resistance", "--tree", str(path)] if kind == "tree" else
            ["verify", "--tree", tree_file, "--measure", str(path)])
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"treecap: {path} nests its JSON too deeply\n"


def test_construct_tree_past_float_underflow(capsys):
    code, out, err = run(capsys, ["construct-tree", "--target", "0.3",
                                  "--digits", "1076"])
    assert code == 0 and err == ""
    assert len(json.loads(out)["runs"]) == 1076
    code, out, err = run(capsys, ["construct-tree", "--target", "0.2",
                                  "--p", "1.3", "--digits", "1100"])
    assert code == 2 and out == ""
    assert err.startswith("treecap: digit_count = 1100 needs base")


@pytest.mark.parametrize("caller_enabled", [True, False],
                         ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("case", ["exit-0", "exit-1", "exit-2",
                                  "argparse-exit-2", "broken-pipe"])
def test_main_runs_with_the_collector_off_and_restores_it(
        capsys, monkeypatch, tmp_path, tree_file, case, caller_enabled):
    seen = []

    def recording(cmd):
        def wrapped(args):
            seen.append(gc.isenabled())
            return cmd(args)
        return wrapped

    for name in ("capacity", "verify"):
        monkeypatch.setitem(cli._COMMANDS, name,
                            recording(cli._COMMANDS[name]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"M": [2 / 3, 1 / 3, 0.4]}))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")

    class GonePipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return sink.fileno()

    was = gc.isenabled()
    (gc.enable if caller_enabled else gc.disable)()
    try:
        with open(tmp_path / "sink", "w") as sink:
            if case == "exit-0":
                code = main(["capacity", "--tree", tree_file])
            elif case == "exit-1":
                code = main(["verify", "--tree", tree_file,
                             "--measure", str(bad)])
            elif case == "exit-2":
                code = main(["capacity", "--tree", str(malformed)])
            elif case == "argparse-exit-2":
                with pytest.raises(SystemExit) as exc:
                    main(["capacity", "--tree"])
                code = exc.value.code
            else:
                monkeypatch.setattr(sys, "stdout", GonePipe())
                code = main(["capacity", "--tree", tree_file])
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    expected = {"exit-0": 0, "exit-1": 1, "exit-2": 2, "argparse-exit-2": 2,
                "broken-pipe": 1}[case]
    assert code == expected
    assert seen == ([] if case == "argparse-exit-2" else [False])
    assert after is caller_enabled


# ---------------------------------------------------------------------------
# size bounds, each checked in a child process under a memory cap, so a
# bound that stops holding fails the test instead of exhausting memory

MEMORY_CAP = 1 << 30  # bytes of address space


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_capped(argv, timeout=120):
    """python -m treecap.cli argv in a child process limited to
    MEMORY_CAP bytes of address space and timeout seconds."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "treecap.cli", *argv], capture_output=True,
        text=True, env=env, timeout=timeout, preexec_fn=_cap_memory)


def homogeneous_file(tmp_path, depth=None):
    """A Homogeneous(2) spec file, its "depth" given as JSON text."""
    tfile = tmp_path / "homogeneous.json"
    stored = "" if depth is None else f', "depth": {depth}'
    tfile.write_text('{"spec": {"variant": "homogeneous", "n": 2}'
                     + stored + "}")
    return str(tfile)


def assert_exit_2(proc, says):
    assert proc.returncode == 2 and proc.stdout == ""
    assert re.fullmatch(f"treecap: .*{says}.*\n", proc.stderr)


@pytest.mark.parametrize("target, p, says", [
    # the greedy digits ask for 2.9e10, 1e10 and 2e52 unary levels
    ("0.3", "1.05", r"'runs' lists 28\d{9} levels, more than the 2000000"),
    ("0.1", "1.1", r"'runs' lists 10\d{9} levels"),
    ("0.3", "1.01", r"'runs' lists \d{50,} levels"),
])
def test_subdyadic_runs_past_the_bound_exit_2_under_a_memory_cap(
        target, p, says):
    assert_exit_2(run_capped(["construct-tree", "--target", target,
                              "--p", p]), says)


def test_a_subdyadic_target_inside_the_bound_builds_under_a_memory_cap():
    proc = run_capped(["construct-tree", "--target", "0.3", "--p", "1.1"])
    assert proc.returncode == 0 and proc.stderr == ""
    out = json.loads(proc.stdout)
    assert 1e5 < sum(out["runs"]) + len(out["runs"]) <= 2_000_000
    assert out["achieved"]["lower"] <= 0.3 <= out["achieved"]["upper"]


def test_deep_trees_exit_2_under_a_memory_cap(tmp_path):
    # the compact level table of depth d holds about d^2 / 2 bits
    proc = run_capped(["capacity", "--tree", homogeneous_file(tmp_path),
                       "--depth", "1000000"])
    assert_exit_2(proc, "depth 1000000 needs a level table of more than")
    proc = run_capped(["capacity", "--tree",
                       homogeneous_file(tmp_path, 2_000_001)])
    assert_exit_2(proc, "depth 2000001 is more than the 2000000 levels")


@pytest.mark.parametrize("threads", ["-3", "0"])
def test_threads_below_1_exit_2(capsys, tree_file, monkeypatch, threads):
    monkeypatch.delenv("TREECAP_THREADS", raising=False)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    code, out, err = run(capsys, ["--threads", threads, "capacity",
                                  "--tree", tree_file])
    assert (code, out) == (2, "")
    assert err == f"treecap: --threads must be >= 1, got {threads}\n"
    assert "OMP_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("value", ["-3", "0", "2.5", "two", " "])
def test_treecap_threads_not_an_integer_of_1_or_more_exit_2(
        capsys, tree_file, monkeypatch, value):
    monkeypatch.setenv("TREECAP_THREADS", value)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    code, out, err = run(capsys, ["capacity", "--tree", tree_file])
    assert (code, out) == (2, "")
    assert err == ("treecap: TREECAP_THREADS must be an integer >= 1, "
                   f"got {value!r}\n")
    assert "OMP_NUM_THREADS" not in os.environ
    # --threads takes precedence over the environment
    code, _, _ = run(capsys, ["--threads", "3", "capacity",
                              "--tree", tree_file])
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "3"


@pytest.mark.parametrize("depth, says", [
    ("true", "'depth' holds True, not an integer"),
    ("2.5", "'depth' holds 2.5, not an integer"),
    ('"x"', "'depth' holds 'x', not an integer"),
    ("1e400", "'depth' holds inf, not an integer"),
], ids=["bool", "fraction", "string", "beyond-float"])
def test_a_stored_depth_is_a_whole_number(capsys, tmp_path, depth, says):
    code, out, err = run(capsys, ["capacity", "--tree",
                                  homogeneous_file(tmp_path, depth)])
    assert (code, out) == (2, "")
    assert says in err


def test_a_stored_depth_of_2_0_is_depth_2(capsys, tmp_path):
    outs = []
    for depth in ("2", "2.0"):
        code, out, _ = run(capsys, ["equilibrium", "--tree",
                                    homogeneous_file(tmp_path, depth)])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[1])["M"]) == 7


@contextlib.contextmanager
def no_int_digit_limit():
    """Lift the interpreter's int-to-text digit limit, where it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_n_edges_of_a_deep_compact_tree_prints_in_full(capsys, tmp_path,
                                                       fmt):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, ["capacity", "--format", fmt, "--tree",
                                  homogeneous_file(tmp_path, 15000)])
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with no_int_digit_limit():
        n_edges = str(2 ** 15001 - 1)
    pattern = '"n_edges": (\\d+),' if fmt == "json" else "n_edges: (\\d+)\n"
    assert re.search(pattern, out).group(1) == n_edges


def test_input_keeps_the_int_digit_limit(capsys, tmp_path):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any length")
    code, out, err = run(capsys, ["capacity", "--tree",
                                  homogeneous_file(tmp_path, "9" * 5000)])
    assert (code, out) == (2, "")
    assert "4300 digits" in err


def test_two_labels_with_one_json_key_exit_2(capsys, tmp_path):
    path = tmp_path / "tree.json"
    path.write_text('{"edges": [{"id": 1, "children": ["1"]}, {"id": "1"}]}')
    code, out, err = run(capsys, ["equilibrium", "--tree", str(path)])
    assert (code, out) == (2, "")
    assert err == ("treecap: edge labels 1 and '1' both write the JSON "
                   "key '1'\n")
    for cmd, key, value in (("capacity", "n_edges", 2),
                            ("resistance", "resistance",
                             {"lower": 1.0, "upper": 1.0})):
        code, out, err = run(capsys, [cmd, "--tree", str(path)])
        assert (code, err) == (0, "")
        assert json.loads(out)[key] == value


@pytest.mark.parametrize("target, p, says", [
    ("0.999", "1.0005", "2^(1 - p') underflows to 0"),
    ("0.3", "1.001", "0.3^(1 - p') overflows"),
], ids=["base-underflow", "target-power-overflow"])
def test_construct_tree_refuses_p_too_close_to_1(capsys, target, p, says):
    code, out, err = run(capsys, ["construct-tree", "--target", target,
                                  "--p", p])
    assert (code, out) == (2, "")
    assert err == (f"treecap: p = {p} is too close to 1 for target "
                   f"{target}: {says}\n")


@pytest.mark.parametrize("degrees, bad", [
    ("2,x", "x"), ("2.5", "2.5"), ("2, 1e400", "1e400"), ("nan", "nan"),
])
def test_symmetric_degrees_must_be_whole_numbers(capsys, degrees, bad):
    code, out, err = run(capsys, ["symmetric", "--degrees", degrees])
    assert (code, out) == (2, "")
    assert err == f"treecap: --degrees holds {bad!r}, not an integer\n"


def test_symmetric_degree_2_0_is_2(capsys):
    outs = [run(capsys, ["symmetric", "--degrees", d]) for d in ("2,3",
                                                                 "2.0,3")]
    assert outs[0] == outs[1]
    assert json.loads(outs[0][1])["degrees"] == [2, 3]
    big = 2 ** 64 + 1  # beyond float precision
    code, out, _ = run(capsys, ["symmetric", "--degrees", f"2,{big}"])
    assert code == 0 and json.loads(out)["degrees"] == [2, big]
