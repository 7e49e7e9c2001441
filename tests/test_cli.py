import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treecap import SphericallySymmetric, build_tree, tree_to_json
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
        "digits-negative"])
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
