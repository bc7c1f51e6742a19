import functools
import json
import os
import subprocess
import sys
import time

import pytest

from superdecomp import core, families, invariants
from superdecomp.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_su21(tmp_path, capsys):
    path = str(tmp_path / "su21.json")
    code, out, _ = run(capsys, "construct", "--family", "su",
                       "--params", "2,1", "--out", path)
    assert code == 0
    obj = json.loads(open(path).read())
    assert obj["name"] == "su(2|1)"
    assert len(obj["basis"]) == 8
    assert "dims 4|4" in out


def test_construct_verifies_an_extension_once(tmp_path, capsys, monkeypatch):
    # the constructor certifies T_hat su(4); construct's own check is a memo hit
    monkeypatch.setattr(families, "_build_cached", functools.lru_cache(maxsize=None)(
        families._build_cached.__wrapped__))
    runs = []
    body = invariants.verify_superalgebra.__wrapped__
    monkeypatch.setattr(invariants.verify_superalgebra, "__wrapped__",
                        lambda g: runs.append(g) or body(g))
    code, out, _ = run(capsys, "construct", "--family", "T_hat", "--params", "su,4",
                       "--out", str(tmp_path / "that4.json"))
    assert code == 0 and "dims 15|16" in out
    assert len(runs) == 1


def test_construct_c2_dims(tmp_path, capsys):
    path = str(tmp_path / "c2.json")
    code, _, _ = run(capsys, "construct", "--family", "c", "--params", "2",
                     "--out", path)
    assert code == 0
    obj = json.loads(open(path).read())
    parities = [b["parity"] for b in obj["basis"]]
    assert parities.count(0) == 4 and parities.count(1) == 4


def test_construct_rejects_bad_params(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--family", "su",
                       "--params", "1,2", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "n >= m" in err


def test_construct_unknown_family_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "x"
    code, out, err = run(capsys, "construct", "--family", "nope", "--params", "1",
                         "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith("error: unknown family tag 'nope'")
    # the error names the valid tags
    assert "T_hat" in err and "ch_indefinite" in err
    assert "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "su", "--params", "2,1", "--out"],
    ["decompose", "SU21", "--report"],
    ["unitarity", "SU21", "--out"],
    ["spinrep", "--dim", "2", "--out"],
    ["tangent-rep", "--k", "su2", "--out"],
])
def test_output_into_a_missing_directory_names_the_given_path(tmp_path, capsys, argv):
    src = str(tmp_path / "su21.json")
    run(capsys, "construct", "--family", "su", "--params", "2,1", "--out", src)
    target = str(tmp_path / "missing" / "out.json")
    code, _, err = run(capsys, *[src if a == "SU21" else a for a in argv], target)
    assert code == 2
    assert err.startswith("error: ") and repr(target) in err, err
    assert ".superdecomp-" not in err
    assert "Traceback" not in err


def test_a_failed_write_leaves_no_file_behind(tmp_path):
    from superdecomp.cli import _atomic_write

    def chunks():
        yield "{"
        raise RuntimeError("chunk failed")

    target = tmp_path / "out.json"
    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(target), chunks())
    assert list(tmp_path.iterdir()) == []


def test_check_jacobi_and_killing(tmp_path, capsys):
    path = str(tmp_path / "psu22.json")
    run(capsys, "construct", "--family", "psu", "--params", "2", "--out", path)
    code, out, _ = run(capsys, "check", "jacobi", path)
    assert code == 0 and json.loads(out)["verdict"] == "ok"
    code, out, _ = run(capsys, "check", "killing", path)
    assert code == 0
    assert json.loads(out)["rank"] == "0"


def test_check_killing_su21(tmp_path, capsys):
    path = str(tmp_path / "su21.json")
    run(capsys, "construct", "--family", "su", "--params", "2,1", "--out", path)
    code, out, _ = run(capsys, "check", "killing", path)
    assert json.loads(out)["rank"] == "8"


def test_check_center(tmp_path, capsys):
    path = str(tmp_path / "pq2.json")
    run(capsys, "construct", "--family", "pq", "--params", "2", "--out", path)
    code, out, _ = run(capsys, "check", "center", path)
    obj = json.loads(out)
    assert obj["dim_z"] == "0" and obj["dim_z0"] == "0"


def test_check_eq_square(tmp_path, capsys):
    path = str(tmp_path / "u21.json")
    run(capsys, "construct", "--family", "u", "--params", "2,1", "--out", path)
    code, out, _ = run(capsys, "check", "eq-square", path, "--seed", "5",
                       "--samples", "50")
    assert code == 0
    obj = json.loads(out)
    assert obj["satisfied"] == "50"


def test_check_eq_square_cost_does_not_grow_with_samples(tmp_path, capsys):
    # the identity is proved from the odd basis; sampling a million odd
    # elements of u(2|1) one by one took minutes
    path = str(tmp_path / "u21.json")
    run(capsys, "construct", "--family", "u", "--params", "2,1", "--out", path)
    proc = subprocess.run([sys.executable, "-m", "superdecomp.cli", "check", "eq-square",
                           path, "--samples", "1000000"],
                          capture_output=True, text=True, env=_src_env(), timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    assert '"satisfied":"1000000"' in proc.stdout


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_check_eq_square_rejects_samples_below_one(tmp_path, capsys, samples):
    path = str(tmp_path / "u21.json")
    run(capsys, "construct", "--family", "u", "--params", "2,1", "--out", path)
    code, out, err = run(capsys, "check", "eq-square", path, "--samples", samples)
    assert code == 2 and out == ""
    assert err.startswith("error: --samples must be at least 1")


def test_check_eq_square_rejects_non_u(tmp_path, capsys):
    path = str(tmp_path / "q2.json")
    run(capsys, "construct", "--family", "q", "--params", "2", "--out", path)
    code, _, err = run(capsys, "check", "eq-square", path)
    assert code == 2
    assert "u(p|q)" in err


def test_decompose_that(tmp_path, capsys):
    path = str(tmp_path / "that.json")
    report = str(tmp_path / "report.json")
    run(capsys, "construct", "--family", "T_hat", "--params", "su,2",
        "--out", path)
    code, out, _ = run(capsys, "decompose", path, "--report", report,
                       "--seed", "3")
    assert code == 0
    obj = json.loads(open(report).read())
    assert obj["b_dim"] == "1"
    assert [s["kind"] for s in obj["summands"]] == ["Ja"]
    assert obj["kernel_dim"] == "0"


def test_decompose_rejects_even_only(tmp_path, capsys):
    # a purely even file: build su(2) through the tangent constructor's
    # underlying algebra is not exposed; fabricate an abelian even algebra
    path = str(tmp_path / "even.json")
    obj = {"name": "abelian", "basis": [{"id": "e0", "parity": 0}], "brackets": []}
    with open(path, "w") as fh:
        fh.write(json.dumps(obj))
    code, _, err = run(capsys, "decompose", path)
    assert code == 1
    assert "odd-generation" in err


def test_decompose_refuses_an_odd_part_that_is_not_semisimple(tmp_path, capsys):
    # the parabolic subalgebra of gl(2|1) spanned by E11, E22, E33, E12
    # (even) and E13, E31, E32 (odd): b and [g0, g1] are each 1-dim in the
    # 3-dim odd part, so the odd module is not semisimple
    from superdecomp.exact import ONE
    from superdecomp.realize import _span
    units = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (2, 0), (2, 1)]
    path = str(tmp_path / "parabolic.json")
    with open(path, "w") as fh:
        json.dump(core.algebra_to_json_dict(_span(3, 2, [{ij: ONE} for ij in units]),
                                            "parabolic"), fh)
    code, out, err = run(capsys, "decompose", path)
    assert (code, out) == (1, "")
    assert err == ("error: odd part is not the direct sum of b and [g0, g1]; "
                   "module not semisimple\n")


def test_unitarity_pq2(tmp_path, capsys):
    path = str(tmp_path / "pq2.json")
    run(capsys, "construct", "--family", "pq", "--params", "2", "--out", path)
    code, out, _ = run(capsys, "unitarity", path, "--seed", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["overall"] == "obstruction found"
    verdicts = {c["condition"]: c["verdict"] for c in obj["conditions"]}
    assert verdicts["v_even_center"] == "fail"


def test_spinrep_check(capsys):
    code, out, _ = run(capsys, "spinrep", "--dim", "3", "--check")
    assert code == 0
    obj = json.loads(out)
    assert obj["car"] == "ok"
    assert obj["spectrum"] == {"0": "1", "1": "3", "2": "3", "3": "1"}
    assert obj["faithful"] is True


def test_tangent_rep_check(capsys):
    code, out, _ = run(capsys, "tangent-rep", "--k", "su2", "--check")
    assert code == 0
    obj = json.loads(out)
    assert obj["unitary"] == "ok" and obj["faithful"] is True
    assert obj["fock_dim"] == "8"


@pytest.mark.parametrize("argv", [
    ["tangent-rep", "--k", "su1"], ["tangent-rep", "--k", "su0"],
    ["tangent-rep", "--k", "sp0"], ["tangent-rep", "--k", "so4"],
    ["spinrep", "--dim", "0"]])
def test_bad_k_or_dim_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_tangent_rep_refuses_a_large_k_before_building_it(capsys):
    # each of the 143 dimensions of su(12) needs at least one Fock
    # generator; building T_tilde(su12) and its Killing form first took 9 s
    start = time.perf_counter()
    code, out, err = run(capsys, "tangent-rep", "--k", "su12")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == "error: Fock dimension at least 2^143 exceeds the exact-construction cap\n"


def test_rep_commands_check_each_representation_once(capsys, monkeypatch):
    import superdecomp.cli as cli
    import superdecomp.fock as fock
    import superdecomp.tangentrep as tangentrep
    calls = []
    body = fock.check_unitary_representation

    def counted(g, rep):
        calls.append(rep)
        return body(g, rep)

    monkeypatch.setattr(fock, "check_unitary_representation", counted)
    monkeypatch.setattr(tangentrep, "check_unitary_representation", counted)
    # a second check from the command itself would go through its own binding
    monkeypatch.setattr(cli, "check_unitary_representation", counted, raising=False)
    for argv in (["spinrep", "--dim", "2", "--check"],
                 ["spinrep", "--dim", "2", "--variant", "spin_h", "--check"],
                 ["tangent-rep", "--k", "su2", "--check"]):
        calls.clear()
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == 1, argv


def test_determinism_decompose(tmp_path, capsys):
    path = str(tmp_path / "g.json")
    run(capsys, "construct", "--family", "q_hat", "--params", "2", "--out", path)
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    run(capsys, "decompose", path, "--report", r1, "--seed", "9")
    run(capsys, "decompose", path, "--report", r2, "--seed", "9")
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "u11.json")
    run(capsys, "construct", "--family", "u", "--params", "1,1", "--out", path)
    monkeypatch.setenv("SUPERDECOMP_SEED", "17")
    code, out, _ = run(capsys, "check", "eq-square", path, "--samples", "5")
    assert code == 0
    assert json.loads(out)["seed"] == "17"


def test_seed_env_not_an_integer_exits_2(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "that.json")
    run(capsys, "construct", "--family", "T_hat", "--params", "su,2", "--out", path)
    # an even-only file, whose decomposition would fail, is refused the same way
    even = _write(tmp_path, "even.json", {"name": "abelian", "brackets": [],
                                          "basis": [{"id": "e0", "parity": 0}]})
    monkeypatch.setenv("SUPERDECOMP_SEED", "abc")
    for cmd, file in (("decompose", path), ("unitarity", path), ("decompose", even)):
        code, out, err = run(capsys, cmd, file)
        assert code == 2 and out == "", (cmd, file)
        assert err.startswith("error: SUPERDECOMP_SEED must be an integer")


def test_report_seed_is_only_echoed(tmp_path, capsys):
    # the reports at two seeds differ in the echoed seed alone
    from test_unitar import odd_squares_on_z
    cases = [("that", families.build_family("T_hat", "su", 2), ("decompose", "unitarity")),
             ("qhat2", families.build_family("q_hat", 2), ("decompose", "unitarity")),
             ("squares_1_m4", odd_squares_on_z(1, -4), ("unitarity",)),
             ("squares_1_1_m2", odd_squares_on_z(1, 1, -2), ("unitarity",))]
    for name, g, cmds in cases:
        path = _write(tmp_path, name + ".json", core.algebra_to_json_dict(g, name))
        for cmd in cmds:
            reports = []
            for seed in ("11", "12"):
                code, out, err = run(capsys, cmd, path, "--seed", seed)
                assert code == 0, (name, cmd, err)
                rep = json.loads(out)
                assert rep.pop("seed") == seed and rep["name"] == name
                reports.append(rep)
            assert reports[0] == reports[1], (name, cmd)


def test_reports_echo_the_file_name_or_an_empty_one(tmp_path, capsys):
    # the name is read when the file is loaded; the parsed file is not kept
    obj = core.algebra_to_json_dict(families.build_family("su", 2, 1), "my su(2|1)")
    named = _write(tmp_path, "named.json", obj)
    del obj["name"]
    unnamed = _write(tmp_path, "unnamed.json", obj)
    for argv in (("check", "center"), ("decompose",), ("unitarity",)):
        for path, name in ((named, "my su(2|1)"), (unnamed, "")):
            code, out, err = run(capsys, *argv, path)
            assert code == 0, (argv, err)
            assert json.loads(out)["name"] == name, (argv, path)


def test_no_library_function_takes_a_seed():
    # the report seed is the CLI's concern; samplers take an rng
    import ast
    pkg = os.path.dirname(core.__file__)
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py") or fname == "cli.py":
            continue
        with open(os.path.join(pkg, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                assert "seed" not in names, (fname, node.lineno)


# --- inputs that must be refused ---------------------------------------------

def _write(tmp_path, name, obj):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _su21():
    from superdecomp.core import algebra_to_json_dict
    from superdecomp.families import build_family
    return algebra_to_json_dict(build_family("su", 2, 1), "su(2|1)")


def f1_files(tmp_path):
    """su(2|1) with one constant raised by one, and with an odd term in
    [odd, odd]: both load, neither is a Lie superalgebra."""
    raised = _su21()
    t = raised["brackets"][0]["terms"][0]
    t["num"] = str(int(t["num"]) + int(t["den"]))
    odd_odd = _su21()
    odd = [str(i) for i, b in enumerate(odd_odd["basis"]) if b["parity"]]
    # [e_odd0, e_odd1] = e_odd2 (the pair brackets to zero in su(2|1))
    odd_odd["brackets"].append({"i": odd[0], "j": odd[1],
                                "terms": [{"k": odd[2], "num": "1", "den": "1"}]})
    return [_write(tmp_path, "raised.json", raised),
            _write(tmp_path, "odd_odd.json", odd_odd)]


def test_f1_files_load_but_fail_jacobi(tmp_path, capsys):
    kinds = []
    for path in f1_files(tmp_path):
        code, out, _ = run(capsys, "check", "jacobi", path)
        assert code == 1
        kinds.append(json.loads(out)["kind"])
    assert kinds == ["jacobi", "parity"]


def test_decompose_and_unitarity_refuse_non_superalgebras(tmp_path, capsys):
    for path in f1_files(tmp_path):
        for cmd in (["decompose"], ["unitarity"], ["check", "killing"],
                    ["check", "center"]):
            code, out, err = run(capsys, *cmd, path, "--seed", "1")
            assert code == 1, (cmd, path)
            assert out == ""
            assert err.startswith("error: input is not a Lie superalgebra: ")
            assert "Traceback" not in err


# run every command on every malformed file in one interpreter, optionally
# under -O, and print the exit codes and stderr as JSON
_RUN_ALL = """
import contextlib, io, json, sys
from superdecomp.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    out.append([code, err.getvalue()])
print(json.dumps(out))
"""


# run one command and print the superdecomp modules it imported
_MODULES_AFTER = """
import contextlib, io, json, sys
from superdecomp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("superdecomp."))]))
"""


# run one command and print its exit code and this process's peak resident
# set (VmHWM, KiB); ru_maxrss of a child would carry the parent's own peak
_PEAK_AFTER = """
import contextlib, io, json, sys
from superdecomp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps([code, peak]))
"""


def _src_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_commands_import_only_the_layers_they_use(tmp_path, capsys):
    path = str(tmp_path / "su21.json")
    run(capsys, "construct", "--family", "su", "--params", "2,1", "--out", path)
    tangents = []
    for tag in ("T_hat", "T_tilde"):
        tangents.append(str(tmp_path / (tag + ".json")))
        run(capsys, "construct", "--family", tag, "--params", "su,2", "--out", tangents[-1])
    # the Sylvester test and LP live in positivity (tangentrep reads the
    # congruence diagonalisation in exact directly), bracket spans and
    # commutants in calculus, the extensions in extend, the module splitter
    # in split, the ideals in ideals, the witness search in witness and the
    # Ttilde spin representation in tangentrep: none is compiled by a
    # command that does not run it
    checks = ("families", "realize", "extend", "poly", "unitar", "classify", "decomp",
              "fock", "positivity", "calculus", "split", "ideals", "witness", "tangentrep")
    for argv, absent in ((["check", "killing", path], checks),
                         (["check", "center", path], checks),
                         (["check", "jacobi", path], checks),
                         (["construct", "--family", "su", "--params", "2,1",
                           "--out", str(tmp_path / "again.json")],
                          ("poly", "unitar", "classify", "decomp", "fock", "positivity",
                           "calculus", "split", "ideals", "witness", "tangentrep")),
                         (["unitarity", path],
                          ("families", "realize", "extend", "poly", "classify", "decomp",
                           "fock", "split", "ideals", "tangentrep")),
                         (["spinrep", "--dim", "2", "--check"],
                          ("poly", "decomp", "unitar", "classify", "positivity",
                           "calculus", "split", "ideals", "witness", "tangentrep")),
                         (["tangent-rep", "--k", "su2", "--check"],
                          ("poly", "decomp", "unitar", "classify", "positivity", "calculus",
                           "split", "ideals", "witness")),
                         # every ideal of su(2|1) is of kind Js: no family is
                         # built, and the classifier needs no unitarity code
                         (["decompose", path],
                          ("families", "realize", "fock", "unitar", "positivity", "witness",
                           "tangentrep")),
                         # a residue ideal is compared with a tangent algebra
                         # built in extend; only the qhat certificate builds a family
                         (["decompose", tangents[0]],
                          ("families", "realize", "fock", "unitar", "positivity", "witness",
                           "tangentrep")),
                         (["decompose", tangents[1]],
                          ("families", "realize", "fock", "unitar", "positivity", "witness",
                           "tangentrep"))):
        proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, json.dumps(argv)],
                              capture_output=True, text=True, env=_src_env(), timeout=600)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0, (argv, proc.stderr)
        assert "superdecomp.cli" in modules
        for name in absent:
            assert "superdecomp." + name not in modules, (argv, modules)


def test_refused_inputs_compile_no_pipeline(tmp_path):
    # the Jacobi check runs before decompose and unitarity import their layers
    absent = ("decomp", "families", "realize", "extend", "poly", "unitar", "classify",
              "positivity", "calculus", "split", "ideals", "witness", "tangentrep")
    for path in f1_files(tmp_path):
        for cmd in ("decompose", "unitarity"):
            proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER,
                                   json.dumps([cmd, path])],
                                  capture_output=True, text=True, env=_src_env(), timeout=600)
            assert proc.returncode == 0, proc.stderr
            code, modules = json.loads(proc.stdout)
            assert code == 1, (cmd, path, proc.stderr)
            assert proc.stderr.startswith("error: input is not a Lie superalgebra: ")
            for name in absent:
                assert "superdecomp." + name not in modules, (cmd, modules)


# run one command and print its exit code and whether tempfile was imported
_TEMPFILE_AFTER = """
import contextlib, io, json, sys
from superdecomp.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, "tempfile" in sys.modules]))
"""


def test_commands_that_write_no_file_never_import_tempfile(tmp_path, capsys):
    # under -S no site hook preloads tempfile, so a cold start pays for
    # its import unless only _atomic_write imports it
    path = str(tmp_path / "su21.json")
    run(capsys, "construct", "--family", "su", "--params", "2,1", "--out", path)
    for argv in (["check", "center", path], ["unitarity", path], ["decompose", path]):
        proc = subprocess.run([sys.executable, "-S", "-c", _TEMPFILE_AFTER, json.dumps(argv)],
                              capture_output=True, text=True, env=_src_env(), timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, False], argv


def test_benchmark_input_generator_finds_its_names():
    # bench/gen_inputs.py sets up every benchmark run; a name it imports
    # from the library must stay where it imports it from
    import ast
    import importlib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "gen_inputs.py")) as fh:
        tree = ast.parse(fh.read())
    wanted = {n.module: sorted(a.name for a in n.names) for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) and n.module.startswith("superdecomp")}
    assert wanted == {
        "superdecomp.core": ["algebra_to_json_dict", "direct_sum", "quotient_by_central"],
        "superdecomp.exact": ["ONE", "Scalar", "vec_zero"],
        "superdecomp.families": ["build_family", "family_name"]}
    for module, names in wanted.items():
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), (module, name)
    # quotient_by_central writes the quotient through algebra_in_basis
    assert hasattr(importlib.import_module("superdecomp.core"), "algebra_in_basis")


def test_benchmark_harness_imports_resolve():
    # the names bench/gen_inputs.py imports, written out, and the modules
    # bench/traced_cli.py wraps: a move that loses one breaks the
    # benchmark's set-up with an ImportError
    import ast
    import importlib
    from superdecomp.core import algebra_to_json_dict, direct_sum, quotient_by_central
    from superdecomp.exact import ONE, Scalar, vec_zero
    from superdecomp.families import build_family, family_name
    assert all(callable(f) for f in (algebra_to_json_dict, direct_sum, quotient_by_central,
                                     vec_zero, build_family, family_name))
    assert ONE == 1 and isinstance(Scalar(0, 1), Scalar)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "bench", "traced_cli.py")) as fh:
        tree = ast.parse(fh.read())
    layers = sorted(a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) and n.module == "superdecomp"
                    for a in n.names)
    assert layers == ["cli", "core", "decomp", "exact", "families", "fock", "unitar"]
    for name in layers:
        importlib.import_module("superdecomp." + name)
    # traced_cli counts the Fock dimension through FockSpace.__init__
    assert hasattr(importlib.import_module("superdecomp.fock"), "FockSpace")


@pytest.mark.parametrize("optimize", [False, True])
def test_malformed_files_exit_2(tmp_path, optimize):
    from test_core import MALFORMED, malformed_su21
    argvs = []
    for name in sorted(MALFORMED):
        path = _write(tmp_path, name + ".json", malformed_su21(name))
        argvs += [["check", "center", path], ["decompose", path],
                  ["unitarity", path]]
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable] + flags + ["-c", _RUN_ALL, json.dumps(argvs)],
                          capture_output=True, text=True, env=_src_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr
    for argv, (code, err) in zip(argvs, json.loads(proc.stdout)):
        assert code == 2, (argv, err)
        assert err.startswith("error: cannot read algebra file: "), (argv, err)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
def test_spinrep_out_never_holds_the_whole_text(tmp_path):
    # the 21 MB text of spin_h_hat(8) held at once peaked at 71 MiB
    out = tmp_path / "spin8.json"
    argv = ["spinrep", "--dim", "8", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", _PEAK_AFTER, json.dumps(argv)],
                          capture_output=True, text=True, env=_src_env(), timeout=600)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib = json.loads(proc.stdout)
    assert code == 0 and out.stat().st_size == 21245783
    assert peak_kib < 40 * 1024


def _u11():
    return core.algebra_to_json_dict(families.build_family("u", 1, 1), "u(1|1)")


def _with_terms(o, terms):
    o["brackets"][0]["terms"] = terms
    return o


# a u(1|1) file whose containers or name have the wrong JSON type
MALFORMED_CONTAINERS = {
    "basis_string": lambda o: {**o, "basis": "", "brackets": []},
    "brackets_string": lambda o: {**o, "brackets": ""},
    "brackets_object": lambda o: {**o, "brackets": {}},
    "terms_object": lambda o: _with_terms(o, {}),
    "name_object": lambda o: {**o, "name": {"a": 1}},
    "name_int": lambda o: {**o, "name": 5},
}


@pytest.mark.parametrize("cmd", [["check", "center"], ["decompose"], ["unitarity"],
                                 ["check", "eq-square"]])
@pytest.mark.parametrize("name", sorted(MALFORMED_CONTAINERS))
def test_malformed_containers_exit_2(tmp_path, capsys, name, cmd):
    path = _write(tmp_path, name + ".json", MALFORMED_CONTAINERS[name](_u11()))
    code, out, err = run(capsys, *cmd, path)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read algebra file: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("cmd", [["check", "jacobi"], ["check", "killing"], ["check", "center"],
                                 ["check", "eq-square"], ["decompose"], ["unitarity"]])
def test_too_deeply_nested_file_exits_2(tmp_path, capsys, cmd):
    # json gives up on nesting this deep with a RecursionError
    path = str(tmp_path / "deep.json")
    with open(path, "w") as fh:
        fh.write("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *cmd, path)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read algebra file: "), err
    assert "Traceback" not in err
