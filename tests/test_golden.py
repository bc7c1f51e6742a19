"""Golden CLI outputs: each command's stdout must match its recorded file
byte for byte, and so must the file a case writes through ``--out``
(recorded as ``<name>.out.json``).  The constructors' structure constants
are pinned by the SHA-256 of their algebra files, kept in
``family_digests.json``; ``check eq-square``'s exit code, stdout and
stderr are pinned per invocation in ``eq_square.json``, and so are those
of the argument parser's help, version and usage errors and of the
refusal of an oversized family in ``cli_surface.json``; and the
classifier's table ``src/superdecomp/family_fingerprints.json`` must
equal the fingerprints of the constructors' output.  The decomposition
and unitarity reports of the probe families are pinned by SHA-256 in
``probe_reports.json``.

The input files are rebuilt from the constructors on every run, so the
comparison also covers the constructors' basis order.  To record the
files anew (only when a change of output is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

from superdecomp.cli import main
from superdecomp.spaces import SuperAlgebraError
from superdecomp.core import algebra_to_json_dict, direct_sum, quotient_by_central
from superdecomp.decomp import structure_report
from superdecomp.unitar import necessary_conditions_report
from superdecomp.exact import ONE, Scalar, vec_zero
from superdecomp.families import build_family, expected_dims, family_name
from superdecomp.classify import _TABLE, fingerprint

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DIGESTS = os.path.join(GOLDEN, "family_digests.json")
EQ_SQUARE = os.path.join(GOLDEN, "eq_square.json")
PROBES = os.path.join(GOLDEN, "probe_reports.json")
CLI_SURFACE = os.path.join(GOLDEN, "cli_surface.json")

# the classifier's families, in matching order
_TABLE_SPECS = tuple(
    # su(1|1) is the 3-dim Clifford-Heisenberg algebra (spin_h(1)) and is
    # listed under that name instead
    [("su", (n, m)) for n in range(2, 9) for m in range(1, n + 1)]
    + [("psu", (n,)) for n in range(2, 7)]
    # the queer family is simple only from n = 2 on (pq(1) degenerates to
    # the tangent algebra of su(2))
    + [(tag, (n,)) for n in range(2, 6) for tag in ("q", "pq")]
    + [("c", (n,)) for n in range(2, 7)]
    + [(tag, kt)
       for kt in (("su", 2), ("su", 3), ("su", 4), ("so", 3), ("so", 5), ("sp", 2))
       for tag in ("T", "T_hat", "T_tilde")]
    + [("spin_h", (v,)) for v in range(1, 13)])
# the classifier's table holds no family of a larger dimension
CLASSIFIER_MAX_DIM = 64

# the probe set: the classifier's families up to dimension 30 and ten
# listed ones; spin_h(2), T_hat(su2) and T_tilde(su2) are in both parts,
# so the 49 specs name 46 families
PROBE_SPECS = [(tag, params) for tag, params in _TABLE_SPECS
               if sum(expected_dims(tag, params)) <= 30] + [
    ("ch_indefinite", (1, 2)), ("ch_indefinite", (2, 1)), ("gl", (2, 1)), ("u", (2, 1)),
    ("u", (1, 1)), ("spin_h", (2,)), ("T_hat", ("su", 2)), ("T_tilde", ("su", 2)),
    ("q_hat", (2,)), ("ch", (2,))]

# the classifier's table up to dimension 40, and the matrix and
# Clifford-Heisenberg families it does not list
DIGEST_SPECS = [(tag, params) for tag, params in _TABLE_SPECS
                if sum(expected_dims(tag, params)) <= 40] + [
    ("gl", (2, 1)), ("u", (2, 1)), ("u", (2, 2)), ("q_hat", (2,)),
    ("ch", (2,)), ("ch_indefinite", (1, 2))]


def family_json(tag, *params):
    return algebra_to_json_dict(build_family(tag, *params), family_name(tag, params))


def family_digests():
    """family name -> SHA-256 of its algebra file (sorted keys, no name)."""
    out = {}
    for tag, params in DIGEST_SPECS:
        text = json.dumps(algebra_to_json_dict(build_family(tag, *params), ""),
                          sort_keys=True)
        out[family_name(tag, params)] = hashlib.sha256(text.encode()).hexdigest()
    return out


def family_fingerprints():
    """The classifier's table: [tag, params, fingerprint] per family."""
    return [[tag, list(params), list(fingerprint(build_family(tag, *params)))]
            for tag, params in _TABLE_SPECS
            if sum(expected_dims(tag, params)) <= CLASSIFIER_MAX_DIM]


def report_digest(report, g):
    """SHA-256 of report(g)'s JSON (sorted keys), or [class, message] of
    its refusal."""
    try:
        obj = report(g).to_json_dict()
    except SuperAlgebraError as err:
        return [type(err).__name__, str(err)]
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def probe_reports():
    """family name -> [structure_report digest, necessary_conditions_report
    digest], each report run on a freshly built family."""
    return {family_name(tag, params): [report_digest(report, build_family(tag, *params))
                                       for report in (structure_report,
                                                      necessary_conditions_report)]
            for tag, params in PROBE_SPECS}


def table_text(rows):
    """One row per line."""
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n"


def corrupted(tag, params, seed):
    """Add 1 to one structure constant, chosen by seed."""
    obj = family_json(tag, *params)
    terms = [t for ent in obj["brackets"] for t in ent["terms"]]
    t = terms[random.Random(seed).randrange(len(terms))]
    t["num"] = str(int(t["num"]) + int(t["den"]))
    obj["name"] += " (corrupted %d)" % seed
    return obj


def glued_su22_q2():
    """(su(2|2) + q(2)) / R(2 i1 - 2 (first three even generators of q(2)))."""
    a, b = build_family("su", 2, 2), build_family("q", 2)
    s = direct_sum(a, b)
    emb_a, emb_b = s.meta["embeddings"]
    zvec = vec_zero(s.dim)
    zvec[emb_a[a.d0 - 1]] = ONE
    for j in range(3):
        zvec[emb_b[j]] = Scalar(-2)
    g, _ = quotient_by_central(s, s.subspace([zvec]))
    return algebra_to_json_dict(g, "glued su(2|2) + q(2)")


def su21_sum():
    g = build_family("su", 2, 1)
    return algebra_to_json_dict(direct_sum(g, g), "su(2|1) + su(2|1)")


def u11_pow6():
    """u(1|1)^6, a direct sum of six copies."""
    g = s = build_family("u", 1, 1)
    for _ in range(5):
        s = direct_sum(s, g)
    return algebra_to_json_dict(s, "u(1|1)^6")


def su21_ttilde_that():
    """su(2|1) + Ttilde(su2) + That(su2): a nonzero even complement (3),
    z_b(a) of dimension 3 and b_r of dimension 1."""
    s = build_family("su", 2, 1)
    for tag in ("T_tilde", "T_hat"):
        s = direct_sum(s, build_family(tag, "su", 2))
    return algebra_to_json_dict(s, "su(2|1) + Ttilde(su2) + That(su2)")


def ch_indefinite_sum():
    g = build_family("ch_indefinite", 1, 1)
    return algebra_to_json_dict(direct_sum(g, g), "ch_indefinite(1,1) + ch_indefinite(1,1)")


# name -> (input builder or None, CLI arguments with FILE for the input and
# OUT for the written file, expected exit code)
FILE, OUT = object(), object()
CASES = {
    "jacobi_su21_c11": (lambda: corrupted("su", (2, 1), 11), ["check", "jacobi", FILE], 1),
    "jacobi_su21_c12": (lambda: corrupted("su", (2, 1), 12), ["check", "jacobi", FILE], 1),
    "jacobi_su22_c13": (lambda: corrupted("su", (2, 2), 13), ["check", "jacobi", FILE], 1),
    "killing_su32": (lambda: family_json("su", 3, 2), ["check", "killing", FILE], 0),
    "killing_psu22": (lambda: family_json("psu", 2), ["check", "killing", FILE], 0),
    "decompose_that_su3": (lambda: family_json("T_hat", "su", 3),
                           ["decompose", FILE, "--seed", "7"], 0),
    "decompose_glued_su22_q2": (glued_su22_q2, ["decompose", FILE, "--seed", "7"], 0),
    "decompose_su21_ttilde_that": (su21_ttilde_that, ["decompose", FILE, "--seed", "7"], 0),
    "unitarity_su21_sum": (su21_sum, ["unitarity", FILE, "--seed", "7"], 0),
    "unitarity_psu22": (lambda: family_json("psu", 2), ["unitarity", FILE, "--seed", "7"], 0),
    # these two run the exact cutting-plane LP (the two above make no LP call);
    # the first ends in an LP-proved "none"
    "unitarity_ch_indefinite_sum": (ch_indefinite_sum, ["unitarity", FILE, "--seed", "7"], 0),
    "unitarity_spin_h_2": (lambda: family_json("spin_h", 2), ["unitarity", FILE, "--seed", "7"], 0),
    # pins the positive-form search's candidate and round counts: (iv)
    # reports 30 iterations, and (i) scans a 78-dimensional even form span
    "unitarity_u11_pow6": (u11_pow6, ["unitarity", FILE, "--seed", "7"], 0),
    "spinrep_3": (None, ["spinrep", "--dim", "3", "--check", "--out", OUT], 0),
    "spinrep_spin_h_2": (None, ["spinrep", "--dim", "2", "--variant", "spin_h", "--check",
                                "--out", OUT], 0),
    "tangent_rep_su2": (None, ["tangent-rep", "--k", "su2", "--check", "--out", OUT], 0),
    "tangent_rep_so3": (None, ["tangent-rep", "--k", "so3", "--check", "--out", OUT], 0),
    "tangent_rep_sp1": (None, ["tangent-rep", "--k", "sp1", "--check", "--out", OUT], 0),
}


def run_case(name, workdir):
    """Exit code, stdout and the text written to OUT (None if no OUT)."""
    build, argv, _ = CASES[name]
    path = os.path.join(workdir, name + ".json")
    written = os.path.join(workdir, name + ".out.json")
    if build is not None:
        with open(path, "w") as fh:
            json.dump(build(), fh, sort_keys=True)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([path if a is FILE else written if a is OUT else a for a in argv])
    if OUT not in argv:
        return code, out.getvalue(), None
    with open(written) as fh:
        return code, out.getvalue(), fh.read()


def corrupted_keeping_name(tag, params, seed):
    return {**corrupted(tag, params, seed), "name": family_name(tag, params)}


# check eq-square invocations: key -> (input builder, SUPERDECOMP_SEED or
# None for unset, arguments after the file); eq_square.json holds each
# key's [exit code, stdout, stderr]
EQ_SQUARE_CASES = {
    **{"u(%d|%d) --seed %s --samples %s" % (p, q, seed, n):
       (lambda p=p, q=q: family_json("u", p, q), None, ["--seed", seed, "--samples", n])
       for p, q in ((1, 1), (2, 1), (2, 2), (3, 1)) for seed in ("0", "5", "17")
       for n in ("1", "50", "200")},
    **{"u(%d|%d) SUPERDECOMP_SEED=17 --samples 50" % (p, q):
       (lambda p=p, q=q: family_json("u", p, q), "17", ["--samples", "50"])
       for p, q in ((1, 1), (2, 1), (2, 2), (3, 1))},
    "u(2|1)": (lambda: family_json("u", 2, 1), None, []),
    "u(2|1) --samples 0": (lambda: family_json("u", 2, 1), None, ["--samples", "0"]),
    "u(2|1) SUPERDECOMP_SEED=abc": (lambda: family_json("u", 2, 1), "abc", []),
    # the constants are compared before the seed is read
    "u(2|1) corrupted, SUPERDECOMP_SEED=abc": (
        lambda: corrupted_keeping_name("u", (2, 1), 3), "abc", []),
    "u(2|1) corrupted and renamed": (lambda: corrupted("u", (2, 1), 3), None, []),
}


def run_eq_square(key, workdir):
    """[exit code, stdout, stderr] of one check eq-square case."""
    build, env, args = EQ_SQUARE_CASES[key]
    path = os.path.join(workdir, "eq_square.json")
    with open(path, "w") as fh:
        json.dump(build(), fh, sort_keys=True)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("SUPERDECOMP_SEED", None)
        if env is not None:
            os.environ["SUPERDECOMP_SEED"] = env
        code = main(["check", "eq-square", path] + args)
    return [code, out.getvalue(), err.getvalue()]


# the argument parser's surface: the help of the tool and of each command,
# the version, a missing and an unknown command, and per command a missing
# required argument and an unrecognized one; the files named are never read,
# because parsing fails (or exits) first
_REQUIRED = {"construct": ["--family", "su", "--params", "2,1", "--out", "x.json"],
             "check": ["jacobi", "x.json"], "decompose": ["x.json"],
             "unitarity": ["x.json"], "spinrep": ["--dim", "2"],
             "tangent-rep": ["--k", "su2"]}
# a family too large to build is refused before it is built; a build would
# grow its memory without bound, so this case runs in a child process whose
# address space is limited to 1 GiB
OVERSIZED = ["construct", "--family", "su", "--params", "99999999999999999999,1",
             "--out", "x.json"]
CLI_SURFACE_CASES = ([[], ["-h"], ["--version"], ["bogus"]]
                     + [[cmd, "-h"] for cmd in _REQUIRED]
                     + [[cmd] for cmd in _REQUIRED]
                     + [[cmd] + args + ["--bogus"] for cmd, args in _REQUIRED.items()]
                     + [OVERSIZED])


def run_cli_surface(argv):
    """[exit code, stdout, stderr] of one invocation, formatted for an
    80-column terminal."""
    if argv == OVERSIZED:
        src = os.path.join(os.path.dirname(GOLDEN), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-m", "superdecomp.cli"] + argv,
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src},
                              preexec_fn=lambda: resource.setrlimit(
                                  resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        return [proc.returncode, proc.stdout, proc.stderr]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("argv", CLI_SURFACE_CASES,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_cli_surface(argv):
    with open(CLI_SURFACE) as fh:
        assert run_cli_surface(argv) == json.load(fh)[" ".join(argv)]


@pytest.mark.parametrize("key", sorted(EQ_SQUARE_CASES))
def test_eq_square_output(key, tmp_path):
    with open(EQ_SQUARE) as fh:
        assert run_eq_square(key, str(tmp_path)) == json.load(fh)[key]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, out, written = run_case(name, str(tmp_path))
    assert code == CASES[name][2]
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        assert out == fh.read()
    if written is not None:
        with open(os.path.join(GOLDEN, name + ".out.json")) as fh:
            assert written == fh.read()


def test_family_digests():
    with open(DIGESTS) as fh:
        assert family_digests() == json.load(fh)


def test_probe_reports():
    with open(PROBES) as fh:
        assert probe_reports() == json.load(fh)


def test_family_fingerprints():
    with open(_TABLE) as fh:
        assert fh.read() == table_text(family_fingerprints())


def test_family_fingerprints_are_package_data():
    # an installed classifier reads the table next to classify.py
    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")         # [tool.setuptools] is beta
        conf = config.read_configuration(os.path.join(root, "pyproject.toml"))
    data = conf["tool"]["setuptools"]["package-data"]["superdecomp"]
    assert os.path.basename(_TABLE) in data


if __name__ == "__main__":
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name in sorted(CASES):
            code, out, written = run_case(name, work)
            if code != CASES[name][2]:
                sys.exit("%s: exit %d, expected %d" % (name, code, CASES[name][2]))
            with open(os.path.join(GOLDEN, name + ".json"), "w") as fh:
                fh.write(out)
            if written is not None:
                with open(os.path.join(GOLDEN, name + ".out.json"), "w") as fh:
                    fh.write(written)
            print("recorded", name)
        eq_square = {key: run_eq_square(key, work) for key in EQ_SQUARE_CASES}
    with open(EQ_SQUARE, "w") as fh:
        json.dump(eq_square, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded", EQ_SQUARE)
    with open(CLI_SURFACE, "w") as fh:
        json.dump({" ".join(argv): run_cli_surface(argv) for argv in CLI_SURFACE_CASES},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded", CLI_SURFACE)
    with open(DIGESTS, "w") as fh:
        json.dump(family_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded", DIGESTS)
    with open(PROBES, "w") as fh:
        json.dump(probe_reports(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded", PROBES)
    with open(_TABLE, "w") as fh:
        fh.write(table_text(family_fingerprints()))
    print("recorded", _TABLE)
