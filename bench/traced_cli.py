"""Run one superdecomp CLI command with every layer's public functions timed.

Usage: python3 bench/traced_cli.py CLI-ARGS...   (with src on PYTHONPATH)

The environment gives BENCH_TRACE_OUT, the file the totals are written
to at exit, and BENCH_T0, the CLOCK_MONOTONIC time in ns at which the
parent started this process (for the start-up span).

Wrapping happens from outside the program: each public function and
method of the seven modules is replaced by a timing wrapper, and every
module that holds the name through ``from .x import name`` is rebound,
so calls between modules are seen.  Spans are aggregated in memory:
per function the calls and the outermost busy time, per layer the self
time (a span's time minus that of the wrapped calls nested in it).
Scalar arithmetic and the dense vector helpers are left unwrapped; their
time counts to whichever layer called them.
"""

import json
import os
import sys
import time
import types

from superdecomp import cli, core, decomp, exact, families, fock, unitar

T_IMPORTED = time.monotonic_ns()

LAYERS = {"exact": exact, "core": core, "families": families,
          "decomp": decomp, "unitar": unitar, "fock": fock, "cli": cli}

# called in the innermost loops, too small to time without distorting
SKIP = {
    "exact": {"Scalar", "sc", "ipow", "vec_zero", "vec_add", "vec_sub",
              "vec_scale", "vec_is_zero", "vec_eq", "random_rational",
              "random_vector", "ptrim", "padd", "pscale", "pmul", "pdivmod",
              "pmonic", "pgcd", "pderiv", "peval", "Matrix.__getitem__",
              "Matrix.__setitem__", "Matrix.__eq__", "Matrix.__repr__"},
    "core": {"SuperAlgebra.parity", "SuperAlgebra.bracket_pair",
             "SuperAlgebra.basis_vector", "SuperSpace.parity",
             "SuperAlgebra.__init__", "SuperSpace.__init__"},
}
# private functions that carry a metric of their own
EXTRA = {"cli": {"_load_algebra", "_emit", "_atomic_write", "_dumps"}}
# the one operator with a metric of its own: matrix products
DUNDERS = ("__matmul__",)

calls = {}          # qualified name -> number of calls
busy = {}           # group name -> outermost busy time (ns)
self_ns = {layer: 0 for layer in LAYERS}
extra = {"decomp.summands": 0, "fock.dim_total": 0, "exact.sylvester_ok": 0}

# busy-time groups: a group's time counts only while no other call of the
# same group is open, so nested and recursive calls are not counted twice
GROUPS = {
    "exact.lp": ["exact.feasible_point"],
    "exact.sylvester": ["exact.is_positive_definite"],
    "core.jacobi": ["core.verify_superalgebra"],
    "core.killing": ["core.killing_form"],
    "core.center": ["core.center", "core.centralizer"],
    "core.commutant": ["core.module_commutant"],
    "decomp.report": ["decomp.structure_report"],
    "decomp.reduce": ["decomp.reduce_to_odd_generated"],
    "decomp.split": ["decomp.split_module"],
    "decomp.classify_indices": ["decomp.classify_indices"],
    "decomp.ideals": ["decomp.build_g_ideal", "decomp.build_c_ideal",
                      "decomp.build_hat_c", "decomp.qhat_embedding_certificate"],
    "unitar.fingerprint": ["unitar.fingerprint"],
    "unitar.classify": ["unitar.classify_fingerprint"],
    "unitar.report": ["unitar.necessary_conditions_report"],
    "unitar.compactness": ["unitar.compactness_check"],
    "unitar.witness": ["unitar.find_witness"],
    "fock.spin_rep": ["fock.spin_representation"],
    "fock.tangent_rep": ["fock.tilde_tangent_representation"],
    "fock.rep_check": ["fock.check_unitary_representation"],
    "fock.car": ["fock.check_car"],
    "cli.load": ["cli._load_algebra"],
    "cli.emit": ["cli._emit", "cli._atomic_write", "cli._dumps",
                 "core.algebra_to_json_dict",
                 "decomp.DecompositionReport.to_json_dict",
                 "unitar.NecessaryConditionsReport.to_json_dict",
                 "fock.Representation.to_json_dict"],
}

_stack = []         # per open span: nested wrapped time (ns)
_open = {}          # group name -> open calls


def _after(qname, result):
    if qname == "decomp.decompose_odd":
        extra["decomp.summands"] += len(result.summands)
    elif qname == "exact.is_positive_definite" and result.ok:
        extra["exact.sylvester_ok"] += 1


def _wrap(fn, qname, layer):
    groups = [g for g, members in GROUPS.items() if qname in members]
    clock = time.perf_counter_ns
    calls[qname] = 0
    for g in groups:
        busy.setdefault(g, 0)
        _open.setdefault(g, 0)

    def traced(*args, **kwargs):
        calls[qname] += 1
        outer = [g for g in groups if not _open[g]]
        for g in groups:
            _open[g] += 1
        _stack.append(0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            nested = _stack.pop()
            self_ns[layer] += dt - nested
            if _stack:
                _stack[-1] += dt
            for g in groups:
                _open[g] -= 1
            for g in outer:
                busy[g] += dt
        _after(qname, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


def _wanted(layer, qual):
    attr = qual.split(".")[-1]
    if qual in SKIP.get(layer, ()):
        return False
    return not attr.startswith("_") or attr in DUNDERS \
        or qual in EXTRA.get(layer, ())


def install():
    """Wrap, then rebind every module attribute that held an original."""
    replaced = {}
    for layer, mod in LAYERS.items():
        for name, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val.__module__ == mod.__name__:
                if _wanted(layer, name):
                    w = _wrap(val, "%s.%s" % (layer, name), layer)
                    replaced[id(val)] = w
                    setattr(mod, name, w)
            elif isinstance(val, type) and val.__module__ == mod.__name__ \
                    and name not in SKIP.get(layer, ()):
                for attr, fn in list(vars(val).items()):
                    qual = "%s.%s" % (name, attr)
                    if isinstance(fn, types.FunctionType) and _wanted(layer, qual):
                        setattr(val, attr, _wrap(fn, "%s.%s" % (layer, qual), layer))
    for mod in LAYERS.values():
        for name, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and id(val) in replaced:
                setattr(mod, name, replaced[id(val)])
    fock_init = fock.FockSpace.__init__

    def counted_init(self, n):
        fock_init(self, n)
        extra["fock.dim_total"] += 1 << n

    fock.FockSpace.__init__ = counted_init


def dump(path):
    t0 = int(os.environ.get("BENCH_T0", T_IMPORTED))
    out = {"startup_ns": T_IMPORTED - t0, "calls": calls,
           "busy_ns": busy, "self_ns": self_ns, "extra": extra}
    with open(path, "w") as fh:
        json.dump(out, fh)


def main(argv):
    install()
    try:
        return cli.main(argv)
    finally:
        dump(os.environ["BENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
