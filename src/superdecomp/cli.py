"""Command-line front end.

JSON in, JSON out, integers as decimal strings throughout so nothing is
ever rounded.  Reports embed the tool version; ``decompose``,
``unitarity`` and ``check eq-square`` reports also echo the seed, which
decides nothing in them, and ``spinrep`` accepts it but does not use it.
Identical invocations with identical seeds produce byte-identical
output.  Exit codes: 0 ok, 1 verification failure, 2 usage or IO error.
"""

import argparse
import json
import os
import sys

from . import __version__
from .spaces import SuperAlgebraError
from .core import algebra_from_json_dict, algebra_to_json_dict, tables_equal
from .invariants import center, even_center_dim, killing_form, verify_superalgebra

# families, decomp, unitar, fock and tangentrep are imported by the commands
# that use them, so a command loads (and compiles) only the layers it runs;
# decompose and unitarity import theirs only once the input has passed the
# Jacobi check

OK, FAIL, USAGE = 0, 1, 2


class UsageError(Exception):
    """A bad invocation found after argument parsing; exits with USAGE."""


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _atomic_write(path, chunks):
    """Write the text chunks to path by way of a temporary file beside it;
    an OSError names path, not the temporary file."""
    import tempfile       # only commands that write a file pay for it
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".superdecomp-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(obj, out_path):
    text = _dumps(obj)
    if out_path:
        _atomic_write(out_path, [text])
    else:
        sys.stdout.write(text)


def _parse_params(raw):
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        out.append(int(tok) if tok.lstrip("-").isdigit() else tok)
    return tuple(out)


def _load_algebra(path):
    """(algebra, name or "") of a file, dropping the parsed document so no
    command holds it while it works; UsageError if it cannot be read."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return algebra_from_json_dict(obj), obj.get("name", "")
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise UsageError("cannot read algebra file: %s" % exc) from exc


def _is_superalgebra(alg):
    """verify_superalgebra, saying on stderr what fails."""
    viol = verify_superalgebra(alg)
    if viol is not None:
        print("error: input is not a Lie superalgebra: %s at (%s)"
              % (viol.kind, ", ".join(str(i) for i in viol.indices)), file=sys.stderr)
    return viol is None


def _seed_of(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SUPERDECOMP_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise UsageError("SUPERDECOMP_SEED must be an integer, not %r" % env) from None


def _report(rep, name, seed):
    """A report's JSON with the envelope every report command writes: the
    tool version, the echoed seed and the name _load_algebra read."""
    return {**rep.to_json_dict(), "version": __version__, "seed": str(seed),
            "name": name}


def _parse_ktag(raw):
    for kind in ("su", "so", "sp"):
        if raw.startswith(kind) and raw[len(kind):].isdigit():
            return kind, int(raw[len(kind):])
    raise ValueError("k must look like su2, so3 or sp1")


def cmd_construct(args):
    from .families import FamilySpec, build
    try:
        spec = FamilySpec(args.family, _parse_params(args.params))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE
    alg = build(spec)
    viol = verify_superalgebra(alg)
    if viol is not None:
        print("error: constructor output failed verification: %r" % viol,
              file=sys.stderr)
        return FAIL
    name = args.name or spec.name()
    _atomic_write(args.out, [_dumps(algebra_to_json_dict(alg, name))])
    print("%s written to %s (dims %d|%d)" % (name, args.out, alg.d0, alg.d1))
    return OK


def cmd_check(args):
    alg, name = _load_algebra(args.file)
    base = {"version": __version__, "check": args.what, "name": name}
    if args.what == "jacobi":
        viol = verify_superalgebra(alg)
        if viol is None:
            _emit({**base, "verdict": "ok"}, args.out)
            return OK
        _emit({**base, "verdict": "violation", "kind": viol.kind,
               "indices": [str(i) for i in viol.indices]}, args.out)
        return FAIL
    if args.what in ("killing", "center") and not _is_superalgebra(alg):
        return FAIL
    if args.what == "killing":
        _, rank = killing_form(alg)
        _emit({**base, "rank": str(rank), "dim": str(alg.dim)}, args.out)
        return OK
    if args.what == "center":
        _emit({**base, "dim_z": str(center(alg).dim),
               "dim_z0": str(even_center_dim(alg))}, args.out)
        return OK
    # eq-square: rebuild the named constructor to recover the matrices
    from .families import FamilySpec, build, prove_square_identity
    if args.samples < 1:
        raise UsageError("--samples must be at least 1, not %d" % args.samples)
    if not name.startswith("u("):
        print("error: eq-square needs a file built from a u(p|q) constructor",
              file=sys.stderr)
        return USAGE
    try:
        p, q = name[2:-1].split("|")
        spec = FamilySpec("u", (int(p), int(q)))
    except ValueError:
        print("error: unrecognised u-family name %r" % name, file=sys.stderr)
        return USAGE
    fresh = build(spec)
    if not tables_equal(alg, fresh):
        print("error: file constants do not match the named constructor",
              file=sys.stderr)
        return FAIL
    seed = _seed_of(args)
    # the identity is proved for every odd X, so every one of the samples
    # the report counts satisfies it; a failed proof raises
    # SuperAlgebraError, which main reports with exit 1
    prove_square_identity(fresh)
    _emit({**base, "seed": str(seed), "samples": str(args.samples),
           "satisfied": str(args.samples)}, args.out)
    return OK


def cmd_decompose(args):
    alg, name = _load_algebra(args.file)
    if not _is_superalgebra(alg):
        return FAIL
    from .split import DecompositionError
    from .decomp import structure_report
    seed = _seed_of(args)
    try:
        rep = structure_report(alg)
    except DecompositionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return FAIL
    _emit(_report(rep, name, seed), args.report)
    if args.report:
        print("report written to %s (|Js|=%d |Ja|=%d kernel=%d)"
              % (args.report, len(rep.classification.js),
                 len(rep.classification.ja), rep.kernel_dim))
    return OK


def cmd_unitarity(args):
    alg, name = _load_algebra(args.file)
    if not _is_superalgebra(alg):
        return FAIL
    from .unitar import necessary_conditions_report
    seed = _seed_of(args)
    _emit(_report(necessary_conditions_report(alg), name, seed), args.out)
    return OK


def cmd_spinrep(args):
    # a refused construction raises SuperAlgebraError, which main maps to FAIL;
    # the representation returned was verified when it was built
    from .fock import check_car, number_spectrum, spin_representation
    try:
        rep = spin_representation(args.variant, args.dim)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE
    result = {"version": __version__, "variant": args.variant,
              "dim": str(args.dim), "fock_dim": str(rep.space_dim)}
    if args.check:
        car = check_car(args.dim)
        if car is not None:
            print("error: CAR violation: %s" % car["identity"], file=sys.stderr)
            return FAIL
        result["car"] = "ok"
        result["unitary"] = "ok"
        result["faithful"] = rep.meta["faithful"]
        if args.variant == "spin_h_hat":
            spec = number_spectrum(rep)
            result["spectrum"] = {str(k): str(v) for k, v in sorted(spec.items())}
    if args.out:
        _atomic_write(args.out, rep.json_chunks())
    _emit(result, None)
    return OK


def cmd_tangent_rep(args):
    from .tangentrep import tilde_tangent_representation
    try:
        rep = tilde_tangent_representation(*_parse_ktag(args.k))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE
    result = {"version": __version__, "k": args.k,
              "fock_dim": str(rep.space_dim), "scale": str(rep.meta["scale"])}
    if args.check:
        result["unitary"] = "ok"
        result["faithful"] = rep.meta["faithful"]
    if args.out:
        _atomic_write(args.out, rep.json_chunks())
    _emit(result, None)
    return OK


# each command's function, help and arguments, as (name or flag, keyword
# arguments of add_argument), in the order the help lists them
_COMMANDS = {
    "construct": (cmd_construct, "build a family member and write it", [
        ("--family", {"required": True, "help": "family tag, e.g. u, su, psu or T_hat"}),
        ("--params", {"required": True, "help": "comma separated, e.g. 2,1 or su,2"}),
        ("--out", {"required": True}),
        ("--name", {})]),
    "check": (cmd_check, "run a verification on an algebra file", [
        ("what", {"choices": ["jacobi", "killing", "center", "eq-square"]}),
        ("file", {}),
        ("--out", {}),
        ("--seed", {"type": int, "help": "only echoed in the eq-square report"}),
        ("--samples", {"type": int, "default": 200})]),
    "decompose": (cmd_decompose, "run the structure pipeline", [
        ("file", {}),
        ("--report", {}),
        ("--seed", {"type": int, "help": "only echoed in the report"})]),
    "unitarity": (cmd_unitarity, "necessary-condition report", [
        ("file", {}),
        ("--out", {}),
        ("--seed", {"type": int, "help": "only echoed in the report"})]),
    "spinrep": (cmd_spinrep, "spin representation on the Fock space", [
        ("--dim", {"type": int, "required": True}),
        ("--variant", {"choices": ["spin_h", "spin_h_hat"], "default": "spin_h_hat"}),
        ("--check", {"action": "store_true"}),
        ("--out", {}),
        ("--seed", {"type": int, "help": "accepted but not used"})]),
    "tangent-rep": (cmd_tangent_rep, "spin representation of the extended tangent algebra", [
        ("--k", {"required": True, "help": "compact simple tag, e.g. su2"}),
        ("--check", {"action": "store_true"}),
        ("--out", {})]),
}


def make_parser(command=None):
    """The argument parser; given a command's name, with only that command's
    subparser, as building the other five costs each run about a
    millisecond."""
    p = argparse.ArgumentParser(
        prog="superdecomp",
        description="Exact constructors, decomposition and unitarity "
                    "certificates for compact Lie superalgebras.")
    p.add_argument("--version", action="version", version=__version__)
    # with one subparser the usage line would name one command, so it gets
    # the full list; with all of them argparse's own, which the errors for
    # a missing or unknown command name "command" by, is kept
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        func, text, arguments = _COMMANDS[name]
        c = sub.add_parser(name, help=text)
        for flag, kwargs in arguments:
            c.add_argument(flag, **kwargs)
        c.set_defaults(func=func)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser has options only, so a first argument that names
    # a command is the command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = make_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except SuperAlgebraError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return FAIL
    except (OSError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
