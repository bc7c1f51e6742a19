"""superdecomp benchmark: the README's CLI commands, one process each.

Usage (from the repository root):

    python3 bench/run.py --workload verify|decompose|unitarity|spin \
        --seed N --seconds S --trace 0|1

Set-up generates the workload's input files from the seed, followed by
one untimed start of the CLI, which warms the file cache (and the
bytecode cache where Python writes one).  Then a fixed number of whole
rounds of the workload's operation list run, one command at a time: S
seconds over the reference round length (at least one round; two in
traced runs).  The input generation is repeated, cold, between the
rounds; setup_s is the median over all generations.  Every output is checked against bench/oracle.py, which
does not use the library.  Each operation's latency and exit code go
to stderr; the last line of stdout is the JSON result.

Each operation's latency and CPU time is the median over the rounds;
wall_s and cpu_s add these up over the operation list, and op_p50_s is
their median.  With --trace 1 the rounds alternate between plain and
traced commands (bench/traced_cli.py) and the per-layer metrics, per
traced round, are reported instead of the end-to-end ones.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle                      # noqa: E402
from workloads import WORKLOADS    # noqa: E402

SETUP_REPEATS = 9                  # input generations per run
OP_TIMEOUT_S = 120
# a round's wall time, about the same for every workload, on the reference
# 2-core machine (see README.md); a run makes seconds / ROUND_S rounds, so
# the operations it attempts depend only on --seconds, not on how fast
# the machine runs
ROUND_S = 5.0

PLAIN_CLI = [sys.executable, os.path.join(HERE, "peak_cli.py")]
TRACED_CLI = [sys.executable, os.path.join(HERE, "traced_cli.py")]


def child_env(root):
    env = dict(os.environ)
    env.pop("SUPERDECOMP_SEED", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv, cwd, env):
    """Run argv to completion; returns (code, stdout, stderr, wall s, cpu s)."""
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        env = dict(env, BENCH_T0=str(time.monotonic_ns()))
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, wall, ru.ru_utime + ru.ru_stime


def digest_dir(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.startswith("."):
            continue
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def generate(work, spec, env, rep):
    """Write the inputs into a new directory in a new process; returns
    the directory, the time taken and the digest of the files."""
    out_dir = os.path.join(work, "setup%d" % rep)
    os.makedirs(out_dir)
    t0 = time.perf_counter()
    code, _, err, _, _ = spawn([sys.executable, os.path.join(HERE, "gen_inputs.py"),
                                spec, out_dir], work, env)
    took = time.perf_counter() - t0
    if code != 0:
        raise SystemExit("input generation failed:\n" + err.decode(errors="replace"))
    return out_dir, took, digest_dir(out_dir)


class Record:
    """One operation's observed behaviour, kept for the checks."""

    def __init__(self, op, argv, code, stdout, stderr, outfile):
        self.op = op
        self.label = " ".join(argv)
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.outfile = outfile

    def key(self):
        return hashlib.sha256(repr((self.label, self.code, self.stdout,
                                    self.stderr, self.outfile)).encode()).hexdigest()


def read_output(run_dir, op):
    """The file an operation writes, or None when it wrote none."""
    if op.out is None:
        return None
    try:
        with open(os.path.join(run_dir, op.out), "rb") as fh:
            return fh.read()
    except OSError:
        return None


def take_json(path):
    """The JSON a command left in path, or None; the file is removed."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    os.unlink(path)
    return data


def run_round(ops, run_dir, env, traced, layer_acc, seed, round_no):
    """One pass over the operation list; returns the latencies, CPU times,
    the highest peak RSS (KiB) of the plain commands, and the records."""
    side = os.path.join(run_dir, ".trace.json" if traced else ".rss")
    argv0 = TRACED_CLI if traced else PLAIN_CLI
    env = dict(env, **{"BENCH_TRACE_OUT" if traced else "BENCH_RSS_OUT": side})
    lat, cpu, rss, records = [], [], 0, []
    for i, op in enumerate(ops):
        argv = op.argv_for(seed, round_no, i)
        code, out, err, wall, c = spawn(argv0 + argv, run_dir, env)
        lat.append(wall)
        cpu.append(c)
        rec = Record(op, argv, code, out, err, read_output(run_dir, op))
        records.append(rec)
        print("%8.3f s  exit %d  %s%s" % (wall, code, rec.label,
                                         "  [traced]" if traced else ""), file=sys.stderr)
        data = take_json(side)
        if data is None:
            continue
        if traced:
            layer_acc.append(data)
        else:
            rss = max(rss, data)
    return lat, cpu, rss, records


def check_record(rec, run_dir, cache):
    """Returns None when the operation behaved correctly, "failed" for a
    known fault that still shows, or a message describing a wrong result."""
    op = rec.op
    if op.fault:
        ok = rec.code == op.code and b"Traceback" not in rec.stderr \
            and b"error" in rec.stderr
        return None if ok else "failed"
    key = rec.key()
    if key in cache:
        return cache[key]
    try:
        _check(rec, run_dir, cache)
        msg = None
    except oracle.CheckFailure as exc:
        msg = "%s: %s" % (rec.label, exc)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        msg = "%s: unreadable output (%r)" % (rec.label, exc)
    cache[key] = msg
    return msg


def _alg(run_dir, name, cache):
    k = ("alg", name)
    if k not in cache:
        cache[k] = oracle.Alg.load(os.path.join(run_dir, name))
    return cache[k]


def _check(rec, run_dir, cache):
    op, kind = rec.op, rec.op.check[0]
    if op.code is not None:
        oracle.need(rec.code == op.code, "exit code %d, expected %d\n%s"
                    % (rec.code, op.code, rec.stderr.decode(errors="replace")[-500:]))
    out = json.loads(rec.stdout.decode().strip().splitlines()[-1]) \
        if kind not in ("constructed", "rep_file") else None
    if kind == "constructed":
        spec = op.check[1]
        g = oracle.Alg(json.loads(rec.outfile))
        oracle.check_constructed(g, spec[0], tuple(spec[1]))
    elif kind in ("killing", "center", "jacobi"):
        spec = op.check[1]
        g = _alg(run_dir, op.argv[2], cache)
        if kind == "killing":
            oracle.check_killing_output(g, out, spec[0], tuple(spec[1]))
        elif kind == "center":
            oracle.check_center_output(g, out, spec[0], tuple(spec[1]))
        else:
            oracle.check_jacobi_output(g, out, rec.code)
    elif kind == "jacobi_file":
        oracle.check_jacobi_output(_alg(run_dir, op.check[1], cache), out, rec.code)
    elif kind == "decompose":
        g = _alg(run_dir, op.argv[1], cache)
        oracle.check_decompose_output(g, out, [(t, tuple(p)) for t, p in op.check[1]],
                                      op.check[2])
    elif kind == "unitarity":
        oracle.check_unitarity_output(_alg(run_dir, op.argv[1], cache), out, op.check[1],
                                      cache)
    elif kind == "spinrep":
        oracle.check_spinrep_output(out, op.check[1], op.check[2])
    elif kind == "tangent":
        oracle.check_tangent_output(out, *op.check[1])
    elif kind == "rep_file":
        g = _alg(run_dir, op.check[1], cache)
        oracle.check_rep_file(json.loads(rec.outfile), g, op.check[2])
    else:
        raise oracle.CheckFailure("no check for %s" % kind)


def layer_metrics(traces, rounds):
    """Per-layer metrics per traced round, from the traced commands' totals."""
    calls, busy, selfs, extra = {}, {}, {}, {}
    startup = 0
    for t in traces:
        startup += t["startup_ns"]
        for src, dst in ((t["calls"], calls), (t["busy_ns"], busy),
                         (t["self_ns"], selfs), (t["extra"], extra)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v

    def c(*names):
        return sum(calls.get(n, 0) for n in names) / rounds

    def s(group):
        return busy.get(group, 0) / 1e9 / rounds

    def own(layer):
        return selfs.get(layer, 0) / 1e9 / rounds

    syl = calls.get("exact.is_positive_definite", 0)
    m = {
        "cli.startup_s": (startup / 1e9 / rounds, "s"),
        "cli.load_s": (s("cli.load"), "s"),
        "cli.emit_s": (s("cli.emit"), "s"),
        "exact.self_s": (own("exact"), "s"),
        "exact.echelon_add.calls": (c("exact.Echelon.add"), "count"),
        "exact.matmul.calls": (c("exact.Matrix.__matmul__"), "count"),
        "exact.lp.calls": (c("exact.feasible_point"), "count"),
        "exact.lp_s": (s("exact.lp"), "s"),
        "exact.sylvester.calls": (c("exact.is_positive_definite"), "count"),
        "exact.sylvester_s": (s("exact.sylvester"), "s"),
        "core.jacobi.calls": (c("core.verify_superalgebra"), "count"),
        "core.jacobi_s": (s("core.jacobi"), "s"),
        "core.bracket.calls": (c("core.SuperAlgebra.bracket"), "count"),
        "core.self_s": (own("core"), "s"),
        "core.killing.calls": (c("core.killing_form"), "count"),
        "core.killing_s": (s("core.killing"), "s"),
        "core.center.calls": (c("core.center", "core.centralizer"), "count"),
        "core.center_s": (s("core.center"), "s"),
        "core.commutant.calls": (c("core.module_commutant"), "count"),
        "core.commutant_s": (s("core.commutant"), "s"),
        "families.build.calls": (c("families.build"), "count"),
        "families.self_s": (own("families"), "s"),
        "decomp.self_s": (own("decomp"), "s"),
        "decomp.report_s": (s("decomp.report"), "s"),
        "decomp.reduce_s": (s("decomp.reduce"), "s"),
        "decomp.split_s": (s("decomp.split"), "s"),
        "decomp.spin_up.calls": (c("decomp.spin_up"), "count"),
        "decomp.classify_indices_s": (s("decomp.classify_indices"), "s"),
        "decomp.ideals_s": (s("decomp.ideals"), "s"),
        "decomp.summands": (extra.get("decomp.summands", 0) / rounds, "count"),
        "unitar.fingerprint.calls": (c("unitar.fingerprint"), "count"),
        "unitar.fingerprint_s": (s("unitar.fingerprint"), "s"),
        "unitar.classify.calls": (c("unitar.classify_fingerprint"), "count"),
        "unitar.classify_s": (s("unitar.classify"), "s"),
        "unitar.self_s": (own("unitar"), "s"),
        "unitar.report_s": (s("unitar.report"), "s"),
        "unitar.compactness_s": (s("unitar.compactness"), "s"),
        "unitar.witness.calls": (c("unitar.find_witness"), "count"),
        "unitar.witness_s": (s("unitar.witness"), "s"),
        "unitar.posdef_search.calls": (c("unitar.find_posdef_in_span"), "count"),
        "unitar.sylvester_hit_ratio": (
            extra.get("exact.sylvester_ok", 0) / syl if syl else 0.0, "ratio"),
        "fock.self_s": (own("fock"), "s"),
        "fock.spin_rep_s": (s("fock.spin_rep"), "s"),
        "fock.tangent_rep_s": (s("fock.tangent_rep"), "s"),
        "fock.rep_check.calls": (c("fock.check_unitary_representation"), "count"),
        "fock.rep_check_s": (s("fock.rep_check"), "s"),
        "fock.car_s": (s("fock.car"), "s"),
        "fock.dim_total": (extra.get("fock.dim_total", 0) / rounds, "count"),
    }
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "superdecomp", "cli.py")):
        print("error: run from the repository root (src/superdecomp not found)",
              file=sys.stderr)
        return 2
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


def measure(args, root, work):
    env = child_env(root)
    inputs, ops = WORKLOADS[args.workload](args.seed)
    spec = os.path.join(work, "inputs.json")
    with open(spec, "w") as fh:
        json.dump(inputs, fh)
    run_dir, took, digest = generate(work, spec, env, 0)
    setup_times, digests = [took], {digest}
    code, _, err, _, _ = spawn([sys.executable, "-m", "superdecomp.cli", "--version"],
                               run_dir, env)
    if code != 0:
        raise SystemExit("CLI warm-up failed:\n" + err.decode(errors="replace"))

    def generate_until(n):
        while len(setup_times) < n:
            _, took, digest = generate(work, spec, env, len(setup_times))
            setup_times.append(took)
            digests.add(digest)

    # per operation: latencies and CPU times over the rounds, plain and traced
    lats = {False: [[] for _ in ops], True: [[] for _ in ops]}
    cpus = [[] for _ in ops]
    records, traces, rss = [], [], 0
    rounds = max(2 if args.trace else 1, int(args.seconds / ROUND_S))
    for round_no in range(rounds):
        # the repeated generations are spread over the run, so that their
        # median does not rest on one phase of the machine's load
        generate_until((round_no + 1) * SETUP_REPEATS // (rounds + 1))
        traced = bool(args.trace) and round_no % 2 == 1
        # traced runs keep the first round's CLI seeds, so that their
        # counts repeat exactly for a given benchmark seed
        lat, cpu, m, recs = run_round(ops, run_dir, env, traced, traces, args.seed,
                                      0 if args.trace else round_no)
        records.extend(recs)
        for i, t in enumerate(lat):
            lats[traced][i].append(t)
        if not traced:
            for i, c in enumerate(cpu):
                cpus[i].append(c)
            rss = max(rss, m)
    generate_until(SETUP_REPEATS)

    problems = [] if len(digests) == 1 else ["input generation is not deterministic"]
    cache, failed = {}, 0
    for rec in records:
        verdict = check_record(rec, run_dir, cache)
        if verdict == "failed":
            failed += 1
        elif verdict is not None and verdict not in problems:
            problems.append(verdict)
    for p in problems:
        print("CHECK FAILED: %s" % p, file=sys.stderr)

    # an operation's typical cost is the median over the rounds, which
    # drops the rounds that a burst of load on the machine slowed down
    def op_medians(per_op):
        return [statistics.median(v) for v in per_op]

    if args.trace:
        metrics = layer_metrics(traces, len(lats[True][0]))
        traced_wall = sum(op_medians(lats[True]))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - sum(op_medians(lats[False])), "s")
    else:
        op_lat = op_medians(lats[False])
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (sum(op_lat), "s"),
            "op_p50_s": (statistics.median(op_lat), "s"),
            "cpu_s": (sum(op_medians(cpus)), "s"),
            "peak_rss_mib": (rss / 1024.0, "MiB"),
        }
    result = {"correct": not problems, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print("workload %s seed %d: %d rounds, %d operations, %d failed"
          % (args.workload, args.seed, rounds, len(records), failed))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
