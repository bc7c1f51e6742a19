"""The four workloads: input files to generate and the operation list of
one round.

Everything that varies is drawn from the benchmark seed: the CLI
``--seed`` of each command (a new one in every round, see Op.argv_for),
which structure constant the corrupted ``verify`` inputs change, and the
order of the summands of every direct sum and central quotient.  The
inputs of the known-fault operations (F1, F2) are fixed, so their count
is the same for every seed.
"""

import random

# (tag, params) of the families each workload touches
SU21 = ("su", (2, 1))
SU22 = ("su", (2, 2))
PSU2 = ("psu", (2,))
Q2 = ("q", (2,))
PQ2 = ("pq", (2,))
C2 = ("c", (2,))
THAT_SU2 = ("T_hat", ("su", 2))
THAT_SU3 = ("T_hat", ("su", 3))
TTILDE_SU2 = ("T_tilde", ("su", 2))
T_SU2 = ("T", ("su", 2))
SPINHAT2 = ("spin_h_hat", (2,))

# the corrupted su(2|1) behind F1: bracket entry 0, first term, plus one
F1_CORRUPTION = 0


def _params_arg(params):
    return ",".join(str(p) for p in params)


def _file(spec):
    tag, params = spec
    return "%s_%s.json" % (tag, "_".join(str(p) for p in params))


class Op:
    """One CLI command, its expected exit code and how to check its output.

    ``fault`` names a known program fault (F1, F2): such an operation is
    counted as failed while the program still shows the fault.
    """

    def __init__(self, argv, code=0, check=None, fault=None, out=None):
        self.argv = argv
        self.code = code
        self.check = check
        self.fault = fault
        self.out = out

    def argv_for(self, seed, round_no, index):
        """The command with its CLI seed filled in for one round."""
        cli_seed = random.Random("%d/%d/%d" % (seed, round_no, index)).randrange(1, 10 ** 6)
        return [str(cli_seed) if a == CLI_SEED else a for a in self.argv]


# stands for the CLI --seed, drawn anew for every round
CLI_SEED = "{cli-seed}"


def _fault_inputs():
    """Fixed malformed and invalid files (same for every seed)."""
    return [
        {"file": "f1_su21_corrupt.json", "corrupt": SU21, "pick": F1_CORRUPTION},
        {"file": "f1_parity.json", "parity_violation": SU21},
        {"file": "f2_den_zero.json", "malformed": SU21, "how": "den_zero"},
        {"file": "f2_k_range.json", "malformed": SU21, "how": "k_out_of_range"},
        {"file": "f2_k_negative.json", "malformed": SU21, "how": "k_negative"},
    ]


def verify(seed):
    rng = random.Random(seed)
    built = [SU22, Q2, C2]
    inputs = [
        {"file": "corrupt_su21.json", "corrupt": SU21, "pick": rng.randrange(10 ** 6)},
        {"file": "corrupt_su22.json", "corrupt": SU22, "pick": rng.randrange(10 ** 6)},
    ] + [i for i in _fault_inputs() if "malformed" in i]
    ops = []
    for spec in built:
        tag, params = spec
        ops.append(Op(["construct", "--family", tag, "--params", _params_arg(params),
                       "--out", _file(spec)], check=("constructed", spec),
                      out=_file(spec)))
    for spec in (SU22, Q2, C2):
        ops.append(Op(["check", "killing", _file(spec)], check=("killing", spec)))
        ops.append(Op(["check", "center", _file(spec)], check=("center", spec)))
    ops.append(Op(["check", "jacobi", _file(C2)], check=("jacobi", C2)))
    # seeded corrupted files: the expected exit code (1 when the change
    # breaks the Jacobi identity) is decided by the harness's own check
    for name in ("corrupt_su21.json", "corrupt_su22.json"):
        ops.append(Op(["check", "jacobi", name], code=None, check=("jacobi_file", name)))
    for inp in inputs:
        if "malformed" in inp:
            ops.append(Op(["check", "center", inp["file"]], code=2, fault="F2"))
    return inputs, ops


def _sum_input(name, parts, rng):
    parts = list(parts)
    rng.shuffle(parts)
    return {"file": name, "sum": parts}, parts


def decompose(seed):
    rng = random.Random(seed)
    inputs = []
    ops = []

    def add(name, parts, glued=0):
        ops.append(Op(["decompose", name, "--seed", CLI_SEED],
                      check=("decompose", tuple(parts), glued)))

    for spec in (THAT_SU3,):
        inputs.append({"file": _file(spec), "family": spec})
        add(_file(spec), [spec])
    inp, parts = _sum_input("sum_su21_ttilde_that.json", [SU21, TTILDE_SU2, THAT_SU2], rng)
    inputs.append(inp)
    add(inp["file"], parts)
    inp, parts = _sum_input("sum_su22_spinhat.json", [SU22, SPINHAT2], rng)
    inputs.append(inp)
    add(inp["file"], parts)
    order = [SU22, Q2]
    rng.shuffle(order)
    inputs.append({"file": "glued_su22_q2.json", "glued": order})
    add("glued_su22_q2.json", order, glued=1)
    f1 = _fault_inputs()[0]
    inputs.append(f1)
    ops.append(Op(["decompose", f1["file"], "--seed", "1"], code=1, fault="F1"))
    return inputs, ops


def unitarity(seed):
    rng = random.Random(seed)
    inputs = []
    ops = []
    cases = [
        ("pow_spin_h2_3.json", [("spin_h", (2,))] * 3, "compact"),
        ("pow_u11_6.json", [("u", (1, 1))] * 6, "compact"),
        ("pow_su21_4.json", [SU21] * 4, "compact"),
        ("psu_2.json", [PSU2], "psu"),
        ("T_su2.json", [T_SU2], "T"),
        ("pow_ch_indef_3.json", [("ch_indefinite", (1, 1))] * 3, "ch_indefinite"),
        ("mix_su22_psu2_pq2.json", [SU22, PSU2, PQ2], "mixed_obstruction"),
    ]
    for name, parts, kind in cases:
        inp, _ = _sum_input(name, parts, rng)
        inputs.append(inp)
        ops.append(Op(["unitarity", name, "--seed", CLI_SEED],
                      check=("unitarity", kind)))
    for f1 in _fault_inputs()[:2]:
        inputs.append(f1)
        ops.append(Op(["unitarity", f1["file"], "--seed", "1"], code=1, fault="F1"))
    return inputs, ops


def spin(seed):
    inputs = [{"file": "spin_h_hat_4.json", "family": ("spin_h_hat", (4,))}]
    ops = []
    for n in (4,):
        ops.append(Op(["spinrep", "--dim", str(n), "--check", "--seed", CLI_SEED],
                      check=("spinrep", "spin_h_hat", n)))
    for n in (4,):
        ops.append(Op(["spinrep", "--dim", str(n), "--variant", "spin_h", "--check",
                       "--seed", CLI_SEED], check=("spinrep", "spin_h", n)))
    for k in (("su", 2), ("so", 3), ("sp", 1)):
        ops.append(Op(["tangent-rep", "--k", "%s%d" % k, "--check"],
                      check=("tangent", k)))
    ops.append(Op(["spinrep", "--dim", "4", "--out", "rep_spin_h_hat_4.json"],
                  check=("rep_file", "spin_h_hat_4.json", 4), out="rep_spin_h_hat_4.json"))
    return inputs, ops


WORKLOADS = {"verify": verify, "decompose": decompose,
             "unitarity": unitarity, "spin": spin}
