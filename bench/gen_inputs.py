"""Write a workload's input files.

Usage: python3 bench/gen_inputs.py SPEC.json OUTDIR   (with src on PYTHONPATH)

SPEC.json is the input list of a workload (see workloads.py).  Family
members come from the library's constructors and central quotients from
its quotient map; direct sums, corrupted constants and malformed files
are made here, on the JSON.
"""

import json
import os
import sys

from superdecomp.core import algebra_to_json_dict, direct_sum, quotient_by_central
from superdecomp.exact import ONE, Scalar, vec_zero
from superdecomp.families import build_family, family_name


def family(spec):
    tag, params = spec
    return build_family(tag, *params)


def family_json(spec):
    tag, params = spec
    return algebra_to_json_dict(family(spec), family_name(tag, tuple(params)))


def json_direct_sum(objs):
    """Even parts of all summands first, then the odd parts, in order."""
    evens, odds = [], []
    for s, obj in enumerate(objs):
        for i, b in enumerate(obj["basis"]):
            (odds if int(b["parity"]) else evens).append((s, i))
    pos = {key: p for p, key in enumerate(evens + odds)}
    basis = [{"id": "e%d" % p, "parity": 0 if p < len(evens) else 1}
             for p in range(len(pos))]
    brackets = []
    for s, obj in enumerate(objs):
        for ent in obj["brackets"]:
            # the map is increasing inside each summand, so i <= j is kept
            brackets.append({
                "i": str(pos[(s, int(ent["i"]))]), "j": str(pos[(s, int(ent["j"]))]),
                "terms": [{"k": str(pos[(s, int(t["k"]))]), "num": t["num"],
                           "den": t["den"]} for t in ent["terms"]]})
    brackets.sort(key=lambda e: (int(e["i"]), int(e["j"])))
    return {"name": " + ".join(o["name"] for o in objs), "basis": basis,
            "brackets": brackets}


def glued(order):
    """(su(2|2) + q(2)) / R(2 i1 - 2 (first three even generators of q(2)))."""
    a, b = family(order[0]), family(order[1])
    s = direct_sum(a, b)
    zvec = vec_zero(s.dim)
    for spec, alg, emb in zip(order, (a, b), s.meta["embeddings"]):
        if spec[0] == "su":
            zvec[emb[alg.d0 - 1]] = ONE
        else:
            for j in range(3):
                zvec[emb[j]] = Scalar(-2)
    g, _ = quotient_by_central(s, s.subspace([zvec]))
    return algebra_to_json_dict(g, "glued " + " + ".join(
        family_name(t, tuple(p)) for t, p in order))


def terms_in_order(obj):
    return [t for ent in obj["brackets"] for t in ent["terms"]]


def corrupt(obj, pick):
    """Add 1 to one structure constant, chosen by pick."""
    terms = terms_in_order(obj)
    t = terms[pick % len(terms)]
    t["num"] = str(int(t["num"]) + int(t["den"]))
    obj["name"] += " (corrupted)"
    return obj


def parity_violation(obj):
    """Add an odd term to the bracket of the first two odd vectors."""
    odd = [i for i, b in enumerate(obj["basis"]) if int(b["parity"])]
    i, j, k = odd[0], odd[1], odd[2]
    for ent in obj["brackets"]:
        if (int(ent["i"]), int(ent["j"])) == (i, j):
            ent["terms"].append({"k": str(k), "num": "1", "den": "1"})
            break
    else:
        obj["brackets"].append({"i": str(i), "j": str(j),
                                "terms": [{"k": str(k), "num": "1", "den": "1"}]})
        obj["brackets"].sort(key=lambda e: (int(e["i"]), int(e["j"])))
    obj["name"] += " (odd-odd into odd)"
    return obj


def malformed(obj, how):
    t = terms_in_order(obj)[0]
    if how == "den_zero":
        t["den"] = "0"
    elif how == "k_out_of_range":
        t["k"] = str(len(obj["basis"]) + 3)
    else:
        t["k"] = "-1"
    return obj


def make(inp):
    if "family" in inp:
        return family_json(inp["family"])
    if "sum" in inp:
        return json_direct_sum([family_json(s) for s in inp["sum"]])
    if "glued" in inp:
        return glued(inp["glued"])
    if "corrupt" in inp:
        return corrupt(family_json(inp["corrupt"]), inp["pick"])
    if "parity_violation" in inp:
        return parity_violation(family_json(inp["parity_violation"]))
    return malformed(family_json(inp["malformed"]), inp["how"])


def main(spec_path, outdir):
    with open(spec_path) as fh:
        inputs = json.load(fh)
    os.makedirs(outdir, exist_ok=True)
    for inp in inputs:
        obj = make(inp)
        with open(os.path.join(outdir, inp["file"]), "w") as fh:
            json.dump(obj, fh, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
