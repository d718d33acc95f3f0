"""Seeded inputs for the benchmark workloads.

Every workload draws its cases from a fixed family with ``random.Random(seed)``;
the same seed always gives the same cases.  This module imports nothing from
the program: the inputs are plain data that the measured process receives.

Cost balance.  Each run is compared with runs on other seeds, so the work a
seed selects must not change the run time much.  The families are therefore
grouped into *tiers* of cases whose cost matched at the baseline commit (same
fixed-point count or close to it, and within a few per cent in seconds on a
2-CPU machine); a seed picks one case per tier and shuffles the order.  The
class tables of ``wallcross`` fix their shape (rank, degree vector, number of
classes per degree) and draw the classes and values.
"""
import json
import os
import random
from fractions import Fraction

# (n, d) tiers for ``deep``: high degree, few slots, jobs = 1.  Baseline
# seconds per tier: 0.15, 0.2, 0.38, 0.85, 1.1.
DEEP_TIERS = [
    [(20, 4), (27, 9)],
    [(24, 6), (30, 10)],
    [(24, 4), (25, 5), (28, 7)],
    [(28, 4), (30, 6)],
    [(30, 5), (36, 9)],
]

# ``js`` tier for ``wide``: many slots, low degree, run through the command
# with --jobs 2.  Baseline command seconds: 2.0.  Every round also runs the
# conjecture sweep WIDE_VERIFY.
WIDE_TIERS = [
    [(42, 2), (36, 3)],
]
WIDE_VERIFY = (3, 6)  # (--d-max, --ratio-max)
# at most min(2, nproc) processes compute at once
WIDE_JOBS = min(2, os.cpu_count() or 1)

# Residue-certificate degrees: the cheap ones always, then one pair per tier,
# the pairs of a tier costing the same in sum.  Baseline seconds per tier:
# 0.8 and 2.17.
CERT_ALWAYS = list(range(1, 10))
CERT_TIERS = [[(10, 14), (11, 13)], [(16, 19), (17, 18)]]

# Class tables for ``wallcross``: rank 2, every class of degree <= 12, pair
# series to order 4.  One table per branch of the degree-zero data (explicit
# p0, or synthesized from n1 through the MacMahon product), PER_DEGREE
# classes of each degree carry n0 and n1 / p0 values.
WALL_DMAX = 12
WALL_NMAX = 4
WALL_PER_DEGREE = 2
WALL_OMEGAS = [(1, 2), (2, 1)]

# Seconds-scale sizes for the smoke tests.
SMOKE = {
    "deep": [[(8, 2), (9, 3)], [(12, 3), (12, 4)]],
    "wide": [[(12, 2), (9, 3)]],
    "wide_verify": (2, 3),
    "certificate_always": [1, 2],
    "certificate": [[(4, 5), (3, 6)]],
    "wall_dmax": 5,
    "wall_nmax": 2,
}

WORKLOADS = ("deep", "wide", "certificate", "wallcross")


def _pick_tiers(rng, tiers):
    picked = [rng.choice(tier) for tier in tiers]
    rng.shuffle(picked)
    return picked


def _classes(omega, dmax):
    """Effective rank-2 classes of degree <= dmax, keyed by degree."""
    by_degree = {}
    for b1 in range(dmax // omega[0] + 1):
        for b2 in range((dmax - omega[0] * b1) // omega[1] + 1):
            beta = (b1, b2)
            by_degree.setdefault(omega[0] * b1 + omega[1] * b2, []).append(beta)
    return by_degree


def _key(beta):
    return json.dumps(list(beta))


def class_table(rng, omega, dmax, explicit_p0):
    """One class table in the JSON form the program's table loader reads."""
    by_degree = _classes(omega, dmax)
    n0, second = {}, {}
    for degree in sorted(by_degree):
        classes = by_degree[degree]
        if degree == 0:
            continue
        for beta in rng.sample(classes, min(WALL_PER_DEGREE, len(classes))):
            n0[_key(beta)] = str(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2])))
        for beta in rng.sample(classes, min(WALL_PER_DEGREE, len(classes))):
            if explicit_p0:
                second[_key(beta)] = str(rng.choice([-2, -1, 1, 2, 3]))
            else:
                second[_key(beta)] = str(Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])))
    table = {"rank": 2, "omega": list(omega), "n0": n0}
    table["p0" if explicit_p0 else "n1"] = second
    return table


def make_cases(workload, seed, smoke=False):
    """The case list of one workload: JSON-ready dicts, each with an ``id``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep":
        pairs = _pick_tiers(rng, SMOKE["deep"] if smoke else DEEP_TIERS)
        return [{"id": f"js({n},{d})", "n": n, "d": d} for n, d in pairs]
    if workload == "wide":
        pairs = _pick_tiers(rng, SMOKE["wide"] if smoke else WIDE_TIERS)
        d_max, ratio_max = SMOKE["wide_verify"] if smoke else WIDE_VERIFY
        cases = [
            {"id": f"cli js({n},{d})", "command": "js", "n": n, "d": d, "jobs": WIDE_JOBS,
             "argv": ["js", "--n", str(n), "--d", str(d), "--jobs", str(WIDE_JOBS),
                      "--format", "json"]}
            for n, d in pairs
        ]
        cases.append(
            {"id": f"cli verify({d_max},{ratio_max})", "command": "verify",
             "d_max": d_max, "ratio_max": ratio_max, "jobs": WIDE_JOBS,
             "argv": ["verify", "--d-max", str(d_max), "--ratio-max", str(ratio_max),
                      "--jobs", str(WIDE_JOBS), "--format", "json"]}
        )
        rng.shuffle(cases)
        return cases
    if workload == "certificate":
        always = SMOKE["certificate_always"] if smoke else CERT_ALWAYS
        pairs = _pick_tiers(rng, SMOKE["certificate"] if smoke else CERT_TIERS)
        degrees = always + [d for pair in pairs for d in pair]
        rng.shuffle(degrees)
        return [{"id": f"residues({d})", "d": d} for d in degrees]
    if workload == "wallcross":
        dmax = SMOKE["wall_dmax"] if smoke else WALL_DMAX
        nmax = SMOKE["wall_nmax"] if smoke else WALL_NMAX
        cases = []
        for index, explicit_p0 in enumerate((True, False)):
            omega = rng.choice(WALL_OMEGAS)
            cases.append(
                {"id": f"table{index}", "dmax": dmax, "nmax": nmax,
                 "table": class_table(rng, omega, dmax, explicit_p0)}
            )
        return cases
    raise ValueError(f"unknown workload {workload!r}")
