"""Seeded inputs of the four certification workloads.

The catalog ids are fixed here rather than read from the program, so a
given seed names the same inputs on every commit.  The seed only
permutes submission order and draws the family parameter ``r``.
"""

import random

WORKLOADS = ("catalog", "catalog_2w", "deep_digits", "tail_audit")

CATALOG_IDS = (
    "EQ1", "EQ2", "EQ3", "EQ4", "FIB_H", "EQ6", "EQ7", "EQ8", "FIB_H_2R",
    "LUCAS_H", "EQ11", "EQ12", "EQ13", "LUCAS_H_2R", "LUCAS_HD", "EQ15_R0",
    "FIB_HD", "EQ17", "EQ17_AS_PRINTED", "EQ18", "EQ19", "EQ20", "EQ21",
    "EQ22", "EQ23", "EQ24", "EQ25", "EQ26", "EQ27", "EQ28", "EQ29", "EQ30",
    "EQ31", "EQ32", "EQ33", "EQ34", "EQ35", "EQ36", "EQ37",
    "EQ37_AS_PRINTED", "EQ38", "EQ38_AS_PRINTED", "EQ39", "EQ40", "THM24",
    "THM25A", "THM25B", "THM26", "THM27",
)

# catalog entries whose tail is a geometric envelope (no p-series or
# Euler-Maclaurin tail): the doubling-checkpoint path of sum_to_precision
GEOMETRIC_IDS = (
    "EQ4", "FIB_H", "EQ6", "EQ7", "EQ8", "FIB_H_2R", "LUCAS_H", "EQ11",
    "EQ12", "EQ13", "LUCAS_H_2R", "LUCAS_HD", "EQ15_R0", "FIB_HD", "EQ17",
    "EQ17_AS_PRINTED", "EQ18", "EQ19", "EQ20", "EQ21", "EQ22", "EQ23",
    "EQ24", "EQ25", "EQ26", "EQ27", "EQ28", "EQ29", "EQ30", "EQ31", "EQ32",
    "EQ33", "EQ37", "EQ37_AS_PRINTED", "EQ38", "EQ38_AS_PRINTED", "EQ39",
    "EQ40",
)

TEMPLATE_IDS = ("FIB_H", "LUCAS_H", "LUCAS_HD", "FIB_HD", "FIB_H_2R",
                "LUCAS_H_2R")

CATALOG_SUMMARY = {"PASS": 46, "FAIL": 3, "INCONCLUSIVE": 0}
DEEP_DIGITS = 200
DEEP_R_RANGE = (5, 10)
AUDIT_PROBES = (32, 128)
AUDIT_PREC = 160


def make_ops(workload: str, seed: int) -> list:
    """The op list: dicts with ``id``, and ``r`` for a family template.

    Every op gets a ``key`` that names it uniquely within the workload.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("catalog", "catalog_2w"):
        # both catalog workloads share one order per seed, so their
        # reports can be compared key for key
        rng = random.Random(f"catalog:{seed}")
        ops = [{"id": i} for i in CATALOG_IDS]
    elif workload == "deep_digits":
        ops = [{"id": i} for i in GEOMETRIC_IDS]
        # a permutation of the r range, so each seed does about the
        # same amount of work
        rs = list(range(DEEP_R_RANGE[0], DEEP_R_RANGE[1] + 1))
        rng.shuffle(rs)
        ops += [{"id": t, "r": r} for t, r in zip(TEMPLATE_IDS, rs)]
    elif workload == "tail_audit":
        ops = [{"id": i} for i in CATALOG_IDS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    for op in ops:
        op["key"] = op["id"] if "r" not in op else f"{op['id']}@r={op['r']}"
    return ops
