"""Self-test of the benchmark's output checks: no anece-lab run needed.

    python3 verdict_bench/selftest.py

The fixtures are outputs of anece-lab: a `verify` CSV and an `n_eve`
sweep of the all-user network [2, 2, 2] with N_E = 4 and K_2 = 2 (100
samples, seed 5), `compare` of the pair-wise scheme on the same network,
and `formula` and `compare` of the modified scheme with N_1 = 2, N_2 = 3,
K = 6 and N_E = 2.  The checks must accept each as it is and reject each
tampered copy.
"""

from __future__ import annotations

import sys

import checks

ALL_USER = ("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2})
PAIRWISE = ("pairwise", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2})
MODIFIED = ("modified_two_user", {"n1": 2, "n2": 3, "k_total": 6, "n_eve": 2})

VERIFY_CSV = """\
name,measured,target,tolerance,passed
eig:joint[1-2],12,12,0,true
eig:joint[1-3],12,12,0,true
eig:joint[2-3],12,12,0,true
eig:single[user 1],8,8,0,true
eig:single[user 2],8,8,0,true
eig:single[user 3],8,8,0,true
identity:freedom-oracle-eve-reception,0,0,0,true
identity:freedom-oracle-joint-pair-eve,0,0,0,true
identity:freedom-oracle-joint-user-eve,0,0,0,true
identity:freedom-oracle-modified-terms,0,0,0,true
identity:gap-consistency,0,0,0,true
identity:lower-decomposition,0,0,0,true
identity:manifest-complete,1,1,0,true
identity:modified-lower-ordering,0,0,0,true
identity:modified-minus-original,0,0,0,true
identity:modified-upper-equals-lower,0,0,0,true
identity:monotonic-in-eve-antennas,0,0,0,true
identity:monotonic-in-slots,0,0,0,true
identity:piecewise-boundary-agreement,0,0,0,true
identity:symmetric-eve-large,0,0,0,true
identity:symmetric-gap-table,0,0,0,true
identity:symmetric-k2-equals-n,0,0,0,true
identity:symmetric-large-m-zero,0,0,0,true
identity:two-user-lower-matches-closed-form,0,0,0,true
negctrl:identity:tampered-gap,1,0,0,false
negctrl:slope:cond-entropy-wrong-target,7.99981604813,11,0.33,false
negctrl:slope:phase1-wrong-target,3.99801495169,7,0.21,false
rank:channel-sum[user 1],100,100,0,true
rank:channel-sum[user 2],100,100,0,true
rank:channel-sum[user 3],100,100,0,true
rank:eve-stack[1-2],100,100,0,true
rank:eve-stack[1-3],100,100,0,true
rank:eve-stack[2-1],100,100,0,true
rank:eve-stack[2-3],100,100,0,true
rank:eve-stack[3-1],100,100,0,true
rank:eve-stack[3-2],100,100,0,true
rank:pairwise-pilot,100,100,0,true
rank:reciprocal-cov[1-2],100,100,0,true
rank:reciprocal-cov[1-3],100,100,0,true
rank:reciprocal-cov[2-3],100,100,0,true
slope:cij[1-2],3.99995333751,4,0.15,true
slope:cond-entropy[2x3x4],7.99981604813,8,0.24,true
slope:phase1[1-2],3.99801495169,4,0.15,true
"""

SWEEP_CSV = """\
axis,value,dof_phase1,dof_cij,dof_leakage,dof_phase2_lower,dof_phase2_lower_plus,dof_phase2_upper,dof_gap,dof_total
n_eve,0,4,4,0,4,4,4,0,8
n_eve,1,4,4,0,4,4,4,0,8
n_eve,2,4,4,0,4,4,4,0,8
n_eve,3,4,4,0,4,4,4,0,8
n_eve,4,4,4,0,4,4,4,0,8
n_eve,5,4,4,0,4,4,4,0,8
n_eve,6,4,4,0,4,4,4,0,8
"""


PAIRWISE_COMPARE_CSV = """\
scheme,phase1_dof,phase2_dof,total_dof,phase1_slots,phase2_slots
all_user,4,4,8,4,6
pairwise,4,0,4,6,6
"""

MODIFIED_FORMULA = (
    '{"dof_phase1": 6, "dof_phase2": 13, "dof_phase2_lower_12": 13, "dof_phase2_lower_21": 12, '
    '"dof_total": 19, "dof_original_phase2": 11, "dof_gain_over_original": 2}\n'
)

MODIFIED_COMPARE_CSV = """\
scheme,phase1_dof,phase2_dof,total_dof,phase1_slots,phase2_slots
all_user,6,11,17,3,3
modified_two_user,6,13,19,3,3
"""


def replace_row(text: str, name: str, new_row: str) -> str:
    lines = text.splitlines(keepends=True)
    hits = [k for k, line in enumerate(lines) if line.split(",")[0] == name]
    if len(hits) != 1:
        raise SystemExit(f"fixture has no single row {name!r}")
    lines[hits[0]] = new_row + "\n"
    return "".join(lines)


CASES = [
    # (description, scenario, kind, text, expect_rejected)
    ("untouched verify CSV", ALL_USER, "verify", VERIFY_CSV, False),
    ("slope row whose target and slope are both 1 DoF high", ALL_USER, "verify",
     replace_row(VERIFY_CSV, "slope:cij[1-2]", "slope:cij[1-2],4.99995333751,5,0.15,true"), True),
    ("slope row measured 1 DoF low against the right target", ALL_USER, "verify",
     replace_row(VERIFY_CSV, "slope:phase1[1-2]", "slope:phase1[1-2],2.99801495169,4,0.15,false"),
     True),
    ("negative control that passes", ALL_USER, "verify",
     replace_row(VERIFY_CSV, "negctrl:slope:phase1-wrong-target",
                 "negctrl:slope:phase1-wrong-target,6.99801495169,7,0.21,true"), True),
    ("slope row dropped", ALL_USER, "verify",
     VERIFY_CSV.replace("slope:cij[1-2],3.99995333751,4,0.15,true\n", ""), True),
    ("rank row tallied short of the draws", ALL_USER, "verify",
     replace_row(VERIFY_CSV, "rank:eve-stack[2-3]", "rank:eve-stack[2-3],99,99,0,true"), True),
    ("untouched n_eve sweep", ALL_USER, "sweep", SWEEP_CSV, False),
    ("n_eve sweep whose lower bound rises", ALL_USER, "sweep",
     SWEEP_CSV.replace("n_eve,4,4,4,0,4,4,4,0,8", "n_eve,4,4,4,0,5,5,5,0,9"), True),
    ("untouched pair-wise compare", PAIRWISE, "compare", PAIRWISE_COMPARE_CSV, False),
    ("all-user pilot longer than the pair-wise sessions", PAIRWISE, "compare",
     PAIRWISE_COMPARE_CSV.replace("all_user,4,4,8,4,6", "all_user,4,4,8,7,6"), True),
    ("untouched modified formula", MODIFIED, "formula", MODIFIED_FORMULA, False),
    ("modified gain other than N1(N2-N1)", MODIFIED, "formula",
     MODIFIED_FORMULA.replace('"dof_gain_over_original": 2', '"dof_gain_over_original": 3'), True),
    ("untouched modified compare", MODIFIED, "compare", MODIFIED_COMPARE_CSV, False),
    ("modified total below the original scheme", MODIFIED, "compare",
     MODIFIED_COMPARE_CSV.replace("modified_two_user,6,13,19", "modified_two_user,6,10,16"), True),
]


def main() -> int:
    wrong = 0
    for description, (scheme, network), kind, text, expect_rejected in CASES:
        axis, span = ("n_eve", (0, 6)) if kind == "sweep" else (None, None)
        problems = checks.check_output(kind, text, scheme, network, axis, span)
        ok = bool(problems) == expect_rejected
        wrong += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {description}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))
    print(f"{len(CASES) - wrong} of {len(CASES)} cases as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
