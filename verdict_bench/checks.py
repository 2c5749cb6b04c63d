"""Output checks computed apart from ``anece_lab.dofcalc``.

Every expected value here comes from generic ranks of the signal model or
from a result the paper states, written out afresh: the checks never
import the package's closed forms and never compare against a stored copy
of an earlier output.  Each check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import json

CSV_HEADER = "name,measured,target,tolerance,passed"
RANK_DRAWS = 100  # rank_oracle_suite's default number of channel draws
NEGCTRL_OFFSET = 3  # the wrong-target controls add 3 DoF to the true slope
# A slope gate 1 DoF wide or wider cannot reject a slope that is 1 DoF off.
MAX_SLOPE_TOL = 1.0


# --------------------------------------------------------------------------
# facts from the signal model
# --------------------------------------------------------------------------


def phase1_dof(n_i: int, n_j: int) -> int:
    """Pilot phase: the N_i x N_j reciprocal channel is shared, nothing else."""
    return n_i * n_j


def cij_dof(antennas, k2: int, i: int = 0, j: int = 1) -> int:
    """Symbol phase between users i and j: K_2 times the generic ranks of
    R_i, R_j minus the rank of the joint Gram R_ij over the other users."""
    n_t = sum(antennas)
    n_i, n_j = antennas[i], antennas[j]
    return k2 * (min(n_i, n_t - n_i) + min(n_j, n_t - n_j) - min(n_i + n_j, n_t - n_i - n_j))


def modified_ckey0_dof(n1: int, n2: int, k_total: int) -> int:
    """Modified scheme: (K - N_1) slots into rank-N_1 H21, (K - N_2) into H12."""
    return (k_total - n1) * n1 + (k_total - n2) * n1


def cond_entropy_dof(m: int, n: int, k: int) -> int:
    """h(Y|H) for an m x n channel over k slots grows with rank min(m, n)."""
    return min(m, n) * k


def eig_single(antennas, i: int) -> int:
    n_t = sum(antennas)
    return antennas[i] * (n_t - antennas[i])


def eig_joint(antennas, i: int, j: int) -> int:
    """Both users' pilot receptions less the N_i*N_j shared coordinates."""
    return eig_single(antennas, i) + eig_single(antennas, j) - antennas[i] * antennas[j]


def _verify_antennas(scheme: str, network: dict) -> tuple[int, ...]:
    if scheme == "modified_two_user":
        return (network["n1"], network["n2"])
    return tuple(network["antennas"])


def expected_slopes(scheme: str, network: dict) -> dict[str, int]:
    """Target DoF of every slope row `verify` must emit for the scenario."""
    slopes = {"slope:cond-entropy[2x3x4]": cond_entropy_dof(2, 3, 4)}
    if scheme == "modified_two_user":
        slopes["slope:modified-ckey0"] = modified_ckey0_dof(
            network["n1"], network["n2"], network["k_total"])
    elif scheme == "all_user":
        ant = network["antennas"]
        slopes["slope:phase1[1-2]"] = phase1_dof(ant[0], ant[1])
        if network["k2"] >= 1:
            slopes["slope:cij[1-2]"] = cij_dof(ant, network["k2"])
    return slopes


_TAMPERED = {
    "all_user": "negctrl:identity:tampered-gap",
    "pairwise": "negctrl:identity:tampered-pairwise-gap",
    "modified_two_user": "negctrl:identity:tampered-modified",
}


def expected_controls(scheme: str, network: dict) -> dict[str, int | None]:
    """Negative-control rows `verify` must emit, with the wrong target each
    slope control sets (None where the control is an identity tampering)."""
    slopes = expected_slopes(scheme, network)
    controls = {
        "negctrl:slope:cond-entropy-wrong-target":
            slopes["slope:cond-entropy[2x3x4]"] + NEGCTRL_OFFSET,
        _TAMPERED[scheme]: None,
    }
    if scheme == "all_user":
        controls["negctrl:slope:phase1-wrong-target"] = slopes["slope:phase1[1-2]"] + NEGCTRL_OFFSET
    return controls


def expected_eig(scheme: str, network: dict) -> dict[str, int]:
    if scheme == "pairwise":
        return {}
    ant = _verify_antennas(scheme, network)
    rows = {f"eig:single[user {i + 1}]": eig_single(ant, i) for i in range(len(ant))}
    for i in range(len(ant)):
        for j in range(i + 1, len(ant)):
            rows[f"eig:joint[{i + 1}-{j + 1}]"] = eig_joint(ant, i, j)
    return rows


def expected_rank_rows(scheme: str, network: dict) -> set[str]:
    m = len(_verify_antennas(scheme, network))
    names = {f"rank:channel-sum[user {i + 1}]" for i in range(m)}
    for i in range(m):
        for j in range(m):
            if i < j:
                names.add(f"rank:reciprocal-cov[{i + 1}-{j + 1}]")
            if i != j:
                names.add(f"rank:eve-stack[{i + 1}-{j + 1}]")
    if m >= 3:
        names.add("rank:pairwise-pilot")
    return names


# --------------------------------------------------------------------------
# verify CSV
# --------------------------------------------------------------------------


def parse_verify_csv(text: str) -> tuple[list[dict], list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [], [f"verify CSV header is not {CSV_HEADER!r}"]
    rows, problems = [], []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 5 or cells[4] not in ("true", "false"):
            problems.append(f"malformed verify row {line!r}")
            continue
        try:
            measured, target, tol = (float(c) for c in cells[1:4])
        except ValueError:
            problems.append(f"non-numeric verify row {line!r}")
            continue
        rows.append({"name": cells[0], "measured": measured, "target": target,
                     "tolerance": tol, "passed": cells[4] == "true"})
    return rows, problems


def check_verify(text: str, scheme: str, network: dict) -> list[str]:
    rows, problems = parse_verify_csv(text)
    by_name = {}
    for r in rows:
        name = r["name"]
        if name in by_name:
            problems.append(f"duplicate verify row {name}")
        by_name[name] = r
        within = abs(r["measured"] - r["target"]) <= r["tolerance"]
        if r["passed"] != within:
            problems.append(f"{name}: passed={r['passed']} disagrees with its own numbers")
        if name.startswith("negctrl:"):
            if r["passed"]:
                problems.append(f"{name}: negative control passed")
        elif not r["passed"]:
            problems.append(f"{name}: check failed")

    def expect(name: str, target: float, exact: bool) -> None:
        r = by_name.get(name)
        if r is None:
            problems.append(f"{name}: row missing")
            return
        if r["target"] != target:
            problems.append(f"{name}: target {r['target']:g}, signal model gives {target:g}")
        if exact and r["measured"] != target:
            problems.append(f"{name}: measured {r['measured']:g}, signal model gives {target:g}")

    for name, dof in expected_slopes(scheme, network).items():
        expect(name, dof, exact=False)
        r = by_name.get(name)
        if r is None:
            continue
        if r["tolerance"] >= MAX_SLOPE_TOL:
            problems.append(f"{name}: tolerance {r['tolerance']:g} cannot tell 1 DoF apart")
        if abs(r["measured"] - dof) > r["tolerance"]:
            problems.append(f"{name}: slope {r['measured']:.6g} is not {dof}")
    for name, target in expected_controls(scheme, network).items():
        if target is None:
            if name not in by_name:
                problems.append(f"{name}: row missing")
        else:
            expect(name, target, exact=False)

    for name, count in expected_eig(scheme, network).items():
        expect(name, count, exact=True)

    rank_names = {n for n in by_name if n.startswith("rank:")}
    expected_ranks = expected_rank_rows(scheme, network)
    if rank_names != expected_ranks:
        problems.append(f"rank rows differ from the network's pairs: "
                        f"missing {sorted(expected_ranks - rank_names)}, "
                        f"extra {sorted(rank_names - expected_ranks)}")
    for name in rank_names:
        expect(name, RANK_DRAWS, exact=True)

    identity = [n for n in by_name if n.startswith("identity:")]
    if "identity:manifest-complete" not in by_name or len(identity) < 2:
        problems.append("identity suite rows missing")
    for name in identity:
        want = 1.0 if name == "identity:manifest-complete" else 0.0
        expect(name, want, exact=True)
    return problems


# --------------------------------------------------------------------------
# formula, compare and sweep
# --------------------------------------------------------------------------


def _pair_12(scheme: str, network: dict) -> tuple[int, int]:
    if scheme == "modified_two_user":
        return network["n1"], network["n2"]
    return network["antennas"][0], network["antennas"][1]


def check_formula(text: str, scheme: str, network: dict) -> list[str]:
    try:
        entries = json.loads(text)
    except json.JSONDecodeError:
        return [f"formula output is not JSON: {text[:80]!r}"]
    problems = []
    if any(not isinstance(v, int) or isinstance(v, bool) for v in entries.values()):
        problems.append("formula values must be integers")
        return problems
    n_i, n_j = _pair_12(scheme, network)
    if entries.get("dof_phase1") != phase1_dof(n_i, n_j):
        problems.append(f"formula dof_phase1={entries.get('dof_phase1')}, "
                        f"signal model gives {phase1_dof(n_i, n_j)}")
    if scheme == "modified_two_user":
        # Paper result (c): the modified scheme gains N1(N2-N1) over the original.
        n1, n2 = network["n1"], network["n2"]
        gain = entries.get("dof_gain_over_original")
        if gain != n1 * (n2 - n1):
            problems.append(f"formula dof_gain_over_original={gain}, paper gives {n1 * (n2 - n1)}")
        if entries.get("dof_phase2_lower_12", 0) - entries.get("dof_original_phase2", 0) != gain:
            problems.append("formula modified minus original phase-2 DoF is not the reported gain")
    return problems


def check_compare(text: str, scheme: str, network: dict) -> list[str]:
    lines = text.splitlines()
    header = "scheme,phase1_dof,phase2_dof,total_dof,phase1_slots,phase2_slots"
    if not lines or lines[0] != header:
        return ["compare CSV header changed"]
    rows = {}
    for line in lines[1:]:
        name, *nums = line.split(",")
        try:
            rows[name] = dict(zip(header.split(",")[1:], (int(x) for x in nums)))
        except ValueError:
            return [f"non-integer compare row {line!r}"]
    problems = []
    n_i, n_j = _pair_12(scheme, network)
    for name, r in rows.items():
        if r["total_dof"] != r["phase1_dof"] + max(r["phase2_dof"], 0):
            problems.append(f"compare {name}: total is not phase 1 plus clamped phase 2")
        if r["phase1_dof"] != phase1_dof(n_i, n_j):
            problems.append(f"compare {name}: phase1_dof {r['phase1_dof']}, "
                            f"signal model gives {phase1_dof(n_i, n_j)}")
    if "all_user" not in rows:
        return problems + ["compare: all_user row missing"]
    au = rows["all_user"]
    if "pairwise" in rows:
        # Paper result (a): same phase-1 SDoF, and all-user needs no more pilot slots.
        pw = rows["pairwise"]
        if au["phase1_dof"] != pw["phase1_dof"]:
            problems.append("compare: all-user and pair-wise phase-1 SDoF differ")
        if au["phase1_slots"] > pw["phase1_slots"]:
            problems.append("compare: all-user uses more pilot slots than pair-wise")
    elif "modified_two_user" in rows:
        # Paper result (c): for M = 2 the modified scheme never loses to the original.
        if rows["modified_two_user"]["total_dof"] < au["total_dof"]:
            problems.append("compare: modified scheme total below the original scheme")
    else:
        problems.append("compare: neither a pair-wise nor a modified row")
    return problems


def check_sweep(text: str, scheme: str, network: dict, axis: str,
                span: tuple[int, int]) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("axis,value,"):
        return ["sweep CSV header changed"]
    keys = lines[0].split(",")[2:]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        try:
            rows.append((cells[0], int(cells[1]),
                         {k: int(v) for k, v in zip(keys, cells[2:]) if v != ""}))
        except (ValueError, IndexError):
            return [f"malformed sweep row {line!r}"]
    problems = []
    lo, hi = span
    if [(a, v) for a, v, _ in rows] != [(axis, v) for v in range(lo, hi + 1)]:
        problems.append(f"sweep rows do not cover {axis} = {lo}..{hi} in order")
    if axis == "n_eve":
        n_i, n_j = _pair_12(scheme, network)
        lower_key = "dof_phase2_lower_12" if scheme == "modified_two_user" else "dof_phase2_lower"
        prev = None
        for _, value, entries in rows:
            if entries.get("dof_phase1") != phase1_dof(n_i, n_j):
                problems.append(f"sweep n_eve={value}: dof_phase1 moved")
            lower = entries.get(lower_key)
            if lower is None:
                problems.append(f"sweep n_eve={value}: {lower_key} missing")
            elif prev is not None and lower > prev:
                problems.append(f"sweep n_eve={value}: {lower_key} rose from {prev} to {lower}")
            prev = lower
    return problems


def check_output(kind: str, text: str, scheme: str, network: dict,
                 axis: str | None = None, span: tuple[int, int] | None = None) -> list[str]:
    if kind == "verify":
        return check_verify(text, scheme, network)
    if kind == "formula":
        return check_formula(text, scheme, network)
    if kind == "compare":
        return check_compare(text, scheme, network)
    if kind == "sweep":
        return check_sweep(text, scheme, network, axis, span)
    raise ValueError(f"unknown operation kind {kind!r}")
