"""Empirical verification: slope fits, eigenvalue growth, rank oracles,
exact integer identity suites, and scheme comparison.

Checks are pure and independent of evaluation order; suites sort their
results by name before returning so that aggregation is reproducible no
matter how the work is scheduled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .capacity import CapacityCurve, phase1_cov_joint, phase1_cov_single
from .dofcalc import (
    DofScenario,
    dof_cij,
    dof_entropy_terms,
    dof_gap,
    dof_leakage,
    dof_modified_two_user,
    dof_pairwise,
    dof_phase1,
    dof_phase2_lower,
    dof_phase2_lower_plus,
    dof_phase2_upper,
    dof_two_user_original,
    freedom_count_oracle,
    modified_entropy_terms,
    modified_lower_12_piecewise,
    pos,
)
from .model import CheckResult, NetworkConfig, SnrGrid, TwoUserModifiedConfig, validate_config
from .numkernel import (
    DEFAULT_POWER_RATIO,
    draw_channels,
    eig_growth_count,
    numerical_rank,
    reciprocal_channel_covariance,
    sample_cn,
    substream,
)
from .pilots import build_pairwise_matrix

SLOPE_ABS_TOL = 0.15
SLOPE_REL_TOL = 0.03


def default_grid() -> SnrGrid:
    """log2(sigma^2) in {12, 14, ..., 24}: high enough that bounded terms
    are negligible, low enough for comfortable conditioning."""
    return SnrGrid(tuple(range(12, 25, 2)))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


def fit_slope(curve: CapacityCurve) -> SlopeFit:
    """Ordinary least squares of curve values against grid points.

    Exact for affine inputs; r_squared is 1 for a perfect fit (including
    the constant-curve case) and clamped into [0, 1].
    """
    x = np.asarray(curve.grid.points)
    y = np.asarray(curve.values)
    x_mean, y_mean = x.mean(), y.mean()
    sxx = float(((x - x_mean) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("degenerate grid: all points equal")
    slope = float(((x - x_mean) * (y - y_mean)).sum() / sxx)
    intercept = float(y_mean - slope * x_mean)
    ss_res = float(((y - slope * x - intercept) ** 2).sum())
    ss_tot = float(((y - y_mean) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope, intercept, min(1.0, max(0.0, r_squared)))


def slope_tolerance(target_dof: int) -> float:
    return max(SLOPE_ABS_TOL, SLOPE_REL_TOL * abs(target_dof))


def verify_slope(name: str, curve: CapacityCurve, target_dof: int,
                 tol: float | None = None) -> CheckResult:
    """One slope-versus-analytic-DoF check."""
    if tol is None:
        tol = slope_tolerance(target_dof)
    return CheckResult(name, fit_slope(curve).slope, float(target_dof), tol)


# --------------------------------------------------------------------------
# rank oracles
# --------------------------------------------------------------------------


def rank_oracle_suite(cfg: NetworkConfig, seed: int, n_draws: int = 100) -> list[CheckResult]:
    """Probability-one rank statements checked over repeated channel draws.

    Per draw: the analytically assembled reciprocal-channel covariance has
    rank deficiency N_i*N_j for each pair; each user's summed channel Gram
    has rank min(N_i, N_T-N_i); the [H_ij; H_Ej] stack has rank
    min(N_E+N_i, N_j); and (for M >= 3) a fresh pair-wise pilot matrix has
    full row rank N_T.  Any miss indicates a tolerance or construction bug,
    not bad sampling luck.  Result rows carry pass counts against n_draws.
    """
    m = len(cfg.antennas)
    antennas, n_eve, n_t = cfg.antennas, cfg.n_eve, cfg.n_total
    passes: dict[str, int] = {}

    def tally(name: str, ok: bool) -> None:
        passes[name] = passes.get(name, 0) + (1 if ok else 0)

    k1_session = max(antennas)
    cov_ok = {}
    for i, j in itertools.combinations(range(m), 2):
        cov = reciprocal_channel_covariance(antennas, i, j)
        deficiency = cov.shape[0] - numerical_rank(cov)
        cov_ok[(i, j)] = deficiency == antennas[i] * antennas[j]
    for d in range(n_draws):
        ch = draw_channels(antennas, n_eve, substream(seed, "rank-draws", d))
        for i, j in itertools.combinations(range(m), 2):
            tally(f"rank:reciprocal-cov[{i + 1}-{j + 1}]", cov_ok[(i, j)])
        for i in range(m):
            h_i = ch.channel_to(i)
            ok = numerical_rank(h_i @ h_i.conj().T) == min(antennas[i], n_t - antennas[i])
            tally(f"rank:channel-sum[user {i + 1}]", ok)
        for i, j in itertools.permutations(range(m), 2):
            stack = np.vstack([ch.user_channels[(i, j)], ch.eve_channels[j]])
            ok = numerical_rank(stack) == min(n_eve + antennas[i], antennas[j])
            tally(f"rank:eve-stack[{i + 1}-{j + 1}]", ok)
        if m >= 3:
            rng = substream(seed, "rank-pairwise", d)
            blocks = [sample_cn(rng, (n, k1_session)) for n in antennas]
            try:
                pair = build_pairwise_matrix(cfg, blocks)
                ok = numerical_rank(pair.matrix) == n_t
            except (ValueError, RuntimeError):
                ok = False
            tally("rank:pairwise-pilot", ok)

    results = [CheckResult(name, float(count), float(n_draws), 0.0)
               for name, count in passes.items()]
    return sorted(results, key=lambda r: r.name)


# --------------------------------------------------------------------------
# eigenvalue growth
# --------------------------------------------------------------------------

_EIG_SIGMA2_LO = 2.0**12


def eig_growth_suite(cfg: NetworkConfig, ps) -> list[CheckResult]:
    """Count power-scaled eigenvalues of the pilot-phase covariances.

    The single-user covariance must grow along N_i*(N_T-N_i) directions and
    the joint pair covariance along N_i(N_T-N_i) + N_j(N_T-N_j) - N_i*N_j,
    the joint count being reduced by the reciprocal (shared) coordinates.
    """
    lo = _EIG_SIGMA2_LO
    hi = lo * DEFAULT_POWER_RATIO
    n_t = cfg.n_total
    results = []
    for i in range(cfg.m):
        count = eig_growth_count(phase1_cov_single(ps, i, lo), phase1_cov_single(ps, i, hi))
        target = cfg.antennas[i] * (n_t - cfg.antennas[i])
        results.append(CheckResult(f"eig:single[user {i + 1}]", float(count), float(target), 0.0))
    for i, j in itertools.combinations(range(cfg.m), 2):
        count = eig_growth_count(phase1_cov_joint(ps, i, j, lo), phase1_cov_joint(ps, i, j, hi))
        n_i, n_j = cfg.antennas[i], cfg.antennas[j]
        target = n_i * (n_t - n_i) + n_j * (n_t - n_j) - n_i * n_j
        results.append(CheckResult(f"eig:joint[{i + 1}-{j + 1}]", float(count), float(target), 0.0))
    return sorted(results, key=lambda r: r.name)


# --------------------------------------------------------------------------
# exact integer identity suite
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityGrid:
    """Parameter ranges for the exact identity suite."""

    m_values: tuple[int, ...] = (2, 3, 4, 5)
    n_values: tuple[int, ...] = (1, 2, 3)
    n_eve_values: tuple[int, ...] = tuple(range(13))
    k2_values: tuple[int, ...] = tuple(range(9))
    two_user_n_max: int = 4
    two_user_n_eve_max: int = 10
    two_user_k_extra: int = 8


IDENTITY_MANIFEST = (
    "identity:gap-consistency",
    "identity:lower-decomposition",
    "identity:freedom-oracle-eve-reception",
    "identity:freedom-oracle-joint-user-eve",
    "identity:freedom-oracle-joint-pair-eve",
    "identity:freedom-oracle-modified-terms",
    "identity:symmetric-gap-table",
    "identity:symmetric-eve-large",
    "identity:symmetric-large-m-zero",
    "identity:symmetric-k2-equals-n",
    "identity:two-user-lower-matches-closed-form",
    "identity:modified-upper-equals-lower",
    "identity:modified-lower-ordering",
    "identity:modified-minus-original",
    "identity:piecewise-boundary-agreement",
    "identity:monotonic-in-eve-antennas",
    "identity:monotonic-in-slots",
)


def _pair_representatives(grid: IdentityGrid):
    """Distinct (N_i, N_j, N_T, N_min) pair shapes with one representative each.

    Every DoF formula of the all-user scheme depends on the antenna vector
    only through these four numbers, so the grid can be deduplicated.
    """
    reps = {}
    for m in grid.m_values:
        for antennas in itertools.product(grid.n_values, repeat=m):
            n_t, n_min = sum(antennas), min(antennas)
            for i, j in itertools.permutations(range(m), 2):
                key = (antennas[i], antennas[j], n_t, n_min)
                reps.setdefault(key, (antennas, i, j))
    return list(reps.values())


def identity_suite(grid: IdentityGrid | None = None) -> list[CheckResult]:
    """Evaluate every algebraic identity across the grid, one row each.

    Rows report the number of violating grid points against a target of
    zero; the final row checks the produced rows against the manifest so a
    silently dropped identity fails the suite.
    """
    grid = grid or IdentityGrid()
    violations = {name: 0 for name in IDENTITY_MANIFEST}

    def scenarios_for(antennas, i, j):
        for n_eve in grid.n_eve_values:
            for k2 in grid.k2_values:
                cfg = NetworkConfig(antennas, n_eve, k2=k2)
                yield DofScenario(cfg, i, j)

    # pair-shape identities
    for antennas, i, j in _pair_representatives(grid):
        for s in scenarios_for(antennas, i, j):
            lower, upper = dof_phase2_lower(s), dof_phase2_upper(s)
            if upper - lower != dof_gap(s):
                violations["identity:gap-consistency"] += 1
            if lower != dof_cij(s) - dof_leakage(s):
                violations["identity:lower-decomposition"] += 1
            terms = dof_entropy_terms(s)
            if freedom_count_oracle("ye_given_hep", s) != terms.h_ye_given_hep:
                violations["identity:freedom-oracle-eve-reception"] += 1
            if freedom_count_oracle("joint_i_e", s) != terms.h_joint_i_e:
                violations["identity:freedom-oracle-joint-user-eve"] += 1
            if freedom_count_oracle("joint_i_j_e", s) != terms.h_joint_i_j_e:
                violations["identity:freedom-oracle-joint-pair-eve"] += 1

    # symmetric-network reductions
    for m in grid.m_values:
        for n in grid.n_values:
            for n_eve in grid.n_eve_values:
                for k2 in grid.k2_values:
                    cfg = NetworkConfig((n,) * m, n_eve, k2=k2)
                    s = DofScenario(cfg, 0, 1)
                    lower, upper, gap = dof_phase2_lower(s), dof_phase2_upper(s), dof_gap(s)
                    dk2 = pos(k2 - n)
                    if m == 2:
                        expected_gap = 0
                    elif m == 3:
                        expected_gap = dk2 * min(n_eve, n)
                    else:
                        expected_gap = dk2 * (min(n_eve, (m - 2) * n) - min(n_eve, (m - 4) * n))
                    if gap != expected_gap:
                        violations["identity:symmetric-gap-table"] += 1
                    if m >= 4 + -(-n_eve // n) and not lower == upper == 0:
                        violations["identity:symmetric-large-m-zero"] += 1
                    if n_eve >= m * n:
                        if m == 2:
                            expected_low = 2 * n * min(n, k2)
                        elif m == 3:
                            expected_low = n * pos(2 * min(n, k2) - k2)
                        else:
                            expected_low = 0
                        bad = dof_phase2_lower_plus(s) != expected_low
                        if m >= 4 and upper != 0:
                            bad = True
                        if bad:
                            violations["identity:symmetric-eve-large"] += 1
                    if k2 == n and m in (2, 3):
                        expected = 2 * n * n if m == 2 else n * n
                        if not lower == upper == expected:
                            violations["identity:symmetric-k2-equals-n"] += 1

    # two-user scheme against the closed form
    two_user_pairs = [
        (n1, n2)
        for n1 in range(1, grid.two_user_n_max + 1)
        for n2 in range(n1, grid.two_user_n_max + 1)
    ]
    for n1, n2 in two_user_pairs:
        for n_eve in grid.n_eve_values:
            for k2 in grid.k2_values:
                cfg = NetworkConfig((n1, n2), n_eve, k2=k2)
                s = DofScenario(cfg, 0, 1)
                if dof_phase2_lower(s) != dof_two_user_original(n1, n2, n_eve, k2):
                    violations["identity:two-user-lower-matches-closed-form"] += 1

    # modified two-user scheme
    for n1, n2 in two_user_pairs:
        for n_eve in range(grid.two_user_n_eve_max + 1):
            for k in range(n2, n2 + grid.two_user_k_extra + 1):
                c = TwoUserModifiedConfig(n1, n2, k, n_eve)
                md = dof_modified_two_user(c)
                if not md.upper == md.lower_12 == modified_lower_12_piecewise(c):
                    violations["identity:modified-upper-equals-lower"] += 1
                expected_drop = min(n_eve, c.delta_n) * pos(k - c.n_total)
                if md.lower_12 - md.lower_21 != expected_drop:
                    violations["identity:modified-lower-ordering"] += 1
                original = dof_two_user_original(n1, n2, n_eve, k - n2)
                if md.lower_12 - original != n1 * (n2 - n1):
                    violations["identity:modified-minus-original"] += 1
                for term in ("modified_term2", "modified_term3", "modified_term4"):
                    idx = int(term[-1]) - 2
                    if freedom_count_oracle(term, c) != modified_entropy_terms(c)[idx]:
                        violations["identity:freedom-oracle-modified-terms"] += 1

    # piecewise branch agreement at the region boundaries
    for n1, n2 in two_user_pairs:
        dn, nt = n2 - n1, n1 + n2
        for k2 in grid.k2_values:
            dk2 = pos(k2 - n1)
            if 2 * k2 * n1 != 2 * k2 * n1 - dk2 * (dn - dn):
                violations["identity:piecewise-boundary-agreement"] += 1
            if 2 * k2 * n1 - dk2 * (nt - dn) != 2 * min(n1, k2) * n1:
                violations["identity:piecewise-boundary-agreement"] += 1
        for k in range(n2, n2 + grid.two_user_k_extra + 1):
            at_dn_c1 = n1 * (2 * k - nt)
            at_dn_c2 = n1 * (2 * k - nt) - (dn - dn) * pos(k - nt)
            at_nt_c2 = n1 * (2 * k - nt) - (nt - dn) * pos(k - nt)
            at_nt_c3 = n1 * (2 * k - nt - pos(2 * k - 2 * nt))
            if at_dn_c1 != at_dn_c2 or at_nt_c2 != at_nt_c3:
                violations["identity:piecewise-boundary-agreement"] += 1

    # monotonicity along N_E (all claims) and along the slot axis where claimed
    for antennas, i, j in _pair_representatives(grid):
        for k2 in grid.k2_values:
            prev_raw = prev_plus = None
            for n_eve in grid.n_eve_values:
                s = DofScenario(NetworkConfig(antennas, n_eve, k2=k2), i, j)
                raw, plus = dof_phase2_lower(s), dof_phase2_lower_plus(s)
                if prev_raw is not None and (raw > prev_raw or plus > prev_plus):
                    violations["identity:monotonic-in-eve-antennas"] += 1
                prev_raw, prev_plus = raw, plus
    for n1, n2 in two_user_pairs:
        for k2 in grid.k2_values:
            values = [dof_two_user_original(n1, n2, ne, k2) for ne in grid.n_eve_values]
            if any(b > a for a, b in zip(values, values[1:])):
                violations["identity:monotonic-in-eve-antennas"] += 1
        for n_eve in range(grid.two_user_n_eve_max + 1):
            values = [dof_two_user_original(n1, n2, n_eve, k2) for k2 in grid.k2_values]
            if any(b < a for a, b in zip(values, values[1:])):
                violations["identity:monotonic-in-slots"] += 1
            ks = range(n2, n2 + grid.two_user_k_extra + 1)
            mods = [dof_modified_two_user(TwoUserModifiedConfig(n1, n2, k, n_eve)).lower_12
                    for k in ks]
            if any(b < a for a, b in zip(mods, mods[1:])):
                violations["identity:monotonic-in-slots"] += 1
        for k in range(n2, n2 + grid.two_user_k_extra + 1):
            mods = [dof_modified_two_user(TwoUserModifiedConfig(n1, n2, k, ne)).lower_12
                    for ne in range(grid.two_user_n_eve_max + 1)]
            if any(b > a for a, b in zip(mods, mods[1:])):
                violations["identity:monotonic-in-eve-antennas"] += 1

    results = [CheckResult(name, float(violations[name]), 0.0, 0.0)
               for name in IDENTITY_MANIFEST]
    names_ok = sorted(r.name for r in results) == sorted(IDENTITY_MANIFEST)
    results.append(CheckResult("identity:manifest-complete", 1.0 if names_ok else 0.0, 1.0, 0.0))
    return sorted(results, key=lambda r: r.name)


# --------------------------------------------------------------------------
# scheme comparison
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonRow:
    scheme: str
    phase1_dof: int
    phase2_dof: int
    total_dof: int
    phase1_slots: int
    phase2_slots: int


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def __post_init__(self):
        for row in self.rows:
            if row.total_dof != row.phase1_dof + pos(row.phase2_dof):
                raise ValueError(f"inconsistent totals in comparison row {row.scheme}")


def compare_schemes(cfg: NetworkConfig, k2: int) -> ComparisonTable:
    """Side-by-side DoFs and slot counts for the applicable schemes.

    The pair (1, 2) anchors the per-pair values.  All-user phase 1 uses
    K_1 slots; the pair-wise schedule spends max(N_i) pilot slots per
    session over M(M-1)/2 sessions and splits the aggregate symbol budget
    k2 evenly (non-divisible budgets are rejected rather than rounded).
    For M = 2 the comparison is against the modified two-user scheme over
    the same N_2 + k2 total slots.
    """
    problems = validate_config(cfg)
    if problems:
        raise ValueError("; ".join(text for _, text in problems))
    if k2 < 0:
        raise ValueError("k2 must be non-negative")
    n_i, n_j = cfg.antennas[0], cfg.antennas[1]
    rows = []

    cfg_k2 = NetworkConfig(cfg.antennas, cfg.n_eve, k1=cfg.k1, k2=k2)
    s = DofScenario(cfg_k2, 0, 1)
    phase2 = max(dof_phase2_lower(s), dof_phase2_lower(s.swapped()))
    phase1 = dof_phase1(n_i, n_j)
    rows.append(ComparisonRow("all_user", phase1, phase2, phase1 + pos(phase2), cfg.k1, k2))

    if cfg.m >= 3:
        p0 = cfg.m * (cfg.m - 1) // 2
        if k2 % p0 != 0:
            raise ValueError(f"phase-2 budget {k2} is not divisible by {p0} sessions")
        pair = dof_pairwise(n_i, n_j, cfg.n_eve, k2 // p0)
        rows.append(
            ComparisonRow("pairwise", phase1, pair.upper, phase1 + pos(pair.upper),
                          p0 * max(cfg.antennas), k2)
        )
    else:
        n1, n2 = sorted((n_i, n_j))
        c2u = TwoUserModifiedConfig(n1, n2, n2 + k2, cfg.n_eve)
        md = dof_modified_two_user(c2u)
        rows.append(
            ComparisonRow("modified_two_user", phase1, md.upper, phase1 + pos(md.upper), n2, k2)
        )
    return ComparisonTable(tuple(rows))
