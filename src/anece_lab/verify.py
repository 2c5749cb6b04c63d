"""Empirical verification: slope fits and their resolution, pilot-phase
factor ranks, rank oracles and exact integer identity suites.  Scheme
comparison lives with each scheme's record in ``cli.SCHEMES``.

Checks are pure and independent of evaluation order; suites sort their
results by name before returning so that aggregation is reproducible no
matter how the work is scheduled.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .capacity import CapacityCurve
from .dofcalc import (
    DofScenario,
    dof_cij,
    dof_entropy_terms,
    dof_gap,
    dof_leakage,
    dof_modified_two_user,
    dof_phase2_lower,
    dof_phase2_lower_plus,
    dof_phase2_upper,
    dof_two_user_original,
    freedom_oracle,
    modified_entropy_terms,
    modified_freedom_oracle,
    modified_lower_12_piecewise,
    pos,
)
from .model import CheckResult, NetworkConfig, SnrGrid, TwoUserModifiedConfig
from .numkernel import (
    EVE,
    draw_channels,
    numerical_rank,
    sample_cn,
    substream,
    user_channel_dim,
    user_realization,
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


def verify_slope(name: str, curve: CapacityCurve, target_dof: int) -> CheckResult:
    """One slope-versus-analytic-DoF check."""
    return CheckResult(name, fit_slope(curve).slope, float(target_dof), slope_tolerance(target_dof))


def verify_resolution(slope: CheckResult, curve: CapacityCurve) -> CheckResult:
    """``resolution:<slope row>``: 1 when the Monte Carlo ``curve``'s slope
    standard error is at most a quarter of the ``slope`` row's tolerance, so
    that noise cannot decide whether the row tells +-1 DoF apart, else 0."""
    resolved = curve.slope_stderr <= slope.tolerance / 4
    return CheckResult(f"resolution:{slope.name}", float(resolved), 1.0, 0.0)


# --------------------------------------------------------------------------
# rank oracles
# --------------------------------------------------------------------------


RANK_DRAWS = 100


def rank_oracle_suite(cfg: NetworkConfig, seed: int) -> list[CheckResult]:
    """Probability-one rank statements checked over RANK_DRAWS channel draws.

    Per draw: each user's channel stack H_(i) = ``link([i])``, the factor of
    its summed channel Gram, has rank min(N_i, N_T-N_i); the [H_ij; H_Ej]
    stack ``link([i, EVE], [j])`` has rank min(N_E+N_i, N_j); and (for
    M >= 3) a fresh pair-wise pilot matrix has full row rank N_T.  The
    reciprocal-channel covariance J^T J of each pair, J = [J_i, J_j] with J_i
    the Jacobian of vec(H_(i)), has rank deficiency N_i*N_j, the entries of
    H[(i, j)] both users see.  J's columns are unit vectors, so that is the
    count of the pair's labels in ``link([u])`` of one realization whose entry
    e is e, less the distinct ones; it enters no draw and counts RANK_DRAWS
    passes when it holds.  All draws come from one stream and each row ranks
    its whole batch with one ``numerical_rank`` call; the pair-wise row's is
    ``build_pairwise_matrix``'s audit of every draw's matrix, which covers its
    blocks, and counts RANK_DRAWS when it accepts the batch and 0 when not.
    A miss indicates a tolerance or construction bug, not bad luck.
    """
    m = len(cfg.antennas)
    antennas, n_eve, n_t = cfg.antennas, cfg.n_eve, cfg.n_total
    ch = draw_channels(antennas, n_eve, substream(seed, "rank-draws"), (RANK_DRAWS,))
    labels = user_realization(antennas, np.arange(user_channel_dim(antennas)))
    heard = [labels.link([u]).ravel().tolist() for u in range(m)]
    passes: dict[str, int] = {}
    for i, j in itertools.combinations(range(m), 2):
        shared = len(heard[i]) + len(heard[j]) - len(set(heard[i] + heard[j]))
        holds = shared == antennas[i] * antennas[j]
        passes[f"rank:reciprocal-cov[{i + 1}-{j + 1}]"] = RANK_DRAWS if holds else 0
    stacks = [(f"rank:channel-sum[user {i + 1}]", [i], None,
               min(antennas[i], n_t - antennas[i])) for i in range(m)]
    stacks += [(f"rank:eve-stack[{i + 1}-{j + 1}]", [i, EVE], [j],
                min(n_eve + antennas[i], antennas[j]))
               for i, j in itertools.permutations(range(m), 2)]
    for name, rx, tx, target in stacks:  # each stack built when it is ranked
        passes[name] = np.sum(numerical_rank(ch.link(rx, tx)) == target)
    if m >= 3:
        rng = substream(seed, "rank-pairwise")
        blocks = [sample_cn(rng, (RANK_DRAWS, n, max(antennas))) for n in antennas]
        try:
            build_pairwise_matrix(blocks)
            passes["rank:pairwise-pilot"] = RANK_DRAWS
        except RuntimeError:  # some draw's matrix failed the builder's full-row-rank audit
            passes["rank:pairwise-pilot"] = 0

    results = [CheckResult(name, float(count), float(RANK_DRAWS), 0.0)
               for name, count in passes.items()]
    return sorted(results, key=lambda r: r.name)


# --------------------------------------------------------------------------
# pilot-phase factor ranks
# --------------------------------------------------------------------------


def eig_growth_suite(ps) -> list[CheckResult]:
    """Count the power-scaled eigenvalues of the pilot-phase covariances.

    sigma^2 A A^H + I grows along rank(A) directions, so each count is the
    rank of a factor, read from ranks of the pilot stacks P_(S), the stack
    without the users S (``PilotSet.without``).  User i's factor is
    P_(i)^T kron I_(N_i), of rank N_i * rank(P_(i)), which must be
    N_i * (N_T - N_i).  A pair's factor is the Jacobian J of its receptions
    [vec(Y_i); vec(Y_j^T)] over the user-channel entries either user hears,
    whose rank must be its column count N_i(N_T-N_i) + N_j(N_T-N_j) - N_i*N_j.
    Its row is N_i * rank(P_(i)) + N_j * rank(P_(ij)), and P_(ij) is empty,
    of rank 0, for M = 2.

    Why: order J's columns as user i's channels, then user j's channels from
    the users outside {i, j}, which i does not hear.  Y_i depends on the
    first group alone, so up to row and column permutations
    J = [[A, 0], [C, E]] with A = P_(i)^T kron I_(N_i) and
    E = P_(ij)^T kron I_(N_j).  Hence rank A + rank E <= rank J <=
    cols(A) + rank E, and both ends meet once P_(i) has full row rank,
    rank A = cols(A).  The row is therefore never above rank J, and it
    reaches its target only if rank P_(i) = N_T - N_i and rank P_(ij) =
    N_T - N_i - N_j, where it equals rank J = cols(J): a passing row proves
    that J has full column rank.  ``verify`` passes the basis G of
    ``pilots.pilot_basis``, whose stacks have the singular values of every
    G Q that ``build_pilots`` returns, and which refuses any pilot set whose
    P_(i) lacks full row rank before a row is built.
    """
    antennas = ps.antennas
    n_t = sum(antennas)
    results = []
    for i, (n_i, rank) in enumerate(zip(antennas, ps.complement_ranks)):
        count = n_i * rank
        results.append(CheckResult(f"eig:single[user {i + 1}]", float(count),
                                   float(n_i * (n_t - n_i)), 0.0))
    for i, j in itertools.combinations(range(len(antennas)), 2):
        n_i, n_j = antennas[i], antennas[j]
        count = n_i * ps.complement_ranks[i] + n_j * numerical_rank(ps.without(i, j))
        target = n_i * (n_t - n_i) + n_j * (n_t - n_j) - n_i * n_j
        results.append(CheckResult(f"eig:joint[{i + 1}-{j + 1}]", float(count),
                                   float(target), 0.0))
    return sorted(results, key=lambda r: r.name)


# --------------------------------------------------------------------------
# exact integer identity suite
# --------------------------------------------------------------------------


# The identity grid: all-user networks of M users with antenna counts in
# N_VALUES, and two-user networks with 1 <= N_1 <= N_2 <= TWO_USER_N_MAX.
# The modified scheme has K = N_2 + K_2 slots and N_E in TWO_USER_N_EVE_VALUES.
M_VALUES = (2, 3, 4, 5)
N_VALUES = (1, 2, 3)
N_EVE_VALUES = tuple(range(13))
K2_VALUES = tuple(range(9))
TWO_USER_N_MAX = 4
TWO_USER_N_EVE_VALUES = tuple(range(11))

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


def _pair_shapes() -> list[tuple[int, int, int, int]]:
    """Distinct (N_i, N_j, N_T, N_min) of the ordered pairs of the grid's networks.

    Every DoF formula of the all-user scheme depends on the antenna vector
    only through these four numbers, and those depend on the other M - 2
    users only through their multiset, so each (N_i, N_j, multiset) is
    visited once instead of every (antenna vector, ordered pair).
    """
    return sorted({
        (n_i, n_j, n_i + n_j + sum(rest), min(n_i, n_j, *rest))
        for m in M_VALUES
        for rest in itertools.combinations_with_replacement(N_VALUES, m - 2)
        for n_i, n_j in itertools.product(N_VALUES, repeat=2)
    })


def _two_user_pairs() -> np.ndarray:
    """Every (N_1, N_2) with 1 <= N_1 <= N_2 <= TWO_USER_N_MAX, one row each."""
    n = range(1, TWO_USER_N_MAX + 1)
    return np.array([(n1, n2) for n1 in n for n2 in n if n1 <= n2])


def _pair_shape_grid() -> DofScenario:
    """Every pair shape x K_2 x N_E, as one record of broadcast columns: the
    shape's numbers along axis 0, K_2 along axis 1 and N_E along axis 2."""
    shapes = np.array(_pair_shapes())[:, :, None, None]
    k2 = np.array(K2_VALUES)[:, None]
    return DofScenario(*shapes.transpose(1, 0, 2, 3), np.array(N_EVE_VALUES), k2)


def _two_user_grid(n_eve_values) -> tuple[np.ndarray, ...]:
    """(N_1, N_2, N_E, K_2) arrays over every two-user pair x n_eve_values x K_2."""
    pairs = _two_user_pairs()
    idx, n_eve, k2 = np.meshgrid(np.arange(len(pairs)), n_eve_values, K2_VALUES, indexing="ij")
    return pairs[idx, 0], pairs[idx, 1], n_eve, k2


def _count(bad) -> int:
    return int(np.count_nonzero(bad))


def identity_suite() -> list[CheckResult]:
    """Evaluate every algebraic identity across the grid, one row each.

    Each family evaluates the closed forms once on its whole grid.  Rows
    report the number of violating grid points against a target of zero
    (the two-user monotonicity checks count violating sequences); the final
    row checks the names the families produced against the manifest, so a
    dropped or unlisted identity fails the suite.
    """
    violations: Counter[str] = Counter()
    for family in (_pair_shape_identities, _symmetric_identities, _two_user_identities):
        violations.update(family())
    results = [CheckResult(name, float(count), 0.0, 0.0) for name, count in violations.items()]
    names_ok = sorted(violations) == sorted(IDENTITY_MANIFEST)
    results.append(CheckResult("identity:manifest-complete", 1.0 if names_ok else 0.0, 1.0, 0.0))
    return sorted(results, key=lambda r: r.name)


def _pair_shape_identities() -> dict[str, int]:
    """The all-user forms on every pair shape, and the lower bound along N_E.

    Each row compares values that vary with the shape, K_2 and N_E, so its
    array spans the whole grid and counts each point once.
    """
    s = _pair_shape_grid()
    lower, plus = dof_phase2_lower(s), dof_phase2_lower_plus(s)
    terms = dof_entropy_terms(s)
    eve, joint_i, joint_ij = freedom_oracle(s)
    return {
        "identity:gap-consistency": _count(dof_phase2_upper(s) - lower != dof_gap(s)),
        "identity:lower-decomposition": _count(lower != dof_cij(s) - dof_leakage(s)),
        "identity:freedom-oracle-eve-reception": _count(eve != terms.h_ye_given_hep),
        "identity:freedom-oracle-joint-user-eve": _count(joint_i != terms.h_joint_i_e),
        "identity:freedom-oracle-joint-pair-eve": _count(joint_ij != terms.h_joint_i_j_e),
        # one count per grid step along N_E
        "identity:monotonic-in-eve-antennas":
            _count((np.diff(lower) > 0) | (np.diff(plus) > 0)),
    }


def _symmetric_identities() -> dict[str, int]:
    """The reductions of the paper for symmetric networks of M users of N antennas."""
    m, n, n_eve, k2 = np.meshgrid(M_VALUES, N_VALUES, N_EVE_VALUES, K2_VALUES, indexing="ij")
    s = DofScenario(n, n, m * n, n, n_eve, k2)
    lower, upper, gap = dof_phase2_lower(s), dof_phase2_upper(s), dof_gap(s)
    dk2 = pos(k2 - n)
    expected_gap = np.where(m == 2, 0, np.where(
        m == 3, dk2 * np.minimum(n_eve, n),
        dk2 * (np.minimum(n_eve, (m - 2) * n) - np.minimum(n_eve, (m - 4) * n))))
    both_zero = (lower == upper) & (upper == 0)
    expected_low = np.where(m == 2, 2 * n * np.minimum(n, k2),
                            np.where(m == 3, n * pos(2 * np.minimum(n, k2) - k2), 0))
    eve_large_bad = (dof_phase2_lower_plus(s) != expected_low) | ((m >= 4) & (upper != 0))
    expected_at_n = np.where(m == 2, 2 * n * n, n * n)
    return {
        "identity:symmetric-gap-table": _count(gap != expected_gap),
        "identity:symmetric-large-m-zero": _count((m >= 4 + -(-n_eve // n)) & ~both_zero),
        "identity:symmetric-eve-large": _count((n_eve >= m * n) & eve_large_bad),
        "identity:symmetric-k2-equals-n": _count(
            (k2 == n) & (m <= 3) & ~((lower == upper) & (upper == expected_at_n))),
    }


def _two_user_identities() -> dict[str, int]:
    """The original and the modified two-user scheme of every pair N_1 <= N_2."""
    n1, n2, n_eve, k2 = _two_user_grid(N_EVE_VALUES)
    original = dof_two_user_original(n1, n2, n_eve, k2)
    lower = dof_phase2_lower(DofScenario(n1, n2, n1 + n2, n1, n_eve, k2))

    # the modified scheme spends K = N_2 + K_2 slots, N_2 of them on pilots
    n1, n2, n_eve, k2 = _two_user_grid(TWO_USER_N_EVE_VALUES)
    dn, nt, k = n2 - n1, n1 + n2, n2 + k2
    c = TwoUserModifiedConfig(n1, n2, k, n_eve)
    md = dof_modified_two_user(c)
    original_mod = dof_two_user_original(n1, n2, n_eve, k2)  # at the modified scheme's points
    oracle_bad = sum(_count(oracle != closed) for oracle, closed
                     in zip(modified_freedom_oracle(c), modified_entropy_terms(c)))

    # monotonicity, one count per violating sequence; axis 1 is N_E, axis 2 is K_2
    def rising(values):
        return _count(np.any(np.diff(values, axis=1) > 0, axis=1))

    def falling(values):
        return _count(np.any(np.diff(values, axis=2) < 0, axis=2))

    return {
        "identity:two-user-lower-matches-closed-form": _count(lower != original),
        "identity:modified-upper-equals-lower": _count(
            ~((md.upper == md.lower_12) & (md.lower_12 == modified_lower_12_piecewise(c)))),
        "identity:modified-lower-ordering": _count(
            md.lower_12 - md.lower_21 != np.minimum(n_eve, dn) * pos(k - nt)),
        "identity:modified-minus-original": _count(md.lower_12 - original_mod != n1 * (n2 - n1)),
        "identity:freedom-oracle-modified-terms": oracle_bad,
        "identity:monotonic-in-eve-antennas": rising(original) + rising(md.lower_12),
        "identity:monotonic-in-slots": falling(original_mod) + falling(md.lower_12),
        "identity:piecewise-boundary-agreement": _piecewise_boundary_violations(),
    }


def _piecewise_boundary_violations() -> int:
    """The two piecewise forms on both sides of each region boundary.

    At N_E = dN and N_E = N_T the branch right of the boundary, as the paper
    writes it, must agree with the form (the branches meet); one past the
    boundary the form must already follow it.  Counts one per (pair, K_2,
    N_E) point and form.
    """
    pairs = _two_user_pairs()
    n1, n2 = pairs[:, :1], pairs[:, 1:]
    k2 = np.array(K2_VALUES)
    dn, nt, k = n2 - n1, n1 + n2, n2 + k2
    bad = 0
    for n_eve, middle in ((dn, True), (dn + 1, True), (nt, False), (nt + 1, False)):
        if middle:
            original = 2 * k2 * n1 - pos(k2 - n1) * (n_eve - dn)
            modified = n1 * (2 * k - nt) - (n_eve - dn) * pos(k - nt)
        else:
            original = 2 * np.minimum(n1, k2) * n1
            modified = n1 * (2 * k - nt - pos(2 * k - 2 * nt))
        bad += _count(dof_two_user_original(n1, n2, n_eve, k2) != original)
        c = TwoUserModifiedConfig(n1, n2, k, n_eve)
        bad += _count(modified_lower_12_piecewise(c) != modified)
    return bad
