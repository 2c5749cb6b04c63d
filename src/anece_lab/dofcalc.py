"""Closed-form secure-degree-of-freedom evaluators for all ANECE variants.

Every function here is exact integer arithmetic with (x)^+ = max(x, 0);
no floats enter.  All forms but ``dof_phase1`` take ints or integer
arrays: given a record whose fields are a grid's broadcast columns, a form
evaluates every point at once, elementwise, and a guard raises if any
element violates it.  Results are numpy integers (int64), so
a caller wanting a Python ``int`` converts at its boundary; the ``model``
validators cap scenario counts at ``MAX_COUNT`` so that no form can
overflow.  Alongside the closed forms, ``freedom_oracle`` and
``modified_freedom_oracle`` recompute the non-Gaussian entropy DoFs by
summing per-block freedoms (min of observed dimension and unknown-factor
dimension, times columns), giving an independent route against which the
closed forms are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import NetworkConfig, TwoUserModifiedConfig

# an int, or an integer array holding one grid point per element
Ints = int | np.ndarray


def pos(x: Ints) -> Ints:
    """(x)^+ clamp at zero, elementwise."""
    return np.maximum(x, 0)


@dataclass(frozen=True)
class DofScenario:
    """The numbers of one ordered user pair (i, j) of an all-user network.

    Every all-user closed form reads the network only through N_i, N_j,
    N_T, N_min, N_E and K_2.  The fields may be integer arrays of one
    broadcast shape, one point of a grid per element.
    """

    n_i: Ints
    n_j: Ints
    n_t: Ints
    n_min: Ints
    n_eve: Ints
    k2: Ints

    @classmethod
    def pair(cls, cfg: NetworkConfig, i: int, j: int) -> "DofScenario":
        """The pair (i, j) of ``cfg``."""
        if not (0 <= i < cfg.m and 0 <= j < cfg.m) or i == j:
            raise ValueError("need two distinct user indices inside the config")
        return cls(cfg.antennas[i], cfg.antennas[j], cfg.n_total, cfg.n_min, cfg.n_eve, cfg.k2)

    @property
    def dk2(self) -> Ints:
        """Symbol slots beyond the pilot-ambiguity width: (K_2 - N_min)^+."""
        return pos(self.k2 - self.n_min)

    def swapped(self) -> "DofScenario":
        return replace(self, n_i=self.n_j, n_j=self.n_i)


@dataclass(frozen=True)
class EntropyDofs:
    """High-SNR slopes of the four leakage-analysis entropies."""

    h_yi_given_hi: Ints
    h_ye_given_hep: Ints
    h_joint_i_e: Ints
    h_joint_i_j_e: Ints


@dataclass(frozen=True)
class PairwiseDof:
    lower: Ints
    upper: Ints
    gap: Ints


@dataclass(frozen=True)
class ModifiedTwoUserDof:
    lower_12: Ints
    lower_21: Ints
    upper: Ints


# --------------------------------------------------------------------------
# all-user ANECE
# --------------------------------------------------------------------------


def dof_phase1(n_i: int, n_j: int) -> int:
    """Pilot-phase SDoF between users i and j: N_i * N_j."""
    if n_i < 1 or n_j < 1:
        raise ValueError("antenna counts must be >= 1")
    return n_i * n_j


def dof_cij(s: DofScenario) -> Ints:
    """Slope of the symbol-phase capacity between users i and j.

    K_2 * [min(N_i, N_T-N_i) + min(N_j, N_T-N_j) - min(N_i+N_j, N_T-N_i-N_j)].
    """
    ni, nj, nt = s.n_i, s.n_j, s.n_t
    return s.k2 * (
        np.minimum(ni, nt - ni) + np.minimum(nj, nt - nj) - np.minimum(ni + nj, nt - ni - nj)
    )


def dof_entropy_terms(s: DofScenario) -> EntropyDofs:
    """The four analytic entropy slopes of the leakage and upper-bound analyses."""
    ni, nj, nt, nmin, ne, k2, dk2 = s.n_i, s.n_j, s.n_t, s.n_min, s.n_eve, s.k2, s.dk2
    h_yi_given_hi = np.minimum(ni, nt - ni) * k2
    h_ye_given_hep = ne * np.minimum(nmin, k2) + np.minimum(ne, nt) * dk2
    h_joint_i_e = (
        k2 * np.minimum(ni, nt - ni)
        + ne * np.minimum(nmin, k2)
        + dk2 * np.minimum(ne, pos(nt - 2 * ni))
    )
    h_joint_i_j_e = (
        k2 * np.minimum(ni, nt - ni - nj)
        + k2 * np.minimum(nj, pos(nt - 2 * ni - nj))
        + ne * np.minimum(nmin, k2)
        + dk2 * np.minimum(ne, pos(nt - 2 * ni - 2 * nj))
    )
    return EntropyDofs(h_yi_given_hi, h_ye_given_hep, h_joint_i_e, h_joint_i_j_e)


def dof_leakage(s: DofScenario) -> Ints:
    """Slope of the leakage capacity from user i to Eve in the symbol phase."""
    t = dof_entropy_terms(s)
    return t.h_yi_given_hi + t.h_ye_given_hep - t.h_joint_i_e


def dof_phase2_lower(s: DofScenario) -> Ints:
    """Lower bound on the symbol-phase SDoF for the ordered pair (i, j).

    K_2 min(N_j, N_T-N_j) + K_2 min(N_i, N_T-N_i)
    + dK_2 min(N_E, (N_T-2N_i)^+) - K_2 min(N_i+N_j, N_T-N_i-N_j)
    - dK_2 min(N_E, N_T);  may be negative.
    """
    ni, nj, nt, ne, k2, dk2 = s.n_i, s.n_j, s.n_t, s.n_eve, s.k2, s.dk2
    return (
        k2 * np.minimum(nj, nt - nj)
        + k2 * np.minimum(ni, nt - ni)
        + dk2 * np.minimum(ne, pos(nt - 2 * ni))
        - k2 * np.minimum(ni + nj, nt - ni - nj)
        - dk2 * np.minimum(ne, nt)
    )


def dof_phase2_lower_plus(s: DofScenario) -> Ints:
    """The lower bound clamped at zero."""
    return pos(dof_phase2_lower(s))


def dof_phase2_upper(s: DofScenario) -> Ints:
    """Upper bound on the symbol-phase SDoF (symmetric in the pair)."""
    ni, nj, nt, ne, k2, dk2 = s.n_i, s.n_j, s.n_t, s.n_eve, s.k2, s.dk2
    return (
        k2 * np.minimum(ni, nt - ni)
        + k2 * np.minimum(nj, nt - nj)
        + dk2 * np.minimum(ne, pos(nt - 2 * ni))
        + dk2 * np.minimum(ne, pos(nt - 2 * nj))
        - dk2 * np.minimum(ne, nt)
        - dk2 * np.minimum(ne, pos(nt - 2 * ni - 2 * nj))
        - k2 * np.minimum(ni, nt - ni - nj)
        - k2 * np.minimum(nj, pos(nt - 2 * ni - nj))
    )


def dof_gap(s: DofScenario) -> Ints:
    """Upper-minus-lower gap for the ordered pair (i, j), as a closed form."""
    ni, nj, nt, ne, k2, dk2 = s.n_i, s.n_j, s.n_t, s.n_eve, s.k2, s.dk2
    return (
        dk2 * np.minimum(ne, pos(nt - 2 * nj))
        + k2 * np.minimum(ni + nj, nt - ni - nj)
        - k2 * np.minimum(ni, nt - ni - nj)
        - k2 * np.minimum(nj, pos(nt - 2 * ni - nj))
        - dk2 * np.minimum(ne, pos(nt - 2 * ni - 2 * nj))
    )


# --------------------------------------------------------------------------
# two-user original, pair-wise, modified two-user
# --------------------------------------------------------------------------


def dof_two_user_original(n1: Ints, n2: Ints, n_eve: Ints, k2: Ints) -> Ints:
    """Symbol-phase SDoF of the original two-user scheme (bounds coincide).

    With dN = N_2-N_1 and dK_2 = (K_2-N_1)^+, over the three N_E regions:
    2 K_2 N_1 for N_E <= dN; 2 K_2 N_1 - dK_2 (N_E - dN) up to N_E = N_T;
    2 min(N_1, K_2) N_1 beyond.  Adjacent branches agree at the boundaries.
    """
    if np.any(n1 > n2):
        raise ValueError("needs N_1 <= N_2")
    if np.any(k2 < 0) or np.any(n_eve < 0):
        raise ValueError("K_2 and N_E must be non-negative")
    dn = n2 - n1
    dk2 = pos(k2 - n1)
    return np.where(n_eve <= dn, 2 * k2 * n1,
                    np.where(n_eve <= n1 + n2, 2 * k2 * n1 - dk2 * (n_eve - dn),
                             2 * np.minimum(n1, k2) * n1))


def dof_pairwise(n_ip: Ints, n_jp: Ints, n_eve: Ints, k2_session: Ints) -> PairwiseDof:
    """Symbol-phase SDoF bounds of one pair-wise session.

    lower = [min(N_i, N_j) - min(N_E, N_i+N_j) + min(N_E+N_i, N_j)] * k_2,
    upper adds min(N_E+N_j, N_i) in place of min(N_i, N_j); the gap is zero
    whenever N_i <= N_j.
    """
    if np.any(k2_session < 0) or np.any(n_eve < 0):
        raise ValueError("k_2 and N_E must be non-negative")
    lower = (
        np.minimum(n_ip, n_jp) - np.minimum(n_eve, n_ip + n_jp) + np.minimum(n_eve + n_ip, n_jp)
    ) * k2_session
    upper = (
        -np.minimum(n_eve, n_ip + n_jp) + np.minimum(n_eve + n_ip, n_jp)
        + np.minimum(n_eve + n_jp, n_ip)
    ) * k2_session
    gap = np.where(n_ip <= n_jp, 0, (np.minimum(n_eve + n_jp, n_ip) - n_jp) * k2_session)
    return PairwiseDof(lower, upper, gap)


def modified_entropy_terms(cfg2u: TwoUserModifiedConfig) -> tuple[Ints, Ints, Ints]:
    """Closed forms of the three conditional-entropy slopes of the modified scheme.

    term2: h of Eve's symbol-segment reception given her resolvable channel
    part; term3/term4: h of (user reception, Eve reception) given the
    conditioning set of user 1 resp. user 2.
    """
    n1, n2, k, ne = cfg2u.n1, cfg2u.n2, cfg2u.k_total, cfg2u.n_eve
    nt, dn = cfg2u.n_total, cfg2u.delta_n
    term2 = ne * np.minimum(n2, k - n1) + np.minimum(ne, nt) * pos(k - nt)
    term3 = n1 * (k - n2) + ne * np.minimum(n2, k - n1) + np.minimum(ne, dn) * pos(k - nt)
    term4 = n1 * (k - n1) + ne * np.minimum(n2, k - n1)
    return term2, term3, term4


def dof_modified_two_user(cfg2u: TwoUserModifiedConfig) -> ModifiedTwoUserDof:
    """Symbol-phase SDoF of the modified two-user scheme.

    lower_12 = N_1(2K-N_T) + min(N_E, dN)(K-N_T)^+ - min(N_E, N_T)(K-N_T)^+
    and lower_21 drops the middle term.  The upper bound is assembled from
    the four conditional-entropy slopes and coincides with lower_12.
    """
    n1, n2, k, ne = cfg2u.n1, cfg2u.n2, cfg2u.k_total, cfg2u.n_eve
    if np.any(n1 > n2):
        raise ValueError("needs N_1 <= N_2")
    if np.any(k < n2):
        raise ValueError("needs K >= N_2")
    nt, dn = cfg2u.n_total, cfg2u.delta_n
    lower_12 = (
        n1 * (2 * k - nt) + np.minimum(ne, dn) * pos(k - nt) - np.minimum(ne, nt) * pos(k - nt)
    )
    lower_21 = n1 * (2 * k - nt) - np.minimum(ne, nt) * pos(k - nt)
    term2, term3, term4 = modified_entropy_terms(cfg2u)
    # given both users' data only Eve's unresolved channel part stays free,
    # and it fills her first min(N_2, K-N_1) reception columns
    joint_all = ne * np.minimum(n2, k - n1)
    upper = term3 + term4 - term2 - joint_all
    return ModifiedTwoUserDof(lower_12, lower_21, upper)


def modified_lower_12_piecewise(cfg2u: TwoUserModifiedConfig) -> Ints:
    """Region form of lower_12, used for branch-agreement checks.

    N_1(2K-N_T) for N_E <= dN; minus (N_E-dN)(K-N_T)^+ up to N_E = N_T;
    N_1[2K-N_T-(2K-2N_T)^+] beyond.
    """
    n1, ne, k = cfg2u.n1, cfg2u.n_eve, cfg2u.k_total
    nt, dn = cfg2u.n_total, cfg2u.delta_n
    return np.where(ne <= dn, n1 * (2 * k - nt),
                    np.where(ne <= nt, n1 * (2 * k - nt) - (ne - dn) * pos(k - nt),
                             n1 * (2 * k - nt - pos(2 * k - 2 * nt))))


# --------------------------------------------------------------------------
# structural freedom-counting oracle
# --------------------------------------------------------------------------


def _left_unknown(obs_rows: Ints, unknown_rows: Ints, cols: Ints) -> Ints:
    """Freedom of U @ B: U unknown (obs_rows x unknown_rows), B known generic."""
    return obs_rows * np.minimum(unknown_rows, cols)


def _right_unknown(obs_rows: Ints, unknown_rows: Ints, cols: Ints) -> Ints:
    """Freedom of A @ V: A known generic, V unknown (unknown_rows x cols)."""
    return np.minimum(obs_rows, unknown_rows) * cols


def freedom_oracle(s: DofScenario) -> tuple[Ints, Ints, Ints]:
    """The entropy slopes h_ye_given_hep, h_joint_i_e and h_joint_i_j_e of
    ``dof_entropy_terms``, recomputed by summing per-block freedoms.

    Each observation block contributes min(its row count, rank of its
    unknown factor) times its column count; blocks that the conditioning
    pins down contribute zero.  No piecewise closed form is evaluated here.
    """
    ni, nj, nt, nmin, ne, k2 = s.n_i, s.n_j, s.n_t, s.n_min, s.n_eve, s.k2
    cols_alpha = np.minimum(nmin, k2)
    cols_beta = k2 - cols_alpha
    # alpha: Eve's channel part orthogonal to the pilots (nmin rows) is free;
    # beta rows up to N_T stay free through the unknown symbols; the rest is pinned
    eve_alpha = _left_unknown(ne, nmin, cols_alpha)
    ye_given_hep = eve_alpha + _right_unknown(ne, nt, cols_beta)
    null_i = pos((nt - ni) - ni)  # unknown factor rows left by user i's reception
    joint_i_e = (
        _right_unknown(ni, nt - ni, k2)
        + eve_alpha
        + _right_unknown(ne, null_i, cols_beta)
    )
    null_after_i = pos(nt - ni - nj - ni)
    null_after_ij = pos(nt - ni - nj - ni - nj)
    joint_i_j_e = (
        _right_unknown(ni, nt - ni - nj, k2)
        + _right_unknown(nj, null_after_i, k2)
        + eve_alpha
        + _right_unknown(ne, null_after_ij, cols_beta)
    )
    return ye_given_hep, joint_i_e, joint_i_j_e


def modified_freedom_oracle(c: TwoUserModifiedConfig) -> tuple[Ints, Ints, Ints]:
    """The three slopes of ``modified_entropy_terms``, by the same block count."""
    n1, n2, k, ne = c.n1, c.n2, c.k_total, c.n_eve
    nt, dn = c.n_total, c.delta_n
    cols_alpha = np.minimum(n2, k - n1)
    cols_beta = pos(k - nt)
    eve_alpha = _left_unknown(ne, n2, cols_alpha)
    term2 = eve_alpha + _right_unknown(ne, nt, cols_beta)
    term3 = _right_unknown(n1, n2, k - n2) + eve_alpha + _right_unknown(ne, dn, cols_beta)
    term4 = _right_unknown(n2, n1, k - n1) + eve_alpha
    return term2, term3, term4
