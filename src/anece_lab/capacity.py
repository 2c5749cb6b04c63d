"""Gaussian-computable secret-key-capacity terms.

Every term is a weighted sum of log2|I + s2 * A A^H| over factor matrices
A, evaluated for a whole SNR grid at once by ``numkernel.log2det_grid`` from
the squared singular values of each factor: in closed form when its short
side is at most 3 (the roots of the Gram's characteristic cubic for 3),
else from one batched ``eigvalsh`` of its short-side Gram.  Eigenvalues of
a Gram carry an absolute error of about 1e-16 tr(G), so a factor whose
short side exceeds 2 must have full rank on it.  The pilot-phase SKC is
exact: its factors depend only on the pilots, ``build_pilots`` audits the
rank of each P_(i), and ``verify`` ranks the same factors for its ``eig:*``
rows.  The symbol-phase terms are Monte Carlo means over channel draws
from one ``(seed, purpose)`` stream per curve, read in sample order in
blocks of at most ``numkernel.MC_BLOCK_ENTRIES`` entries (or of one sample);
every grid point reuses the same draws (common random numbers), and the
means are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, SnrGrid, TwoUserModifiedConfig
from .numkernel import (
    ChannelRealization,
    channel_basis,
    cn_blocks,
    log2det_grid,
    receive,
    split_user_channels,
    user_channel_dim,
    vec_batch,
)

LOG2_E_PI = math.log2(math.e * math.pi)


@dataclass(frozen=True)
class CapacityCurve:
    """Capacity values (bits per coherence period) over an SNR grid."""

    grid: SnrGrid
    values: tuple[float, ...]
    mc_samples: int
    mc_stderr: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.grid.points) or len(self.mc_stderr) != len(self.values):
            raise ValueError("curve values/stderr must match the grid length")
        if any(s < 0 for s in self.mc_stderr):
            raise ValueError("standard errors must be non-negative")


# --------------------------------------------------------------------------
# pilot-phase factors
# --------------------------------------------------------------------------


def phase1_joint_factors(ps, pairs):
    """Yield the joint pilot-phase factor J of each user pair (i, j) in ``pairs``.

    J is the Jacobian of the pilot receptions [vec(Y_i); vec(Y_j^T)] of
    ``receive`` over the user-channel entries, less the zero columns of
    entries neither user hears, so that sigma^2 J J^H + I is the pair's joint
    reception covariance at power sigma^2 under unit noise.  One ``receive``
    over ``channel_basis`` serves every pair.
    """
    rx = receive(channel_basis(ps.antennas), ps.blocks)[0]
    for i, j in pairs:
        if i == j:
            raise ValueError("need two distinct users")
        jac = np.concatenate([vec_batch(rx[i]), vec_batch(np.swapaxes(rx[j], 1, 2))], axis=1).T
        yield jac[:, np.any(jac != 0, axis=0)]


# --------------------------------------------------------------------------
# symbol-phase Monte Carlo terms
# --------------------------------------------------------------------------


def _mc_mean(spec, sigma2, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and standard error of sum_w w * log2|I + s2 A A^H|, per s2.

    ``spec`` is (purpose, dim, factors): ``factors`` maps a (b, dim) block of
    ``cn_blocks(seed, purpose, ...)`` to (weight, factor stack) pairs.
    """
    purpose, dim, factors = spec
    values = np.concatenate([
        sum(w * log2det_grid(a, sigma2) for w, a in factors(z))
        for z in cn_blocks(seed, purpose, n_samples, dim)
    ], axis=1)
    if n_samples == 1:
        return values[:, 0], np.zeros(len(values))
    return values.mean(axis=1), values.std(axis=1, ddof=1) / math.sqrt(n_samples)


def _cij_spec(cfg: NetworkConfig, i: int, j: int):
    """R_i, R_j and R_ij factors: H_(i), H_(j) and [H_il; H_jl] over l outside {i, j}."""
    if i == j:
        raise ValueError("need two distinct users")
    others = [l for l in range(cfg.m) if l not in (i, j)]

    def factors(z):
        h = split_user_channels(cfg.antennas, z)
        ch = ChannelRealization(cfg.antennas, 0, h, ())
        terms = [(cfg.k2, ch.channel_to(u)) for u in (i, j)]
        if others:  # for M = 2 the stack has no columns and adds nothing
            stack = [np.concatenate([h[(i, l)], h[(j, l)]], axis=-2) for l in others]
            terms.append((-cfg.k2, np.concatenate(stack, axis=-1)))
        return terms

    return "cij", user_channel_dim(cfg.antennas), factors


def _ckey0_spec(cfg2u: TwoUserModifiedConfig):
    """|I + s2 H12 H12^H| = |I + s2 H21 H21^H|, so H21 carries both weights."""
    n1, n2, k = cfg2u.n1, cfg2u.n2, cfg2u.k_total
    return "ckey0", n1 * n2, lambda z: [(2 * k - n1 - n2, z.reshape(-1, n2, n1))]


def _entropy_spec(m: int, n: int, k: int):
    if min(m, n, k) < 1:
        raise ValueError("dimensions must be >= 1")
    return "gauss-entropy", m * n, lambda z: [(k, z.reshape(-1, m, n))]


# --------------------------------------------------------------------------
# curves over an SNR grid
# --------------------------------------------------------------------------


def _curve(grid: SnrGrid, n_samples: int, values, stderr) -> CapacityCurve:
    return CapacityCurve(grid, tuple(values.tolist()), n_samples, tuple(stderr.tolist()))


def phase1_curve(ps, i: int, j: int, grid: SnrGrid) -> CapacityCurve:
    """Exact pilot-phase SKC between users i and j, in bits, over the grid.

    Evaluates log2|R_i| + log2|R_j| - log2|R_joint| for the Gaussian
    reception model; the single-user determinants reduce to N_i times the
    determinant of the K_1 x K_1 pilot Gram, factored as P_(i)^T.
    """
    sigma2 = grid.sigma2()
    joint = log2det_grid(next(phase1_joint_factors(ps, [(i, j)])), sigma2)
    values = sum(ps.antennas[u] * log2det_grid(ps.without(u).T, sigma2) for u in (i, j)) - joint
    return _curve(grid, 0, values, np.zeros(len(values)))


def cij_curve(cfg: NetworkConfig, i: int, j: int, grid: SnrGrid,
              n_samples: int, seed: int) -> CapacityCurve:
    """Monte Carlo symbol-phase capacity between users i and j over the grid, in bits.

    Averages K_2 * [log2|s2*R_i + I| + log2|s2*R_j + I| - log2|s2*R_ij + I|]
    over channel draws, where R_i sums H_il H_il^H over l != i and R_ij sums
    the stacked blocks over l outside {i, j} (the zero matrix when M = 2).
    """
    return _curve(grid, n_samples, *_mc_mean(_cij_spec(cfg, i, j), grid.sigma2(), n_samples, seed))


def ckey0_curve(cfg2u: TwoUserModifiedConfig, grid: SnrGrid,
                n_samples: int, seed: int) -> CapacityCurve:
    """Monte Carlo symbol-phase rate sum of the modified two-user scheme.

    Averages (K-N_1) * log2|s2*H21 H21^H + I| + (K-N_2) * log2|s2*H12 H12^H + I|
    over reciprocal channel draws (H12 = H21^T).
    """
    return _curve(grid, n_samples, *_mc_mean(_ckey0_spec(cfg2u), grid.sigma2(), n_samples, seed))


def cond_entropy_curve(m: int, n: int, k: int, grid: SnrGrid,
                       n_samples: int, seed: int) -> CapacityCurve:
    """Monte Carlo conditional entropy h(Y|H) for Y = sigma*H*X + W, in bits.

    Y is m x k, H is m x n with i.i.d. CN(0,1) entries; the closed Gaussian
    form is m*k*log2(e*pi) + k*E{log2|s2*H H^H + I_m|}, whose high-SNR slope
    is min(m, n)*k.
    """
    mean, stderr = _mc_mean(_entropy_spec(m, n, k), grid.sigma2(), n_samples, seed)
    return _curve(grid, n_samples, m * k * LOG2_E_PI + mean, stderr)
