"""Gaussian-computable secret-key-capacity terms.

The pilot-phase SKC is exact: a sum over N_i * N_j scalar key channels,
from one thin SVD of the other users' pilots and one ``eigvalsh`` per user
over the whole grid.  The symbol-phase terms are Monte Carlo means of weighted
sums of log2|I + s2 * A A^H| over factor matrices A, evaluated for a whole
SNR grid at once by ``numkernel.log2det_grid``.  Their factors are the
channel blocks ``ChannelRealization.link(rx)`` of a (weight, rx) table, over
draws from one ``(seed, purpose)`` stream per curve, read in sample order in
blocks of at most ``numkernel.MC_BLOCK_ENTRIES`` entries (or of one sample);
every grid point reuses the same draws (common random numbers), and the
means are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, SnrGrid, TwoUserModifiedConfig
from .numkernel import cn_blocks, log2det_grid, user_channel_dim, user_realization

LOG2_E_PI = math.log2(math.e * math.pi)


@dataclass(frozen=True)
class CapacityCurve:
    """Capacity values (bits per coherence period) over an SNR grid, with the
    standard error of each value and of their OLS slope against log2(sigma^2):
    0 for an exact curve, infinite for a Monte Carlo curve of one sample."""

    grid: SnrGrid
    values: tuple[float, ...]
    mc_samples: int
    mc_stderr: tuple[float, ...]
    slope_stderr: float = 0.0

    def __post_init__(self):
        if len(self.values) != len(self.grid.points) or len(self.mc_stderr) != len(self.values):
            raise ValueError("curve values/stderr must match the grid length")
        if any(s < 0 for s in self.mc_stderr) or self.slope_stderr < 0:
            raise ValueError("standard errors must be non-negative")


# --------------------------------------------------------------------------
# symbol-phase Monte Carlo terms
# --------------------------------------------------------------------------


def _mc_mean(purpose: str, antennas, terms, grid: SnrGrid, n_samples: int,
             seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Sample mean and standard error of sum_w w * log2|I + s2 A A^H| per grid
    point, and the standard error of the OLS slope over the grid.

    Each block of ``cn_blocks(seed, purpose, ...)`` is a batch of user-channel
    realizations of the network ``antennas``, and each (w, rx) of ``terms``
    takes A = ``ChannelRealization.link(rx)``: the channels from every other
    user to the receivers ``rx``.  OLS is linear in the values, so the slope
    of the mean is the mean of the draws' slopes, whose spread gives its error.
    """
    blocks = cn_blocks(seed, purpose, n_samples, user_channel_dim(antennas))
    realizations = (user_realization(antennas, z) for z in blocks)
    sigma2 = grid.sigma2()
    values = np.concatenate([sum(w * log2det_grid(ch.link(rx), sigma2) for w, rx in terms)
                             for ch in realizations], axis=1)
    if n_samples == 1:
        return values[:, 0], np.zeros(len(values)), math.inf
    x = np.asarray(grid.points)
    x -= x.mean()
    slopes = x @ values / (x @ x)
    root_n = math.sqrt(n_samples)
    return (values.mean(axis=1), values.std(axis=1, ddof=1) / root_n,
            float(slopes.std(ddof=1)) / root_n)


# --------------------------------------------------------------------------
# curves over an SNR grid
# --------------------------------------------------------------------------


def _curve(grid: SnrGrid, n_samples: int, values, stderr, slope_stderr: float) -> CapacityCurve:
    return CapacityCurve(grid, tuple(values.tolist()), n_samples, tuple(stderr.tolist()),
                         slope_stderr)


def phase1_curve(ps, i: int, j: int, grid: SnrGrid) -> CapacityCurve:
    """Exact pilot-phase SKC between users i and j, in bits, over the grid.

    Whitened against Q, the stacked pilots of every other user, user i hears
    the shared channel H_ij through M_i = conj(P_j) W P_j^T and user j through
    M_j = conj(P_i) W P_i^T, with W = (I + s2 Q^T conj(Q))^-1.  Their joint
    form is a Kronecker sum, with eigenvalues mu_a + nu_b over those of M_i
    and M_j (Horn and Johnson, Topics in Matrix Analysis, 1991, ch. 4), so
    log2|R_i| + log2|R_j| - log2|R_joint| is N_i * N_j scalar key channels:
    sum_{a,b} log2(1 + x_a y_b / (1 + x_a + y_b)), x = s2 mu and y = s2 nu.
    One thin SVD Q^T = U diag(s) V^H, U of K_1 x r with r <= K_1, gives
    W = I - U U^H + U diag(1 / (1 + s2 s^2)) U^H, so with B = P^T, C = U^H B
    and R = B - U C, each form is R^H R + C^H diag(1 / (1 + s2 s^2)) C, and
    one ``eigvalsh`` per user gives a spectrum per grid point.  No array is
    K_1 x K_1: the largest is K_1 x max(r, N).  No large logs cancel:
    s2 = 2^1000 does not overflow, and s2 = 2^-1000 gives exactly 0.

    On designed pilots P = G V (``pilots.build_pilots``), V of r x K_1 with
    conj(V) V^T = I, the push-through identity gives
    conj(V) (I + s2 V^T A conj(V))^-1 V^T = (I + s2 A)^-1, A = G_(ij)^T conj(G_(ij)),
    so M_i = conj(G_j) (I + s2 A)^-1 G_j^T, and M_j likewise: the curve is
    the same on the basis G's row blocks, and ``verify`` passes it
    ``pilots.pilot_basis``, which refuses rank-deficient pilots.
    """
    if i == j:
        raise ValueError("need two distinct users")
    sigma2 = np.asarray(grid.sigma2())
    u, s, _ = np.linalg.svd(ps.without(i, j).T, full_matrices=False)
    w = 1.0 / (1.0 + np.multiply.outer(sigma2, s * s))

    def spectrum(p):  # the eigenvalues of conj(p) W p^T at each grid point, (G, N)
        a = p.conj() @ u  # C^H
        r = p.conj() - a @ u.conj().T  # R^H
        form = r @ r.conj().T + np.einsum("ak,gk,bk->gab", a, w, a.conj())
        return np.maximum(np.linalg.eigvalsh(form), 0.0)

    x = sigma2[:, None, None] * spectrum(ps.blocks[j])[:, :, None]
    y = sigma2[:, None, None] * spectrum(ps.blocks[i])[:, None, :]
    values = np.log1p(x * (y / (1.0 + x + y))).sum(axis=(1, 2)) / math.log(2.0)
    return _curve(grid, 0, values, np.zeros(len(values)), 0.0)


def cij_curve(cfg: NetworkConfig, i: int, j: int, grid: SnrGrid,
              n_samples: int, seed: int) -> CapacityCurve:
    """Monte Carlo symbol-phase capacity between users i and j over the grid, in bits.

    Averages K_2 * [log2|s2*R_i + I| + log2|s2*R_j + I| - log2|s2*R_ij + I|]
    over channel draws, where R_i is the Gram of H_(i) = ``link([i])`` and R_ij
    that of ``link([i, j])``, [H_il; H_jl] over l outside {i, j}: the zero
    matrix when M = 2, whose term is left out.
    """
    if i == j:
        raise ValueError("need two distinct users")
    terms = [(cfg.k2, [i]), (cfg.k2, [j])] + ([(-cfg.k2, [i, j])] if cfg.m > 2 else [])
    return _curve(grid, n_samples, *_mc_mean("cij", cfg.antennas, terms, grid, n_samples, seed))


def ckey0_curve(cfg2u: TwoUserModifiedConfig, grid: SnrGrid,
                n_samples: int, seed: int) -> CapacityCurve:
    """Monte Carlo symbol-phase rate sum of the modified two-user scheme.

    Averages (K-N_1) * log2|s2*H21 H21^H + I| + (K-N_2) * log2|s2*H12 H12^H + I|
    over reciprocal channel draws.  H12 = H21^T has the singular values of
    H21, so both weights fold onto the one term of H21 = ``link([0])`` on
    the network (N_2, N_1), whose N_2 x N_1 block reads each draw row-major.
    """
    n1, n2, k = cfg2u.n1, cfg2u.n2, cfg2u.k_total
    return _curve(grid, n_samples, *_mc_mean("ckey0", (n2, n1), [(2 * k - n1 - n2, [0])],
                                             grid, n_samples, seed))


def cond_entropy_curve(m: int, n: int, k: int, grid: SnrGrid,
                       n_samples: int, seed: int) -> CapacityCurve:
    """Monte Carlo conditional entropy h(Y|H) for Y = sigma*H*X + W, in bits.

    Y is m x k, H is m x n with i.i.d. CN(0,1) entries, drawn as ``link([0])``
    on the network (m, n); the closed Gaussian form is
    m*k*log2(e*pi) + k*E{log2|s2*H H^H + I_m|}, whose high-SNR slope is
    min(m, n)*k.
    """
    if min(m, n, k) < 1:
        raise ValueError("dimensions must be >= 1")
    mean, stderr, slope_stderr = _mc_mean("gauss-entropy", (m, n), [(k, [0])], grid,
                                          n_samples, seed)
    return _curve(grid, n_samples, m * k * LOG2_E_PI + mean, stderr, slope_stderr)
