"""Channel sampling, per-phase signal synthesis, and numeric primitives.

Randomness convention: every sampling entry point takes an integer seed and
derives an independent substream from ``(seed, purpose, index...)``, so
adding a new consumer never perturbs existing draws.  A Monte Carlo curve
reads its one ``(seed, purpose)`` stream in sample order and evaluates every
SNR grid point from those draws.  Complex Gaussian CN(0,1) means unit
*total* variance (1/2 per real component).
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# Samples per Monte Carlo block; bounds the scratch memory of a curve.
MC_BLOCK = 256


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Independent generator keyed by (seed, path); same inputs, same stream."""
    words = [int(seed) & _MASK64]
    for part in path:
        if isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")))
        else:
            words.append(int(part) & _MASK64)
    return np.random.default_rng(words)


def sample_cn(rng: np.random.Generator, shape) -> np.ndarray:
    """i.i.d. CN(0,1) matrix: unit total variance per complex entry."""
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def cn_blocks(seed: int, purpose: str, n_samples: int, dim: int):
    """Yield ``n_samples`` CN(0,1) vectors of length ``dim`` as (b, dim) blocks.

    Each block is one (b, dim, 2) real draw from ``substream(seed, purpose)``,
    so sample s does not depend on ``n_samples`` or ``MC_BLOCK``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = substream(seed, purpose)
    for start in range(0, n_samples, MC_BLOCK):
        b = min(MC_BLOCK, n_samples - start)
        yield np.sqrt(0.5) * rng.standard_normal((b, dim, 2)).view(np.complex128)[..., 0]


# --------------------------------------------------------------------------
# channels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelRealization:
    """One coherence period's reciprocal user channels plus Eve's channels.

    ``user_channels[(i, j)]`` is the N_i x N_j matrix from user j to user i,
    with H[(j, i)] stored as the exact transpose of H[(i, j)].
    """

    antennas: tuple[int, ...]
    n_eve: int
    user_channels: dict[tuple[int, int], np.ndarray]
    eve_channels: tuple[np.ndarray, ...]

    @property
    def eve_stacked(self) -> np.ndarray:
        """N_E x N_T horizontal stack of Eve's per-user channels."""
        return np.concatenate(self.eve_channels, axis=-1)

    def channel_to(self, i: int) -> np.ndarray:
        """N_i x (N_T - N_i) stack of H[(i, j)] over j != i, along the last axis."""
        users = range(len(self.antennas))
        return np.concatenate([self.user_channels[(i, j)] for j in users if j != i], axis=-1)


def user_channel_dim(antennas) -> int:
    """Number of independent user-channel entries: sum of N_a*N_b over a < b."""
    return (sum(antennas) ** 2 - sum(n * n for n in antennas)) // 2


def split_user_channels(antennas, z: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Reciprocal user channels, H[(b, a)] = H[(a, b)].T, from entries ``z[..., D]``.

    Pairs a < b take consecutive row-major slices of the last axis, with
    D = ``user_channel_dim(antennas)``; leading axes are batch axes.
    """
    channels, off = {}, 0
    for a, b in itertools.combinations(range(len(antennas)), 2):
        mat = z[..., off:off + antennas[a] * antennas[b]]
        channels[(a, b)] = mat.reshape(z.shape[:-1] + (antennas[a], antennas[b]))
        channels[(b, a)] = np.swapaxes(channels[(a, b)], -1, -2)
        off += antennas[a] * antennas[b]
    return channels


def channel_basis(antennas) -> ChannelRealization:
    """D realizations on a leading axis, the e-th with only user-channel entry e at 1.

    Eve has no antennas.  Through a map linear in the user channels, such as
    noiseless signal synthesis, it gives that map's Jacobian.
    """
    dim = user_channel_dim(antennas)
    no_eve = tuple(np.zeros((dim, 0, n)) for n in antennas)
    return ChannelRealization(tuple(antennas), 0, split_user_channels(antennas, np.eye(dim)),
                              no_eve)


def vec_batch(x: np.ndarray) -> np.ndarray:
    """Column-major vec of each matrix of a (B, r, c) stack, as a (B, r*c) array."""
    return np.swapaxes(x, -1, -2).reshape(len(x), -1)


def draw_channels(antennas, n_eve: int, rng: np.random.Generator,
                  batch: tuple[int, ...]) -> ChannelRealization:
    """Draw realizations with leading axes ``batch`` from an existing stream.

    All user channels are drawn first, then Eve's channels user by user;
    ``batch`` = () draws one realization.
    """
    antennas = tuple(int(n) for n in antennas)
    user = split_user_channels(antennas, sample_cn(rng, batch + (user_channel_dim(antennas),)))
    eve = tuple(sample_cn(rng, batch + (n_eve, n)) for n in antennas)
    return ChannelRealization(antennas, int(n_eve), user, eve)


# --------------------------------------------------------------------------
# signal synthesis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Phase1Signals:
    user_rx: tuple[np.ndarray, ...]  # Y_i, N_i x K_1
    eve_rx: np.ndarray  # N_E x K_1


@dataclass(frozen=True)
class Phase2Signals:
    symbols: tuple[np.ndarray, ...]  # X_i, N_i x K_2
    user_rx: tuple[np.ndarray, ...]  # Y_i, N_i x K_2
    eve_rx: np.ndarray  # N_E x K_2


@dataclass(frozen=True)
class ModifiedSessionSignals:
    """Receptions of one modified two-user session with unequal pilot lengths.

    Node 1 hears node 2's pilot for N_2 slots then symbols for K - N_2 slots;
    node 2 symmetrically with N_1.  ``eve_rx_full`` covers all K slots.
    """

    y1_p1: np.ndarray  # N_1 x N_2
    y2_p1: np.ndarray  # N_2 x N_1
    y1_p2: np.ndarray  # N_1 x (K - N_2)
    y2_p2: np.ndarray  # N_2 x (K - N_1)
    eve_rx_full: np.ndarray  # N_E x K


def synth_phase1(ch: ChannelRealization, ps, sigma: float, seed: int,
                 noise_scale: float = 1.0) -> Phase1Signals:
    """Pilot-phase receptions: Y_i = sigma*H_i*P_(i) + W_i, Y_E = sigma*H_E*P + W_E.

    Channels may carry a leading batch axis, as ``channel_basis`` gives them.
    At ``noise_scale`` 0 no noise generator is built and no noise is drawn.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    m = len(ch.antennas)
    if len(ps.blocks) != m:
        raise ValueError("pilot block count does not match channel realization")
    rng = substream(seed, "phase1-noise") if noise_scale else None
    user_rx = []
    for i in range(m):
        p_without_i = np.vstack([ps.blocks[l] for l in range(m) if l != i])
        w = noise_scale * sample_cn(rng, (ch.antennas[i], ps.k1)) if rng else 0.0
        user_rx.append(sigma * ch.channel_to(i) @ p_without_i + w)
    w_eve = noise_scale * sample_cn(rng, (ch.n_eve, ps.k1)) if rng else 0.0
    eve_rx = sigma * ch.eve_stacked @ ps.stacked + w_eve
    return Phase1Signals(tuple(user_rx), eve_rx)


def synth_phase2(ch: ChannelRealization, cfg, sigma: float, seed: int,
                 noise_scale: float = 1.0) -> Phase2Signals:
    """Symbol-phase receptions: Y_i = sigma*sum_{j!=i} H_ij X_j + W_i."""
    if cfg.k2 < 1:
        raise ValueError("phase 2 needs K_2 >= 1")
    if tuple(cfg.antennas) != ch.antennas:
        raise ValueError("config antennas do not match channel realization")
    m = len(ch.antennas)
    rng = substream(seed, "phase2")
    symbols = tuple(sample_cn(rng, (n, cfg.k2)) for n in ch.antennas)
    user_rx = []
    for i in range(m):
        y = noise_scale * sample_cn(rng, (ch.antennas[i], cfg.k2))
        for j in range(m):
            if j != i:
                y = y + sigma * ch.user_channels[(i, j)] @ symbols[j]
        user_rx.append(y)
    w_eve = noise_scale * sample_cn(rng, (ch.n_eve, cfg.k2))
    eve_rx = sigma * ch.eve_stacked @ np.vstack(symbols) + w_eve
    return Phase2Signals(symbols, tuple(user_rx), eve_rx)


def synth_modified_session(cfg2u, pp, ch: ChannelRealization, sigma: float, seed: int,
                           noise_scale: float = 1.0) -> ModifiedSessionSignals:
    """One full modified two-user session (both phases, both nodes, Eve).

    Eve's K-slot reception is sigma * H_E @ [[P1, X11, X12], [P21, P22, X2]]
    plus noise, where P21/P22 split node 2's pilot at column N_1 and X11/X12
    split node 1's symbols at column N_2 - N_1.
    """
    n1, n2, k = cfg2u.n1, cfg2u.n2, cfg2u.k_total
    if ch.antennas != (n1, n2):
        raise ValueError("channel realization must be built for (N_1, N_2)")
    if pp.p1.shape != (n1, n1) or pp.p2.shape != (n2, n2):
        raise ValueError("pilot shapes do not match config")
    h12 = ch.user_channels[(0, 1)]
    h21 = ch.user_channels[(1, 0)]
    rng = substream(seed, "modified-session")
    x1 = sample_cn(rng, (n1, k - n1))
    x2 = sample_cn(rng, (n2, k - n2))

    y1_p1 = sigma * h12 @ pp.p2 + noise_scale * sample_cn(rng, (n1, n2))
    y2_p1 = sigma * h21 @ pp.p1 + noise_scale * sample_cn(rng, (n2, n1))
    y1_p2 = sigma * h12 @ x2 + noise_scale * sample_cn(rng, (n1, k - n2))
    y2_p2 = sigma * h21 @ x1 + noise_scale * sample_cn(rng, (n2, k - n1))

    x11, x12 = x1[:, : n2 - n1], x1[:, n2 - n1:]
    p21, p22 = pp.p2[:, :n1], pp.p2[:, n1:]
    tx = np.block([[pp.p1, x11, x12], [p21, p22, x2]])
    eve_rx_full = sigma * ch.eve_stacked @ tx + noise_scale * sample_cn(rng, (ch.n_eve, k))
    return ModifiedSessionSignals(y1_p1, y2_p1, y1_p2, y2_p2, eve_rx_full)


# --------------------------------------------------------------------------
# numeric primitives
# --------------------------------------------------------------------------


def _short_side_spectrum(a: np.ndarray) -> np.ndarray:
    """Squared singular values of each matrix of the (..., p, q) stack ``a``.

    Returns shape (..., min(p, q)).  A short side of 1 gives the squared
    column norm.  A short side of 2, with columns u and v, gives the pair
    fixed by its sum and product, largest first: with a = |u|^2, b = |v|^2
    and g = u^H v, l_max = (a + b)/2 + hypot((a - b)/2, |g|) and
    l_min = a |v - (g/a) u|^2 / l_max.  The Gram-Schmidt residual avoids the
    cancellation in ab - |g|^2, so sqrt(l_min) carries an absolute error of
    about 1e-16 sqrt(l_max), as an SVD's does; a zero column or matrix gives
    0.  A longer short side takes the eigenvalues of its Gram from one
    batched ``eigvalsh``, clamped at 0, with an absolute error of about
    1e-16 l_max.  The size switch is the maths': a pair of eigenvalues is
    fixed by its sum and product, three are not.
    """
    a = np.asarray(a)
    if a.shape[-2] < a.shape[-1]:
        a = np.swapaxes(a, -1, -2)  # A^T has the singular values of A
    if a.shape[-1] > 2:
        return np.maximum(np.linalg.eigvalsh(np.conj(np.swapaxes(a, -1, -2)) @ a), 0.0)
    sq = np.einsum("...ij,...ij->...j", a.conj(), a).real
    if a.shape[-1] < 2:
        return sq
    u, v = a[..., 0], a[..., 1]
    alpha, beta = sq[..., 0], sq[..., 1]
    gamma = np.einsum("...i,...i->...", u.conj(), v)
    l_max = 0.5 * (alpha + beta) + np.hypot(0.5 * (alpha - beta), np.abs(gamma))
    coef = np.divide(gamma, alpha, out=np.zeros_like(gamma), where=alpha > 0)
    r = v - coef[..., None] * u
    det = alpha * np.einsum("...i,...i->...", r.conj(), r).real
    l_min = np.divide(det, l_max, out=np.zeros_like(det), where=l_max > 0)
    return np.stack([l_max, l_min], axis=-1)


def log2det_grid(a: np.ndarray, sigma2) -> np.ndarray:
    """log2|I + s2 A A^H| for each s2 in ``sigma2`` and A in the (..., p, q) stack ``a``.

    Returns shape (len(sigma2), ...): sum_k log2(1 + s2 l_k) over the
    squared singular values l_k of ``_short_side_spectrum``, closed form on a
    short side of 1 or 2 and one batched ``eigvalsh`` of the short side's Gram
    (A^H A for a tall A, A A^H for a wide one) on a longer one.  Those
    eigenvalues carry an absolute error of about 1e-16 l_max, so a factor
    whose short side exceeds 2 must have full rank on it, as every caller's
    has: the Monte Carlo factors are Gaussian draws, each P_(i)^T is audited
    by ``build_pilots``, and the ``eig:joint`` row ranks the joint factor
    against its column count.
    """
    lam = _short_side_spectrum(a)
    s2 = np.asarray(sigma2, dtype=float)
    return np.log1p(s2.reshape(s2.shape + (1,) * lam.ndim) * lam).sum(axis=-1) / math.log(2.0)


# Full-rank certificate of ``numerical_rank``: the shift, as a share of tr(G),
# and the range every trace must lie in.
_CERT_SHIFT = 2.0**-20
_CERT_TRACE = (2.0**-500, 2.0**1000)


def _full_rank_certified(a: np.ndarray) -> bool:
    """Whether ``numerical_rank``'s certificate proves full rank for the whole stack ``a``."""
    a = np.asarray(a, dtype=np.result_type(a, 1.0))  # an integer Gram could wrap
    p, q = a.shape[-2:]
    with np.errstate(all="ignore"):  # out-of-range traces are refused below
        if p >= q:
            gram = np.swapaxes(np.conj(a), -1, -2) @ a
        else:
            gram = a @ np.swapaxes(np.conj(a), -1, -2)
        diag = np.einsum("...ii->...i", gram)  # a writable view
        trace = diag.real.sum(axis=-1)
    lo, hi = _CERT_TRACE
    if not np.all((trace >= lo) & (trace <= hi)):
        return False
    diag -= _CERT_SHIFT * trace[..., None]
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def numerical_rank(m: np.ndarray) -> np.integer | np.ndarray:
    """Rank of each matrix of the (..., p, q) stack ``m``.

    The rule counts singular values above ``max(p, q) * 1e-12 * s_max``, a
    scale-invariant threshold adequate for the moderately sized matrices
    used here; an empty or all-zero matrix has rank 0.  A single matrix
    gives a numpy integer, a stack an integer array of its leading shape.

    Most stacks ranked here have full rank n = min(p, q), so the whole stack
    first tries a certificate of that: with G the short-side Gram of each
    matrix (A^H A for a tall A, A A^H for a wide one, one batched matmul),
    every tr(G) must lie in [2^-500, 2^1000] and one batched Cholesky of
    G - 2^-20 tr(G) I must complete.  Any other stack, and so every
    rank-deficient one, takes the rule from one stacked SVD.

    The certificate is sufficient, never necessary, so every rank is the
    rule's.  In the trace range no entry of G overflows, and the products
    that round as subnormals lose at most 2^-1074 each, below 2^-540 tr(G)
    in all.  With unit roundoff u = 2^-53, forming G errs by at most about
    max(p, q) u tr(G), and a Cholesky that completes is exact for a matrix
    within about n^2 u tr(G) of the shifted one (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10).  While both stay below
    2^-21 tr(G), which needs max(p, q) + n^2 below about 2^31, success gives s_min^2 >= 2^-21 tr(G) >= 2^-21 s_max^2, so
    s_min / s_max >= 2^-10.5, about 7e-4, above the rule's threshold for
    every max(p, q) below 7e8.  Every matrix the CLI ranks is far smaller:
    ``cli.MAX_VERIFY_ENTRIES`` caps each at 2^22 entries.
    """
    a = np.asarray(m)
    if _full_rank_certified(a):
        return np.full(a.shape[:-2], min(a.shape[-2:]))[()]
    s = np.linalg.svd(a, compute_uv=False)
    return np.count_nonzero(s > max(a.shape[-2:]) * 1e-12 * s[..., :1], axis=-1)


def reciprocal_channel_covariance(antennas, i: int, j: int) -> np.ndarray:
    """Exact covariance of the stacked receive-channel vectors of users i, j.

    The vector for user i is vec(H_(i)), stacking vec(H[(i, l)]) over
    l != i; each coordinate is one unit-variance channel entry, and
    reciprocity makes exactly N_i * N_j coordinates of the two vectors
    identical (the entries of H[(i, j)]), so the covariance is unit-diagonal
    with a 0/1 cross block and rank deficiency N_i * N_j.
    """
    m = len(antennas)
    if i == j or not (0 <= i < m and 0 <= j < m):
        raise ValueError("need two distinct user indices")
    basis = channel_basis(tuple(int(n) for n in antennas))
    jac = np.concatenate([vec_batch(basis.channel_to(u)) for u in (i, j)], axis=1)
    return jac.T @ jac
