"""Channel sampling and numeric primitives.

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

from .model import antenna_counts

_MASK64 = (1 << 64) - 1

# Complex entries drawn per Monte Carlo block; bounds the scratch memory of a curve.
MC_BLOCK_ENTRIES = 2**15


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

    Each block holds ``MC_BLOCK_ENTRIES // dim`` samples, or one if ``dim``
    is larger, and the last block the rest.  Each is one (b, dim, 2) real
    draw from ``substream(seed, purpose)``, scaled in place, so sample s does
    not depend on ``n_samples`` or ``MC_BLOCK_ENTRIES``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = substream(seed, purpose)
    step = max(1, MC_BLOCK_ENTRIES // max(dim, 1))
    for start in range(0, n_samples, step):
        block = rng.standard_normal((min(step, n_samples - start), dim, 2))
        block *= np.sqrt(0.5)
        yield block.view(np.complex128)[..., 0]


# --------------------------------------------------------------------------
# channels
# --------------------------------------------------------------------------


EVE = "eve"  # Eve, among the receivers of ``ChannelRealization.link``


@dataclass(frozen=True)
class ChannelRealization:
    """One coherence period's reciprocal user channels plus Eve's channels.

    ``user_channels[(i, j)]`` is the N_i x N_j matrix from user j to user i,
    with H[(j, i)] stored as the exact transpose of H[(i, j)];
    ``eve_channels[j]`` is the N_E x N_j matrix from user j to Eve.
    """

    antennas: tuple[int, ...]
    user_channels: dict[tuple[int, int], np.ndarray]
    eve_channels: tuple[np.ndarray, ...]

    def link(self, rx, tx=None) -> np.ndarray:
        """Block matrix [H[(r, t)]], keeping leading batch axes: row blocks from
        ``rx``, where ``EVE`` is Eve, and column blocks from the users ``tx``,
        by default every user outside ``rx``.  The one place that lays out
        channel blocks, for every Gaussian factor.
        """
        if tx is None:
            tx = [u for u in range(len(self.antennas)) if u not in rx]
        if not rx or not tx or set(rx) & set(tx) or EVE in tx:
            raise ValueError("link needs receivers, and transmitting users outside them")
        return np.concatenate([np.concatenate(
            [self.eve_channels[t] if r == EVE else self.user_channels[(r, t)] for t in tx],
            axis=-1) for r in rx], axis=-2)


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


def user_realization(antennas, z: np.ndarray) -> ChannelRealization:
    """Realizations on the leading axes of ``z[..., D]``: the user channels of
    ``split_user_channels``, and an Eve without antennas."""
    antennas = tuple(antennas)
    no_eve = tuple(np.zeros(z.shape[:-1] + (0, n)) for n in antennas)
    return ChannelRealization(antennas, split_user_channels(antennas, z), no_eve)


def draw_channels(antennas, n_eve: int, rng: np.random.Generator,
                  batch: tuple[int, ...]) -> ChannelRealization:
    """Draw realizations with leading axes ``batch`` from an existing stream.

    All user channels are drawn first, then Eve's channels user by user;
    ``batch`` = () draws one realization.
    """
    antennas = antenna_counts(antennas)
    user = split_user_channels(antennas, sample_cn(rng, batch + (user_channel_dim(antennas),)))
    eve = tuple(sample_cn(rng, batch + (n_eve, n)) for n in antennas)
    return ChannelRealization(antennas, user, eve)


# --------------------------------------------------------------------------
# numeric primitives
# --------------------------------------------------------------------------


def _tall(a: np.ndarray) -> np.ndarray:
    """The stack ``a`` turned tall: a wide A as A^T, which has A's rank and singular values."""
    return np.swapaxes(a, -1, -2) if a.shape[-2] < a.shape[-1] else a


def _short_side_spectrum(a: np.ndarray) -> np.ndarray:
    """Squared singular values of each matrix of the (..., p, q) stack ``a``.

    Returns shape (min(p, q), ...), the eigenvalue axis first.  The short
    side is the columns of ``_tall(a)``: one gives its squared norm, and two,
    u and v, give the pair fixed by its sum and product, largest first: with
    a = |u|^2, b = |v|^2 and g = u^H v, l_max = (a + b)/2 + hypot((a - b)/2, |g|)
    and l_min = a |v - (g/a) u|^2 / l_max.  The Gram-Schmidt residual avoids
    the cancellation in ab - |g|^2, so sqrt(l_min) carries an absolute error
    of about 1e-16 sqrt(l_max), as an SVD's does; a zero column or matrix
    gives 0.  A short side of 3 solves the characteristic cubic of its Gram
    (``_cubic_spectrum``), and a longer one takes the eigenvalues of its
    Gram from one batched ``eigvalsh``, clamped at 0; both carry an absolute
    error of about 1e-16 tr(G).  The size switch: a pair of eigenvalues is
    fixed by its sum and product and a triple by a cubic, while the closed
    form of a quartic is neither short nor stable.
    """
    a = _tall(np.asarray(a))
    n = a.shape[-1]
    if n > 3:
        gram = np.conj(np.swapaxes(a, -1, -2)) @ a
        return np.moveaxis(np.maximum(np.linalg.eigvalsh(gram), 0.0), -1, 0)
    sq = np.einsum("...ij,...ij->j...", a.conj(), a).real
    if n < 2:
        return sq
    cols = [a[..., k] for k in range(n)]

    def inner(k, l):
        return np.einsum("...i,...i->...", cols[k].conj(), cols[l])

    if n == 3:
        return _cubic_spectrum(sq, inner(0, 1), inner(0, 2), inner(1, 2))
    (u, v), (alpha, beta) = cols, sq
    gamma = inner(0, 1)
    l_max = 0.5 * (alpha + beta) + np.hypot(0.5 * (alpha - beta), np.abs(gamma))
    coef = np.divide(gamma, alpha, out=np.zeros_like(gamma), where=alpha > 0)
    r = v - coef[..., None] * u
    det = alpha * np.einsum("...i,...i->...", r.conj(), r).real
    l_min = np.divide(det, l_max, out=np.zeros_like(det), where=l_max > 0)
    return np.stack([l_max, l_min])


def _cubic_spectrum(diag: np.ndarray, x, y, z) -> np.ndarray:
    """Eigenvalues of Hermitian 3 x 3 Grams G, the eigenvalue axis first.

    ``diag`` is (3, ...) and x = G_01, y = G_02, z = G_12.  The cubic is
    solved in trigonometric form (O. K. Smith, "Eigenvalues of a symmetric
    3 x 3 matrix", CACM 4(4), 1961) on G / tr(G), so no intermediate
    overflows, and a zero Gram gives exactly 0.  With q = tr/3, D = G - qI,
    p^2 = |D|_F^2 / 6 and r = det(D) / (2 p^3), the eigenvalues of D are
    2p cos((acos r + 2 pi k) / 3).  Only the extreme one that the sign of r
    picks, e, is well conditioned in r; the other two, c +- h with
    c = -e/2, are near a double root of the cubic wherever r is near +-1,
    and the cubic fixes them only to about 1e-8 tr(G).  So h comes from the
    matrix instead: M = D - eI maps into the plane where D - cI is +-h, so
    h = |(D - cI) M|_F / |M|_F.  Each eigenvalue then errs by about
    1e-16 tr(G), as ``eigvalsh``'s does, double and triple roots included.
    """
    t = diag.sum(axis=0)
    scale = np.where(t > 0, t, 1.0)
    d, x, y, z = diag / scale, x / scale, y / scale, z / scale
    q = d.sum(axis=0) / 3
    d -= q
    xx, yy, zz = (x.conj() * x).real, (y.conj() * y).real, (z.conj() * z).real
    p2 = (np.einsum("k...,k...->...", d, d) + 2 * (xx + yy + zz)) / 6
    p = np.sqrt(p2)
    det = d[0] * d[1] * d[2] + 2 * (x * z * y.conj()).real - d[0] * zz - d[1] * yy - d[2] * xx
    den = 2 * p2 * p
    r = np.clip(np.divide(det, den, out=np.zeros_like(det), where=den > 0), -1.0, 1.0)
    e = 2 * p * np.copysign(np.cos(np.arccos(np.abs(r)) / 3), r)
    u, w = d + 0.5 * e, d - e  # the diagonals of D - cI and of M
    q_diag = (u[0] * w[0] + xx + yy, u[1] * w[1] + xx + zz, u[2] * w[2] + yy + zz)
    q_off = (x * (u[0] + w[1]) + y * z.conj(), y * (u[0] + w[2]) + x * z,
             z * (u[1] + w[2]) + x.conj() * y)
    nq = sum(v * v for v in q_diag) + 2 * sum((v.conj() * v).real for v in q_off)
    nm = np.einsum("k...,k...->...", w, w) + 2 * (xx + yy + zz)
    h = np.sqrt(np.divide(nq, nm, out=np.zeros_like(nq), where=nm > 0))
    c = q - 0.5 * e
    return np.maximum(np.stack([q + e, c + h, c - h]), 0.0) * t


def log2det_grid(a: np.ndarray, sigma2) -> np.ndarray:
    """log2|I + s2 A A^H| for each s2 in ``sigma2`` and A in the (..., p, q) stack ``a``.

    Returns shape (len(sigma2), ...): sum_k log2(1 + s2 l_k) over the
    squared singular values l_k of ``_short_side_spectrum``, closed form on a
    short side of at most 3 and one batched ``eigvalsh`` of the Gram B^H B of
    the tall B = ``_tall(a)`` on a longer one.  The sum takes one eigenvalue
    at a time, so its scratch is two arrays of (len(sigma2), ...) whatever
    the short side.  Eigenvalues from a Gram carry an absolute error of about
    1e-16 tr(G), so a factor whose short side exceeds 2 must have full rank
    on it, as every caller's has: the callers are the Monte Carlo curves,
    whose factors are Gaussian draws.
    """
    lam = _short_side_spectrum(a)
    s2 = np.asarray(sigma2, dtype=float)
    s2 = s2.reshape(s2.shape + (1,) * (lam.ndim - 1))
    shape = np.broadcast_shapes(s2.shape, lam.shape[1:])
    total, term = np.zeros(shape), np.empty(shape)
    for l_k in lam:
        total += np.log1p(np.multiply(s2, l_k, out=term), out=term)
    total /= math.log(2.0)
    return total


# Full-rank certificate of ``numerical_rank``: the shift, as a share of tr(G),
# and the range every trace must lie in.
_CERT_SHIFT = 2.0**-20
_CERT_TRACE = (2.0**-500, 2.0**1000)


def _cholesky_completes(gram: np.ndarray) -> np.ndarray:
    """Whether each Cholesky of the (B, n, n) stack ``gram`` completes: one
    batched call, and on a failure the same for each half of the stack."""
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if len(gram) == 1:
            return np.zeros(1, dtype=bool)
        half = len(gram) // 2
        return np.concatenate([_cholesky_completes(gram[:half]), _cholesky_completes(gram[half:])])
    return np.ones(len(gram), dtype=bool)


def numerical_rank(m: np.ndarray) -> np.integer | np.ndarray:
    """Rank of each matrix of the (..., p, q) stack ``m``.

    The rule counts singular values above ``max(p, q) * 1e-12 * s_max``, a
    scale-invariant threshold adequate for the moderately sized matrices
    used here; an empty or all-zero matrix has rank 0.  A single matrix
    gives a numpy integer, a stack an integer array of its leading shape.

    One path ranks every input.  It is cast to float64 or complex128, so no
    integer Gram wraps and the unit roundoff is u = 2^-53; ``_tall`` turns
    each wide matrix tall, and the batch axes are flattened, so each A is
    p x n, p >= n, in one (B, p, n) stack.  Most matrices ranked here have
    full rank n, so each first tries a certificate of that: with G = A^H A,
    one batched matmul, tr(G) must lie in [2^-500, 2^1000] and the Cholesky
    of G - 2^-20 tr(G) I must complete, one batched call split in halves
    only where it fails.  Every matrix it rejects, every rank-deficient one
    among them, takes the rule, with its long side p in the threshold, from
    one SVD of the rejected tall matrices alone.

    The certificate is sufficient, never necessary, so every rank is the
    rule's.  In the trace range no entry of G overflows, and the products
    that round as subnormals lose at most 2^-1074 each, below 2^-540 tr(G)
    in all.  Forming G errs by at most about p u tr(G), and a Cholesky that
    completes is exact for a matrix within about n^2 u tr(G) of the shifted
    one (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).
    While both stay below 2^-21 tr(G), which needs p + n^2 below about
    2^31, success gives s_min^2 >= 2^-21 tr(G) >= 2^-21 s_max^2, so
    s_min / s_max >= 2^-10.5, about 7e-4, above the rule's threshold for
    every p below 7e8.  Every matrix the CLI ranks is far smaller:
    ``cli.MAX_VERIFY_ENTRIES`` caps each at 2^22 entries.
    """
    a = np.asarray(m)
    a = _tall(a.astype(np.result_type(a, np.float64), copy=False))
    *batch, p, n = a.shape
    a = a.reshape((math.prod(batch), p, n))
    with np.errstate(all="ignore"):  # out-of-range traces are refused below
        gram = np.conj(np.swapaxes(a, -1, -2)) @ a
        trace = np.einsum("...ii->...", gram).real
        np.einsum("...ii->...i", gram)[...] -= _CERT_SHIFT * trace[:, None]
    lo, hi = _CERT_TRACE
    certified = (trace >= lo) & (trace <= hi)
    if certified.any():
        certified[certified] = _cholesky_completes(gram[certified])
    ranks = np.full(len(a), n)
    if not certified.all():
        s = np.linalg.svd(a[~certified], compute_uv=False)
        ranks[~certified] = np.count_nonzero(s > p * 1e-12 * s[:, :1], axis=-1)
    return ranks.reshape(batch)[()]
