"""Collaborative pilot construction for the three ANECE variants.

Only the rank pattern of the pilots drives the DoF results, so the pilots are
designed, not drawn.  The all-user stack is G Q: G is Vandermonde on the N_T-th
roots of unity, with each user's roots spread round the circle, and Q has
orthonormal rows.  Any N_T - N_min rows of G are independent in exact
arithmetic, and the spread keeps each P_(i), which has the singular values of
its rows of G, well conditioned.  Q moves no singular value, so ``verify`` reads
every pilot rank and the pilot-phase SKC from G's row blocks (``pilot_basis``)
and only the ``pilots`` command draws Q.  The modified scheme's square pilots are
unitary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, TwoUserModifiedConfig
from .numkernel import numerical_rank, sample_cn, substream


@dataclass(frozen=True)
class PilotSet:
    """Per-user pilot blocks P_i (N_i x K_1) of one all-user session."""

    blocks: tuple[np.ndarray, ...]

    @property
    def stacked(self) -> np.ndarray:
        """The N_T x K_1 vertical stack of all blocks."""
        return np.vstack(self.blocks)

    @property
    def antennas(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def without(self, *users: int) -> np.ndarray:
        """The stack with the blocks of ``users`` removed, (0, K_1) when none is left."""
        kept = [b for l, b in enumerate(self.blocks) if l not in users]
        return np.vstack(kept) if kept else self.blocks[0][:0]

    @functools.cached_property
    def complement_ranks(self) -> tuple[int, ...]:
        """rank(P_(i)) of each stack without block i, measured once per pilot set."""
        return tuple(numerical_rank(self.without(i)) for i in range(len(self.blocks)))


@dataclass(frozen=True)
class ModifiedPilotPair:
    """Square nonsingular pilots of the modified two-user scheme."""

    p1: np.ndarray  # N_1 x N_1
    p2: np.ndarray  # N_2 x N_2


def validate_pilots(ps: PilotSet) -> list[str]:
    """Check the pilot rank conditions; [] when all hold.

    Requires rank N_T - N_i of each stack P_(i) without block i, and rank
    N_T - N_min of the full stack, which needs K_1 >= N_T - N_min.  Each P_i
    is a row subset of P_(l), l != i (for two users it is P_(l)), so rank(P_i)
    = N_i follows, under ``numerical_rank``'s rule too: a row subset has
    sigma_min no smaller, sigma_max no larger and, with the same long side
    K_1 >= N_T - N_l wherever P_(l) has full rank, a threshold no larger.
    """
    antennas = ps.antennas
    n_total = sum(antennas)
    violations = []
    for i, (n, rank) in enumerate(zip(antennas, ps.complement_ranks)):
        if rank != n_total - n:
            violations.append(f"rank of stack without user {i + 1} != {n_total - n}")
    want = n_total - min(antennas)
    if numerical_rank(ps.stacked) != want:
        violations.append(f"rank(P) != N_T-N_min ({want})")
    return violations


def _audited(stacked: np.ndarray, antennas) -> PilotSet:
    """The row blocks of ``stacked``, one per user; a RuntimeError if ``validate_pilots`` fails."""
    offsets = np.cumsum((0,) + tuple(antennas))
    ps = PilotSet(tuple(stacked[offsets[i]:offsets[i + 1]] for i in range(len(antennas))))
    violations = validate_pilots(ps)
    if violations:
        raise RuntimeError("designed pilots failed the rank audit: " + "; ".join(violations))
    return ps


def _basis(antennas) -> np.ndarray:
    """G, N_T x r with r = N_T - N_min: rows (1, w^k, ..., w^(k(r-1))) for the N_T-th
    roots of unity w^k, dealt in the order of the key ((a + 1/2) / N_i, i) of antenna
    a of user i, which is round-robin when all N_i are equal."""
    n_total = sum(antennas)
    # a stable sort breaks ties by i
    spread = np.hstack([(np.arange(n) + 0.5) / n for n in antennas])
    nodes = np.exp(2j * np.pi * np.argsort(np.argsort(spread, kind="stable")) / n_total)
    return np.vander(nodes, n_total - min(antennas), increasing=True)


def pilot_basis(antennas) -> PilotSet:
    """The row blocks G_i of the pilot basis G, audited by ``validate_pilots``.

    Every stack ``build_pilots`` returns is G Q with conj(Q) Q^T = I, so each
    P_(S) = G_(S) Q has the singular values of G_(S): every pilot rank, and the
    pilot-phase SKC (``capacity.phase1_curve``), is a function of the antenna
    vector alone, not of K_1 or the seed.
    """
    return _audited(_basis(antennas), antennas)


def build_pilots(cfg: NetworkConfig, seed: int) -> PilotSet:
    """The designed pilots G Q, deterministic per seed; ``validate_pilots`` audits them.

    G is ``pilot_basis``' N_T x r matrix, r = N_T - N_min, and Q (r x K_1) is
    the .T of the reduced QR's Q factor of a K_1 x r Gaussian draw.
    """
    rank_target = cfg.n_total - cfg.n_min
    if cfg.k1 < rank_target:
        raise ValueError(f"K_1 < N_T-N_min (need >= {rank_target})")
    q = np.linalg.qr(sample_cn(substream(seed, "pilots"), (cfg.k1, rank_target)))[0]
    return _audited(_basis(cfg.antennas) @ q.T, cfg.antennas)


def build_pairwise_matrix(blocks) -> np.ndarray:
    """The (..., N_T, P_0 * K_1) stacked pilot of all P_0 = M(M-1)/2 pair-wise sessions.

    ``blocks`` holds one N_i x K_1 pilot per user.  Session p takes columns
    p * K_1 up to (p + 1) * K_1, where its two participants' blocks fill their
    row blocks and zeros the rest; the pairs (i, j), i < j, come in
    lexicographic order.  With M >= 3 and full-row-rank blocks the result has
    full row rank N_T, which is what lets Eve resolve her whole channel under
    the pair-wise schedule.  M = 2, where it cannot, and K_1 < N_i raise a
    ValueError.  Blocks may share leading batch axes; the matrices are then
    stacked along them, and a RuntimeError rejects the batch when any draw's
    matrix fails the full-row-rank audit.  The audit covers the blocks: row
    block i holds P_i in M - 1 sessions, so sqrt(M - 1) times its singular
    values, and a row subset has sigma_min no smaller, sigma_max no larger
    and, with K_1 <= P_0 * K_1 columns, a threshold no larger.
    """
    blocks = [np.asarray(b) for b in blocks]
    if len(blocks) < 3:
        raise ValueError("pair-wise pilot schedule needs M >= 3")
    batch, k1 = blocks[0].shape[:-2], blocks[0].shape[-1]
    antennas = [b.shape[-2] for b in blocks]
    for i, b in enumerate(blocks):
        if b.shape != batch + (antennas[i], k1):
            raise ValueError(f"block {i + 1} must have batch shape {batch} and K_1 = {k1}")
        if k1 < antennas[i]:
            raise ValueError(f"block {i + 1} needs K_1 >= {antennas[i]} for full row rank")

    pairs = [(i, j) for i in range(len(blocks)) for j in range(i + 1, len(blocks))]
    offsets = np.cumsum([0] + antennas)
    matrix = np.zeros(batch + (offsets[-1], len(pairs) * k1), dtype=complex)
    for p, (i, j) in enumerate(pairs):
        col = p * k1
        matrix[..., offsets[i]:offsets[i + 1], col:col + k1] = blocks[i]
        matrix[..., offsets[j]:offsets[j + 1], col:col + k1] = blocks[j]
    if np.any(numerical_rank(matrix) != offsets[-1]):
        raise RuntimeError("pair-wise pilot matrix failed the full-row-rank audit")
    return matrix


def build_square_pilots(cfg2u: TwoUserModifiedConfig, seed: int) -> ModifiedPilotPair:
    """Unitary N_1 x N_1 and N_2 x N_2 pilots, deterministic per seed: the Q factors of
    two draws' QR, products of Householder reflections and unitary whatever the draw."""
    rng = substream(seed, "pilots-square")
    p1, p2 = (np.linalg.qr(sample_cn(rng, (n, n)))[0] for n in (cfg2u.n1, cfg2u.n2))
    return ModifiedPilotPair(p1, p2)


# --------------------------------------------------------------------------
# plain-text matrix exchange format
# --------------------------------------------------------------------------


def write_matrix_text(fh, *matrices: np.ndarray) -> None:
    """Write complex matrices to the open text file ``fh``, one after another: each
    is a header "rows cols", then its row-major re/im pairs, formatted 4,096
    entries at a time so that no string holds a matrix."""
    step = 2 * 4096  # re/im floats per chunk
    for m in matrices:
        a = np.ascontiguousarray(np.atleast_2d(np.asarray(m, dtype=complex)))
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a.view(float):
            for start in range(0, len(row), step):
                chunk = row[start:start + step].tolist()
                text = " ".join(["%.17g"] * len(chunk)) % tuple(chunk)
                fh.write(f" {text}" if start else text)
            fh.write("\n")
