"""Collaborative pilot construction for the three ANECE variants.

All-user pilots are drawn i.i.d. complex Gaussian and rank-checked: random
matrices meet the required rank pattern with probability one, and only the
rank pattern (not any finite-SNR optimality) drives the DoF results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import NetworkConfig, TwoUserModifiedConfig
from .numkernel import numerical_rank, sample_cn, substream

_MAX_BUILD_ATTEMPTS = 8


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

    @property
    def k1(self) -> int:
        return self.blocks[0].shape[1]

    def without(self, i: int) -> np.ndarray:
        """The stack with block i removed."""
        return np.vstack([b for l, b in enumerate(self.blocks) if l != i])


@dataclass(frozen=True)
class ModifiedPilotPair:
    """Square nonsingular pilots of the modified two-user scheme."""

    p1: np.ndarray  # N_1 x N_1
    p2: np.ndarray  # N_2 x N_2


def validate_pilots(ps: PilotSet) -> list[str]:
    """Check the three pilot rank conditions; [] when all hold.

    Requires rank(P_i) = N_i for every block, rank of the stack without
    block i equal to N_T - N_i, and rank of the full stack equal to
    N_T - N_min, which also requires K_1 >= N_T - N_min.
    """
    antennas = ps.antennas
    n_total = sum(antennas)
    violations = []
    for i, block in enumerate(ps.blocks):
        if numerical_rank(block) != antennas[i]:
            violations.append(f"rank(P_{i + 1}) < N_{i + 1}")
    for i, n in enumerate(antennas):
        if numerical_rank(ps.without(i)) != n_total - n:
            violations.append(f"rank of stack without user {i + 1} != {n_total - n}")
    want = n_total - min(antennas)
    if numerical_rank(ps.stacked) != want:
        violations.append(f"rank(P) != N_T-N_min ({want})")
    return violations


def build_pilots(cfg: NetworkConfig, seed: int) -> PilotSet:
    """Random pilots meeting all rank conditions, deterministic per seed.

    Draws an N_T x (N_T - N_min) Gaussian core; any further K_1 columns are
    random combinations of the core so the stacked rank stays N_T - N_min.
    Retries with a perturbed substream on the measure-zero event that a
    draw fails the rank audit.
    """
    rank_target = cfg.n_total - cfg.n_min
    if cfg.k1 < rank_target:
        raise ValueError(f"K_1 < N_T-N_min (need >= {rank_target})")
    offsets = np.cumsum((0,) + tuple(cfg.antennas))
    for attempt in range(_MAX_BUILD_ATTEMPTS):
        rng = substream(seed, "pilots", attempt)
        core = sample_cn(rng, (cfg.n_total, rank_target))
        stacked = np.hstack([core, core @ sample_cn(rng, (rank_target, cfg.k1 - rank_target))])
        ps = PilotSet(tuple(stacked[offsets[i]:offsets[i + 1]] for i in range(cfg.m)))
        if not validate_pilots(ps):
            return ps
    raise RuntimeError(f"pilot construction failed rank audit after {_MAX_BUILD_ATTEMPTS} attempts")


def build_pairwise_matrix(blocks) -> np.ndarray:
    """The (..., N_T, P_0 * K_1) stacked pilot of all P_0 = M(M-1)/2 pair-wise sessions.

    ``blocks`` holds one N_i x K_1 pilot per user.  Session p takes columns
    p * K_1 up to (p + 1) * K_1, where its two participants' blocks fill their
    row blocks and zeros the rest; the pairs (i, j), i < j, come in
    lexicographic order.  With M >= 3 and full-row-rank blocks the result has
    full row rank N_T, which is what lets Eve resolve her whole channel under
    the pair-wise schedule.  Rejects M = 2, where the schedule cannot reach
    full row rank.  Blocks may share leading batch axes; the matrices are
    then stacked along them, and a block or matrix of any draw that fails
    its rank audit rejects the batch.
    """
    blocks = [np.asarray(b) for b in blocks]
    if len(blocks) < 3:
        raise ValueError("pair-wise pilot schedule needs M >= 3")
    batch, k1 = blocks[0].shape[:-2], blocks[0].shape[-1]
    antennas = [b.shape[-2] for b in blocks]
    for i, b in enumerate(blocks):
        if b.shape != batch + (antennas[i], k1):
            raise ValueError(f"block {i + 1} must have batch shape {batch} and K_1 = {k1}")
        if np.any(numerical_rank(b) != antennas[i]):
            raise ValueError(f"block {i + 1} must have full row rank {antennas[i]}")

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
    """Nonsingular N_1 x N_1 and N_2 x N_2 pilots, deterministic per seed."""
    for attempt in range(_MAX_BUILD_ATTEMPTS):
        rng = substream(seed, "pilots-square", attempt)
        p1 = sample_cn(rng, (cfg2u.n1, cfg2u.n1))
        p2 = sample_cn(rng, (cfg2u.n2, cfg2u.n2))
        if numerical_rank(p1) == cfg2u.n1 and numerical_rank(p2) == cfg2u.n2:
            return ModifiedPilotPair(p1, p2)
    raise RuntimeError(f"square pilot construction failed after {_MAX_BUILD_ATTEMPTS} attempts")


# --------------------------------------------------------------------------
# plain-text matrix exchange format
# --------------------------------------------------------------------------


def write_matrix_text(path, m: np.ndarray) -> None:
    """Write a complex matrix: header "rows cols", then row-major re/im pairs,
    formatted 4,096 entries at a time so that no string holds the matrix."""
    a = np.ascontiguousarray(np.atleast_2d(np.asarray(m, dtype=complex)))
    step = 2 * 4096  # re/im floats per chunk
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a.view(float):
            for start in range(0, len(row), step):
                chunk = row[start:start + step].tolist()
                text = " ".join(["%.17g"] * len(chunk)) % tuple(chunk)
                fh.write(f" {text}" if start else text)
            fh.write("\n")
