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
class PairwisePilotMatrix:
    """Stacked pilot matrix of all pair-wise sessions in one period.

    Session p carries the pilots of its two participants in their row
    blocks and zeros elsewhere; ``session_index[p]`` gives the pair.
    """

    matrix: np.ndarray  # (..., N_T, P_0 * k1)
    session_index: dict[int, tuple[int, int]]


@dataclass(frozen=True)
class ModifiedPilotPair:
    """Square nonsingular pilots of the modified two-user scheme."""

    p1: np.ndarray  # N_1 x N_1
    p2: np.ndarray  # N_2 x N_2


def validate_pilots(ps: PilotSet, cfg: NetworkConfig) -> list[str]:
    """Check the three pilot rank conditions; [] when all hold.

    Requires rank(P_i) = N_i for every block, rank of the stack without
    block i equal to N_T - N_i, and rank of the full stack equal to
    N_T - N_min.
    """
    if ps.antennas != tuple(cfg.antennas) or ps.k1 != cfg.k1:
        raise ValueError(
            f"pilot shapes {ps.antennas} x {ps.k1} do not match config "
            f"{tuple(cfg.antennas)} x {cfg.k1}"
        )
    violations = []
    for i, block in enumerate(ps.blocks):
        if numerical_rank(block) != cfg.antennas[i]:
            violations.append(f"rank(P_{i + 1}) < N_{i + 1}")
    for i in range(cfg.m):
        want = cfg.n_total - cfg.antennas[i]
        if numerical_rank(ps.without(i)) != want:
            violations.append(f"rank of stack without user {i + 1} != {want}")
    want = cfg.n_total - cfg.n_min
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
    for attempt in range(_MAX_BUILD_ATTEMPTS):
        rng = substream(seed, "pilots", attempt)
        core = sample_cn(rng, (cfg.n_total, rank_target))
        if cfg.k1 > rank_target:
            extra = core @ sample_cn(rng, (rank_target, cfg.k1 - rank_target))
            stacked = np.hstack([core, extra])
        else:
            stacked = core
        offsets = np.cumsum((0,) + tuple(cfg.antennas))
        blocks = tuple(stacked[offsets[i]:offsets[i + 1]] for i in range(cfg.m))
        ps = PilotSet(blocks)
        if not validate_pilots(ps, cfg):
            return ps
    raise RuntimeError(f"pilot construction failed rank audit after {_MAX_BUILD_ATTEMPTS} attempts")


def build_pairwise_matrix(cfg: NetworkConfig, per_session_blocks) -> PairwisePilotMatrix:
    """Assemble the stacked pilot of all M(M-1)/2 pair-wise sessions.

    Sessions are ordered lexicographically over user pairs (i, j), i < j.
    With M >= 3 and full-row-rank per-user blocks the result has full row
    rank N_T, which is what lets Eve resolve her whole channel under the
    pair-wise schedule.  Rejects M = 2, where the schedule cannot reach
    full row rank.  Blocks may share leading batch axes; the matrices are
    then stacked along them, and a block or matrix of any draw that fails
    its rank audit rejects the batch.
    """
    if cfg.m < 3:
        raise ValueError("pair-wise pilot schedule needs M >= 3")
    blocks = [np.asarray(b) for b in per_session_blocks]
    if len(blocks) != cfg.m:
        raise ValueError("need one pilot block per user")
    batch, k1 = blocks[0].shape[:-2], blocks[0].shape[-1]
    for i, b in enumerate(blocks):
        if b.shape != batch + (cfg.antennas[i], k1):
            raise ValueError(f"block {i + 1} must be {cfg.antennas[i]} x {k1}")
        if np.any(numerical_rank(b) != cfg.antennas[i]):
            raise ValueError(f"block {i + 1} must have full row rank {cfg.antennas[i]}")
    if k1 < max(cfg.antennas):
        raise ValueError("per-session pilot length must be >= max antenna count")

    pairs = [(i, j) for i in range(cfg.m) for j in range(i + 1, cfg.m)]
    offsets = np.cumsum((0,) + tuple(cfg.antennas))
    matrix = np.zeros(batch + (cfg.n_total, len(pairs) * k1), dtype=complex)
    for p, (i, j) in enumerate(pairs):
        col = p * k1
        matrix[..., offsets[i]:offsets[i + 1], col:col + k1] = blocks[i]
        matrix[..., offsets[j]:offsets[j + 1], col:col + k1] = blocks[j]
    out = PairwisePilotMatrix(matrix, dict(enumerate(pairs)))
    if np.any(numerical_rank(matrix) != cfg.n_total):
        raise RuntimeError("pair-wise pilot matrix failed the full-row-rank audit")
    return out


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
    a, step = np.atleast_2d(np.asarray(m, dtype=complex)), 4096
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{a.shape[0]} {a.shape[1]}\n")
        for row in a:
            for start in range(0, len(row), step):
                text = " ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row[start:start + step])
                fh.write(f" {text}" if start else text)
            fh.write("\n")


def read_matrix_text(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_text`."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing matrix header")
    rows, cols = int(tokens[0]), int(tokens[1])
    values = [float(t) for t in tokens[2:]]
    if len(values) != 2 * rows * cols:
        raise ValueError(f"{path}: expected {2 * rows * cols} numbers, got {len(values)}")
    flat = np.array(values[0::2]) + 1j * np.array(values[1::2])
    return flat.reshape(rows, cols)
