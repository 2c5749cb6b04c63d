"""Domain types shared by every part of the ANECE laboratory.

All types here are immutable value objects.  Configuration problems are
returned as lists of ``(field, message)`` pairs, not raised, so callers can
collect them and name each one's key; malformed *values* (wrong types,
impossible grids) still raise ``ValueError`` at construction time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


def antenna_counts(values) -> tuple[int, ...]:
    """``values`` as a tuple of ints; any integer type is taken, a float raises ``ValueError``."""
    try:
        return tuple(operator.index(n) for n in values)
    except TypeError as exc:
        raise ValueError(f"antenna counts must be integers, got {tuple(values)!r}") from exc


@dataclass(frozen=True)
class NetworkConfig:
    """An all-user ANECE scenario: M full-duplex users against one Eve.

    ``antennas[i]`` is the antenna count N_i of user i (each node uses the
    same number of antennas to transmit and receive).  ``k1`` and ``k2``
    are the slot counts of the pilot phase and the random-symbol phase.
    When ``k1`` is omitted it defaults to N_T - N_min, the shortest pilot
    length compatible with the collaborative-pilot rank requirements.
    Eve's noise variance is kept at 1; its value moves no DoF result.
    """

    antennas: tuple[int, ...]
    n_eve: int
    k1: int | None = None
    k2: int = 1

    def __post_init__(self):
        object.__setattr__(self, "antennas", antenna_counts(self.antennas))
        if self.k1 is None:
            object.__setattr__(self, "k1", self.n_total - self.n_min)

    @property
    def m(self) -> int:
        return len(self.antennas)

    @property
    def n_total(self) -> int:
        return sum(self.antennas)

    @property
    def n_min(self) -> int:
        return min(self.antennas) if self.antennas else 0


@dataclass(frozen=True)
class TwoUserModifiedConfig:
    """Two-user scenario where each node uses a square nonsingular pilot.

    Node 1 (n1 antennas, n1-slot pilot) and node 2 (n2 >= n1 antennas,
    n2-slot pilot) each transmit pilot-then-symbols over ``k_total`` slots
    of one coherence period.
    """

    n1: int
    n2: int
    k_total: int
    n_eve: int

    @property
    def n_total(self) -> int:
        return self.n1 + self.n2

    @property
    def delta_n(self) -> int:
        return self.n2 - self.n1


# |log2(sigma^2)| beyond this overflows 2**p or leaves too little float64 headroom
MAX_ABS_LOG2_SIGMA2 = 1000.0


@dataclass(frozen=True)
class SnrGrid:
    """Ordered log2(sigma^2) evaluation points for slope estimation."""

    points: tuple[float, ...]

    def __post_init__(self):
        # compared before float() so that a huge integer cannot overflow it
        if not all(abs(p) <= MAX_ABS_LOG2_SIGMA2 for p in self.points):
            raise ValueError(
                f"SnrGrid points must be finite with |log2 sigma^2| <= {MAX_ABS_LOG2_SIGMA2:g}"
            )
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 3:
            raise ValueError("SnrGrid needs at least 3 points")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("SnrGrid points must be strictly increasing")
        # a narrower span leaves the slope fit's sum of squares at or near 0
        if pts[-1] - pts[0] < 1:
            raise ValueError("SnrGrid points must span at least 1 (last - first >= 1)")
        object.__setattr__(self, "points", pts)

    def sigma2(self) -> tuple[float, ...]:
        return tuple(2.0**p for p in self.points)


@dataclass(frozen=True)
class DofReport:
    """Analytic DoF values keyed by a stable formula identifier: one integer
    each, or one list of integers each, a value per point of a swept axis."""

    entries: dict[str, int | list[int]]

    def __post_init__(self):
        for key, value in self.entries.items():
            for v in value if isinstance(value, list) else [value]:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"DoF entry {key!r} must hold integers, got {v!r}")


@dataclass(frozen=True)
class CheckResult:
    """One empirical-versus-analytic verification outcome.

    ``passed`` is derived, never supplied: it is true exactly when
    ``|measured - target| <= tolerance``.
    """

    name: str
    measured: float
    target: float
    tolerance: float
    passed: bool = field(init=False)

    def __post_init__(self):
        ok = abs(self.measured - self.target) <= self.tolerance
        object.__setattr__(self, "passed", bool(ok))


# The closed forms of ``dofcalc`` compute in int64.  Each is a sum of at most
# eight products of two factors of magnitude <= 2 * MAX_COUNT, so with every
# count at most MAX_COUNT no form can exceed 32 * 2**56 = 2**61.
MAX_COUNT = 2**28
# An antenna layout holds one count per user, so M is bounded on its own: a
# swept ``m`` value is checked against it before its layout is built.
MAX_USERS = 1024


def _count_limits(*counts: tuple[str, str, int]) -> list[tuple[str, str]]:
    """One violation per ``(field, symbol, value)`` whose value exceeds MAX_COUNT."""
    return [(field, f"{symbol} > {MAX_COUNT}")
            for field, symbol, value in counts if value > MAX_COUNT]


def pair_count(m: int) -> int:
    """P_0 = M(M-1)/2, the user pairs of an M-user network: one pair-wise session each."""
    return m * (m - 1) // 2


class UserRules(NamedTuple):
    """The two rules in which the all-user and pair-wise networks differ: the
    fewest users, and the shortest pilot phase ``shortest_k1(antennas)``,
    written ``k1_symbol`` in a violation, which a network without ``k1`` takes."""

    min_users: int
    k1_symbol: str
    shortest_k1: Callable[[tuple[int, ...]], int]


ALL_USER_RULES = UserRules(2, "N_T-N_min", lambda n: sum(n) - (min(n) if n else 0))
# a pair-wise K_1 counts the slots of one session, whose pilots are N_i x K_1
PAIRWISE_RULES = UserRules(3, "max N_i", lambda n: max(n) if n else 0)


def validate_config(cfg: NetworkConfig, rules: UserRules = ALL_USER_RULES) -> list[tuple[str, str]]:
    """Every violated constraint of an all-user or pair-wise config under ``rules``; [] if valid."""
    m = len(cfg.antennas)
    violations = [("antennas", f"M > {MAX_USERS}")] if m > MAX_USERS else []
    if m < rules.min_users:
        violations.append(("antennas", f"M < {rules.min_users}"))
    for idx, n in enumerate(cfg.antennas):
        if n < 1:
            violations.append(("antennas", f"antenna count must be >= 1 (user {idx + 1})"))
    if cfg.n_eve < 0:
        violations.append(("n_eve", "N_E < 0"))
    if cfg.k2 < 0:
        violations.append(("k2", "K_2 < 0"))
    bound = rules.shortest_k1(cfg.antennas)
    if cfg.k1 < bound:
        violations.append(("k1", f"K_1 < {rules.k1_symbol} (need >= {bound})"))
    return violations + _count_limits(
        ("antennas", "N_T", cfg.n_total), ("n_eve", "N_E", cfg.n_eve), ("k2", "K_2", cfg.k2))


def validate_modified_config(cfg: TwoUserModifiedConfig) -> list[tuple[str, str]]:
    """Return every violated constraint of a modified two-user config."""
    violations = []
    if cfg.n1 < 1:
        violations.append(("n1", "N_1 < 1"))
    if cfg.n1 > cfg.n2:
        violations.append(("n1", "N_1 > N_2"))
    if cfg.k_total < cfg.n2:
        violations.append(("k_total", f"K < N_2 (need >= {cfg.n2})"))
    if cfg.n_eve < 0:
        violations.append(("n_eve", "N_E < 0"))
    return violations + _count_limits(("k_total", "K", cfg.k_total), ("n_eve", "N_E", cfg.n_eve))
