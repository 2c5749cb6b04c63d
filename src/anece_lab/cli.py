"""Command-line surface: scenario files, formula reports, verification,
sweeps, pilot generation, and scheme comparison.

Scenario files are strict JSON with a versioned schema; unknown keys are
rejected with their key path.  Each ANECE variant is one ``Scheme`` record
in ``SCHEMES``, and every subcommand looks its scheme up there.  All
randomness flows from the single scenario seed through purpose-named
substreams, so outputs are byte-reproducible.  Exit codes: 0 success,
1 verification failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .capacity import ckey0_curve, cij_curve, cond_entropy_curve, phase1_curve
from .dofcalc import (
    DofScenario,
    Ints,
    dof_cij,
    dof_gap,
    dof_leakage,
    dof_modified_two_user,
    dof_pairwise,
    dof_phase1,
    dof_phase2_lower,
    dof_phase2_lower_plus,
    dof_phase2_upper,
    dof_two_user_original,
    pos,
)
from .model import (
    ALL_USER_RULES,
    MAX_USERS,
    PAIRWISE_RULES,
    CheckResult,
    DofReport,
    NetworkConfig,
    SnrGrid,
    TwoUserModifiedConfig,
    UserRules,
    pair_count,
    validate_config,
    validate_modified_config,
)
from .pilots import build_pairwise_matrix, build_pilots, build_square_pilots, write_matrix_text
from .numkernel import sample_cn, substream, user_channel_dim
from .verify import (
    RANK_DRAWS,
    default_grid,
    eig_growth_suite,
    identity_suite,
    rank_oracle_suite,
    verify_resolution,
    verify_slope,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# a curve keeps one float per sample and grid point for its mean and error
MAX_MC_SAMPLES = 100_000
# entries of the largest array one verify or pilots builds; see _oversized
MAX_VERIFY_ENTRIES = 2**22
# a sweep evaluates its whole span as one array, so the span is bounded
SWEEP_MAX_VALUES = 100_000


class ScenarioError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


@dataclass(frozen=True)
class Scenario:
    scheme: str
    network: NetworkConfig | TwoUserModifiedConfig
    snr_grid: SnrGrid
    mc_samples: int
    seed: int


@dataclass(frozen=True)
class Scheme:
    """Everything the CLI knows of one ANECE variant.

    ``parse`` builds the config from the ``network`` object and rejects its
    unknown keys, ``validate`` lists the config's ``(field, message)``
    violations, ``formula`` gives its DoF entries, ``compare_row`` its
    phase-2 SDoF and pilot slots on an all-user config and aggregate budget
    ``k2``, ``checks`` its verify rows, ``verify_size`` the arrays over
    ``MAX_VERIFY_ENTRIES`` that refuse a verify, and ``pilots`` its pilot
    matrices and their rank-audit lines.  ``compare`` runs on
    ``compare_input``'s all-user config; the ``k2`` sweep axis and a refused
    compare budget name ``k2_field``.
    """

    parse: Callable[[dict], NetworkConfig | TwoUserModifiedConfig]
    validate: Callable[..., list[tuple[str, str]]]
    formula: Callable[..., dict[str, Ints]]
    compare_row: Callable[[NetworkConfig], tuple[int, int]]
    checks: Callable[[Scenario], list[CheckResult]]
    verify_size: Callable[..., list[tuple[str, str]]]
    pilots: Callable[[Scenario], tuple[list[np.ndarray], list[str]]]
    compare_input: Callable[..., NetworkConfig]
    k2_field: str


# --------------------------------------------------------------------------
# scenario parsing
# --------------------------------------------------------------------------

_TOP_KEYS = {"schema_version", "scheme", "network", "snr_grid", "mc_samples", "seed"}


def _reject_unknown(mapping: dict, allowed: set, path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f'unknown key "{path}{key}"')


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ScenarioError(f'missing key "{path}{key}"')
    return mapping[key]


def _integer(value, path: str) -> int:
    """``value`` if it is a JSON integer; floats and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got {json.dumps(value)}")
    return value


class _Constant(str):
    """A JSON NaN or Infinity literal, kept as text until its key path is known."""


def _reject_constants(node, path: str) -> None:
    if isinstance(node, _Constant):
        raise ScenarioError(f"{path}: {node} is not a finite number")
    if isinstance(node, dict):
        for key, child in node.items():
            _reject_constants(child, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for idx, child in enumerate(node):
            _reject_constants(child, f"{path}[{idx}]")


def _mc_samples(count: int) -> int:
    """``count`` if it is a legal sample count, from the scenario or --mc-samples."""
    if count < 1:
        raise ScenarioError("mc_samples: must be >= 1")
    if count > MAX_MC_SAMPLES:
        raise ScenarioError(f"mc_samples: must be <= {MAX_MC_SAMPLES}")
    return count


def _check_keys(problems: list[tuple[str, str]], path: str = "network.") -> None:
    """Raise every ``(field, message)`` problem, each under its scenario key ``path + field``."""
    if problems:
        raise ScenarioError("; ".join(f"{path}{field}: {text}" for field, text in problems))


def parse_scenario(path: str) -> Scenario:
    """Strictly parse and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_Constant)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    _reject_constants(raw, "")
    _reject_unknown(raw, _TOP_KEYS, "")
    version = _require(raw, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    scheme = _require(raw, "scheme", "")
    names = tuple(SCHEMES)
    if scheme not in names:
        raise ScenarioError(f"scheme: expected one of {names}, got {scheme!r}")
    network = _require(raw, "network", "")
    if not isinstance(network, dict):
        raise ScenarioError("network: must be an object")
    cfg = SCHEMES[scheme].parse(network)
    _check_keys(SCHEMES[scheme].validate(cfg))

    grid_points = raw.get("snr_grid", list(default_grid().points))
    if not isinstance(grid_points, list) or not all(
        isinstance(p, (int, float)) and not isinstance(p, bool) for p in grid_points
    ):
        raise ScenarioError("snr_grid: must be a list of numbers")
    try:
        grid = SnrGrid(tuple(grid_points))
    except ValueError as exc:
        raise ScenarioError(f"snr_grid: {exc}") from exc
    mc_samples = _mc_samples(_integer(raw.get("mc_samples", 2000), "mc_samples"))
    seed = _integer(raw.get("seed", 0), "seed")
    return Scenario(scheme, cfg, grid, mc_samples, seed)


# --------------------------------------------------------------------------
# CSV helpers
# --------------------------------------------------------------------------


def fmt_number(x) -> str:
    """Fixed 12-significant-digit decimal; round-trips through float()."""
    return format(float(x), ".12g")


@contextlib.contextmanager
def _output(out_path: str | None):
    """The ``--out`` file, opened once for writing, or stdout without one; an
    ``OSError`` of opening or writing that file is a usage error."""
    if out_path is None:
        yield sys.stdout
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ScenarioError(f"--out {out_path}: cannot write: {exc}") from exc


def checks_to_csv(rows: list[CheckResult]) -> list[str]:
    lines = ["name,measured,target,tolerance,passed"]
    for r in rows:
        lines.append(
            f"{r.name},{fmt_number(r.measured)},{fmt_number(r.target)},"
            f"{fmt_number(r.tolerance)},{str(r.passed).lower()}"
        )
    return lines


# --------------------------------------------------------------------------
# schemes: one record per ANECE variant in SCHEMES; a new scheme is one more
# --------------------------------------------------------------------------


def _parse_users(network: dict, rules: UserRules) -> NetworkConfig:
    """An all-user or pair-wise network object; without ``k1`` it takes the rules' shortest."""
    _reject_unknown(network, {"m", "antennas", "n_eve", "k1", "k2"}, "network.")
    antennas = _require(network, "antennas", "network.")
    if not isinstance(antennas, list) or not antennas:
        raise ScenarioError("network.antennas: must be a non-empty list")
    antennas = tuple(_integer(n, f"network.antennas[{idx}]") for idx, n in enumerate(antennas))
    if "m" in network and _integer(network["m"], "network.m") != len(antennas):
        raise ScenarioError("network.m: does not match the antennas list length")
    n_eve = _integer(_require(network, "n_eve", "network."), "network.n_eve")
    k2, k1 = _integer(network.get("k2", 1), "network.k2"), network.get("k1")
    k1 = rules.shortest_k1(antennas) if k1 is None else _integer(k1, "network.k1")
    return NetworkConfig(antennas, n_eve, k1=k1, k2=k2)


def _oversized(command: str, sizes) -> list[tuple[str, str]]:
    """A ``(field, message)`` problem per ``(field, what, size)`` above MAX_VERIFY_ENTRIES."""
    return [(field, f"{command} needs a {what} of {size} entries > {MAX_VERIFY_ENTRIES}")
            for field, what, size in sizes if size > MAX_VERIFY_ENTRIES]


def _pilot_matrix(cfg: NetworkConfig) -> tuple[str, str, int]:
    """The N_T x K_1 all-user pilot matrix as a ``(field, what, size)`` of ``_oversized``;
    it names ``k1`` when the shortest K_1 = N_T - N_min would fit."""
    shortest = cfg.n_total * (cfg.n_total - cfg.n_min)
    field = "k1" if shortest <= MAX_VERIFY_ENTRIES else "antennas"
    return field, "pilot matrix", cfg.n_total * cfg.k1


def _verify_size(cfg: NetworkConfig, pilots: bool) -> list[tuple[str, str]]:
    """Each network-sized array of a verify on ``cfg`` above MAX_VERIFY_ENTRIES entries.

    With D = sum_{a<b} N_a N_b user-channel entries the arrays are: with
    ``pilots``, the N_T x K_1 pilot matrix, which bounds every array of
    ``build_pilots``, ``phase1_curve`` and ``eig_growth_suite`` that grows
    with K_1; the rank oracle's draws RANK_DRAWS * (D + N_E * N_T) and, for
    M >= 3, its pair-wise pilot matrices RANK_DRAWS * N_T * P_0 * max N_i
    over P_0 = M(M-1)/2 sessions.  A problem names ``k1`` or ``n_eve`` when
    the array would fit with the shortest K_1 or without Eve's channels.
    Python integers, so no product overflows; nothing is allocated.
    ``_curve_size`` counts the Monte Carlo curves, whose size the grid and
    sample count set.
    """
    d, n_t, m = user_channel_dim(cfg.antennas), cfg.n_total, cfg.m
    sizes = [_pilot_matrix(cfg)] if pilots else []
    sizes.append(("n_eve" if RANK_DRAWS * d <= MAX_VERIFY_ENTRIES else "antennas",
                  "rank-oracle draw batch", RANK_DRAWS * (d + cfg.n_eve * n_t)))
    if m >= 3:
        sizes.append(("antennas", "pair-wise pilot batch",
                      RANK_DRAWS * n_t * pair_count(m) * max(cfg.antennas)))
    return _oversized("verify", sizes)


def _curve_size(sc: Scenario) -> list[tuple[str, str]]:
    """The ``snr_grid`` problem of a verify whose Monte Carlo curve is too large.

    A curve keeps one value per grid point and sample.  Its scratch is no
    larger: ``log2det_grid`` sums its log terms one eigenvalue at a time,
    over a block of at most the curve's samples.  Nothing is allocated.
    """
    size = len(sc.snr_grid.points) * sc.mc_samples
    return _oversized("verify", [("snr_grid", "Monte Carlo curve", size)])


# all-user ANECE
def _all_user_formula(cfg: NetworkConfig) -> dict[str, Ints]:
    """Pair values for the users (1, 2); dof_phase2_lower_plus is the clamped
    better ordering, which dof_total adds on top of the pilot phase."""
    s = DofScenario.pair(cfg, 0, 1)
    lower_plus = np.maximum(dof_phase2_lower_plus(s), dof_phase2_lower_plus(s.swapped()))
    entries = {
        "dof_phase1": dof_phase1(s.n_i, s.n_j),
        "dof_cij": dof_cij(s),
        "dof_leakage": dof_leakage(s),
        "dof_phase2_lower": dof_phase2_lower(s),
        "dof_phase2_lower_plus": lower_plus,
        "dof_phase2_upper": dof_phase2_upper(s),
        "dof_gap": dof_gap(s),
        "dof_total": dof_phase1(s.n_i, s.n_j) + lower_plus,
    }
    if cfg.m == 2:
        n1, n2 = sorted(cfg.antennas)
        entries["dof_two_user_original"] = dof_two_user_original(n1, n2, cfg.n_eve, cfg.k2)
    return entries


def _all_user_compare(cfg: NetworkConfig) -> tuple[int, int]:
    """Pair (1, 2)'s phase-2 lower bound in its better ordering, after the
    shortest pilot phase of N_T - N_min slots."""
    s = DofScenario.pair(cfg, 0, 1)
    return int(max(dof_phase2_lower(s), dof_phase2_lower(s.swapped()))), cfg.n_total - cfg.n_min


def _all_user_checks(sc: Scenario) -> list[CheckResult]:
    cfg = sc.network
    s = DofScenario.pair(cfg, 0, 1)
    ps = build_pilots(cfg, sc.seed)
    p1_curve = phase1_curve(ps, 0, 1, sc.snr_grid)
    rows = [
        verify_slope("slope:phase1[1-2]", p1_curve, dof_phase1(s.n_i, s.n_j)),
        verify_slope("negctrl:slope:phase1-wrong-target", p1_curve, dof_phase1(s.n_i, s.n_j) + 3),
    ]
    if cfg.k2 >= 1:
        c_curve = cij_curve(cfg, 0, 1, sc.snr_grid, sc.mc_samples, sc.seed)
        c_slope = verify_slope("slope:cij[1-2]", c_curve, int(dof_cij(s)))
        rows += [c_slope, verify_resolution(c_slope, c_curve)]
    rows.append(CheckResult("negctrl:identity:tampered-gap",
                            float(dof_phase2_upper(s) - dof_phase2_lower(s) + 1),
                            float(dof_gap(s)), 0.0))
    return rows + eig_growth_suite(ps) + rank_oracle_suite(cfg, sc.seed)


def _all_user_pilots(sc: Scenario) -> tuple[list[np.ndarray], list[str]]:
    cfg = sc.network
    _check_keys(_oversized("pilots", [_pilot_matrix(cfg)]))
    ps = build_pilots(cfg, sc.seed)
    # build_pilots has audited rank(P) and every P_(l); each P_i is a row subset of one
    return [ps.stacked], [f"rank(P)={cfg.n_total - cfg.n_min} OK",
                          *(f"  rank(P_{i + 1})={n} OK" for i, n in enumerate(cfg.antennas))]


# pair-wise ANECE: k1 and k2 count the slots of one session
def _pairwise_formula(cfg: NetworkConfig) -> dict[str, Ints]:
    n_i, n_j = cfg.antennas[0], cfg.antennas[1]
    pair = dof_pairwise(n_i, n_j, cfg.n_eve, cfg.k2)
    return {
        "dof_phase1": dof_phase1(n_i, n_j),
        "dof_phase2_lower": pair.lower,
        "dof_phase2_upper": pair.upper,
        "dof_gap": pair.gap,
        "dof_total": dof_phase1(n_i, n_j) + pos(pair.upper),
    }


def _pairwise_compare(cfg: NetworkConfig) -> tuple[int, int]:
    """Pair (1, 2)'s bound on an even share of K_2; M(M-1)/2 sessions of max N_i slots."""
    p0 = pair_count(cfg.m)
    pair = dof_pairwise(cfg.antennas[0], cfg.antennas[1], cfg.n_eve, cfg.k2 // p0)
    return int(pair.upper), p0 * max(cfg.antennas)


def _pairwise_checks(sc: Scenario) -> list[CheckResult]:
    cfg = sc.network
    pair = dof_pairwise(cfg.antennas[0], cfg.antennas[1], cfg.n_eve, cfg.k2)
    return [CheckResult("negctrl:identity:tampered-pairwise-gap",
                        float(pair.upper - pair.lower + 1), float(pair.gap), 0.0),
            *rank_oracle_suite(cfg, sc.seed)]


def _pairwise_pilots(sc: Scenario) -> tuple[list[np.ndarray], list[str]]:
    cfg = sc.network
    # N_T x P_0 * K_1; the problem names k1 when the shortest K_1 = max N_i fits
    per_slot = cfg.n_total * pair_count(cfg.m)
    field = "k1" if per_slot * max(cfg.antennas) <= MAX_VERIFY_ENTRIES else "antennas"
    _check_keys(_oversized("pilots", [(field, "pair-wise pilot matrix", per_slot * cfg.k1)]))
    rng = substream(sc.seed, "pilots-pairwise")
    blocks = [sample_cn(rng, (n, cfg.k1)) for n in cfg.antennas]
    # build_pairwise_matrix audits its full row rank
    return [build_pairwise_matrix(blocks)], [f"rank(P_pair)={cfg.n_total} OK"]


# modified two-user ANECE
def _parse_modified(network: dict) -> TwoUserModifiedConfig:
    keys = ("n1", "n2", "k_total", "n_eve")
    _reject_unknown(network, keys, "network.")
    return TwoUserModifiedConfig(
        **{key: _integer(_require(network, key, "network."), f"network.{key}") for key in keys})


def _modified_formula(c: TwoUserModifiedConfig) -> dict[str, Ints]:
    md = dof_modified_two_user(c)
    original = dof_two_user_original(c.n1, c.n2, c.n_eve, c.k_total - c.n2)
    return {
        "dof_phase1": dof_phase1(c.n1, c.n2),
        "dof_phase2": md.upper,
        "dof_phase2_lower_12": md.lower_12,
        "dof_phase2_lower_21": md.lower_21,
        "dof_total": dof_phase1(c.n1, c.n2) + pos(md.upper),
        "dof_original_phase2": original,
        "dof_gain_over_original": md.lower_12 - original,
    }


def _modified_compare(cfg: NetworkConfig) -> tuple[int, int]:
    """The two users' phase 2 over the same K_2 symbol slots after N_2 pilot slots."""
    n1, n2 = sorted(cfg.antennas)
    md = dof_modified_two_user(TwoUserModifiedConfig(n1, n2, n2 + cfg.k2, cfg.n_eve))
    return int(md.upper), n2


def _modified_network(c: TwoUserModifiedConfig) -> NetworkConfig:
    """The network (N_1, N_2), K_2 = K - N_2, that compare reads and whose pilots verify ranks."""
    return NetworkConfig((c.n1, c.n2), c.n_eve, k2=c.k_total - c.n2)


def _modified_checks(sc: Scenario) -> list[CheckResult]:
    c = sc.network
    curve = ckey0_curve(c, sc.snr_grid, sc.mc_samples, sc.seed)
    # without Eve, lower_12 is the ckey0 slope N_1(K - N_1) + N_1(K - N_2) = N_1(2K - N_T)
    target = int(dof_modified_two_user(replace(c, n_eve=0)).lower_12)
    md = dof_modified_two_user(c)
    slope = verify_slope("slope:modified-ckey0", curve, target)
    rows = [slope, verify_resolution(slope, curve),
            CheckResult("negctrl:identity:tampered-modified", float(md.upper + 1),
                        float(md.lower_12), 0.0)]
    rank_cfg = _modified_network(c)
    ps = build_pilots(rank_cfg, sc.seed)
    return rows + eig_growth_suite(ps) + rank_oracle_suite(rank_cfg, sc.seed)


def _modified_pilots(sc: Scenario) -> tuple[list[np.ndarray], list[str]]:
    c = sc.network
    _check_keys(_oversized("pilots", [("n2", "pilot matrix", c.n2**2)]))
    pp = build_square_pilots(c, sc.seed)
    # build_square_pilots' Q factors are unitary, so both are nonsingular
    return [pp.p1, pp.p2], [f"rank(P1)={c.n1} OK", f"  rank(P2)={c.n2} OK"]


def _modified_verify_size(c: TwoUserModifiedConfig) -> list[tuple[str, str]]:
    # K_1 = N_2 is fixed, so the antenna counts drive every array; N_2 >= N_1
    return [("n2" if field == "antennas" else field, text)
            for field, text in _verify_size(_modified_network(c), pilots=True)]


SCHEMES = {
    "all_user": Scheme(
        lambda network: _parse_users(network, ALL_USER_RULES), validate_config,
        _all_user_formula, _all_user_compare, _all_user_checks,
        lambda cfg: _verify_size(cfg, pilots=True), _all_user_pilots, lambda cfg: cfg, "k2"),
    # compare splits an aggregate budget over the M(M-1)/2 sessions
    "pairwise": Scheme(
        lambda network: _parse_users(network, PAIRWISE_RULES),
        lambda cfg: validate_config(cfg, PAIRWISE_RULES), _pairwise_formula, _pairwise_compare,
        _pairwise_checks, lambda cfg: _verify_size(cfg, pilots=False), _pairwise_pilots,
        lambda cfg: NetworkConfig(cfg.antennas, cfg.n_eve, k2=cfg.k2 * pair_count(cfg.m)), "k2"),
    # compare runs the two-user schemes over the same K - N_2 symbol slots
    "modified_two_user": Scheme(
        _parse_modified, validate_modified_config, _modified_formula, _modified_compare,
        _modified_checks, _modified_verify_size, _modified_pilots, _modified_network, "k_total"),
}


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def formula_report(sc: Scenario) -> DofReport:
    """All applicable formula values, keyed by stable identifiers, as Python ints.

    A network whose swept field is an integer array gives one list per entry,
    each entry broadcast to the array's length.
    """
    entries = SCHEMES[sc.scheme].formula(sc.network)
    values = np.broadcast_arrays(*entries.values())
    return DofReport({key: value.tolist() for key, value in zip(entries, values)})


@functools.cache
def _identity_rows() -> tuple[CheckResult, ...]:
    """The identity suite's rows, which no scenario changes: evaluated once per process."""
    return tuple(identity_suite())


def _verify_rows(sc: Scenario) -> list[CheckResult]:
    """Every verify row of ``sc``, sorted by name.

    The identity rows come from ``_identity_rows``, one ``identity_suite()``
    per process; a caller who patches ``verify``'s closed forms after the
    first verify calls ``identity_suite()`` itself to see their effect.
    """
    entropy_curve = cond_entropy_curve(2, 3, 4, sc.snr_grid, sc.mc_samples, sc.seed)
    entropy_slope = verify_slope("slope:cond-entropy[2x3x4]", entropy_curve, 2 * 4)
    rows = [
        entropy_slope,
        verify_resolution(entropy_slope, entropy_curve),
        verify_slope("negctrl:slope:cond-entropy-wrong-target", entropy_curve, 2 * 4 + 3),
        *SCHEMES[sc.scheme].checks(sc),
        *_identity_rows(),
    ]
    return sorted(rows, key=lambda r: r.name)


def cmd_verify(sc: Scenario, out_path: str | None) -> int:
    _check_keys(SCHEMES[sc.scheme].verify_size(sc.network))
    _check_keys(_curve_size(sc), path="")
    with _output(out_path) as fh:  # an unwritable --out exits 2 before any row is built
        rows = _verify_rows(sc)
        print("\n".join(checks_to_csv(rows)), file=fh)
    deciding = [r.name for r in rows if r.passed == r.name.startswith("negctrl:")]
    if deciding:  # the real rows that fail and the controls that pass, in name order
        print(f"verify failed on: {', '.join(deciding)}", file=sys.stderr)
    return EXIT_CHECK_FAILED if deciding else EXIT_OK


def _swept(sc: Scenario, axis: str, value):
    """The network with one axis set to ``value``: an int, or an array on n_eve and k2."""
    cfg = sc.network
    if axis == "m":
        if sc.scheme != "all_user":
            raise ScenarioError("--axis m: applies only to the all_user scheme")
        if len(set(cfg.antennas)) != 1:
            raise ScenarioError("--axis m: needs a symmetric antenna layout")
        if value > MAX_USERS:  # refused before the layout of ``value`` users is built
            raise ScenarioError(f"network.antennas: M > {MAX_USERS}")
        cfg = NetworkConfig((cfg.antennas[0],) * value, cfg.n_eve, k2=cfg.k2)
    elif axis in ("n_eve", "k2"):
        cfg = replace(cfg, **{SCHEMES[sc.scheme].k2_field if axis == "k2" else axis: value})
    else:
        raise ScenarioError(f"unknown sweep axis {axis!r}")
    return cfg


def _sweep_network(sc: Scenario, axis: str, value: int):
    """The network with one axis set to ``value``, validated like a scenario file."""
    cfg = _swept(sc, axis, value)
    _check_keys(SCHEMES[sc.scheme].validate(cfg))
    return cfg


def cmd_sweep(sc: Scenario, axis: str, span: tuple[int, int], out_path: str) -> int:
    """One CSV row per value of the span.  Every value is validated first, in
    order; then ``n_eve`` and ``k2`` evaluate the whole span as one array, and
    ``m``, which changes the antenna layout, evaluates each value on its own."""
    lo, hi = span
    if hi < lo:
        raise ScenarioError(f"--range {lo}:{hi}: must be low:high with high >= low")
    if hi - lo >= SWEEP_MAX_VALUES:
        raise ScenarioError(f"--range {lo}:{hi} spans {hi - lo + 1} values; "
                            f"at most {SWEEP_MAX_VALUES} are allowed")
    values = range(lo, hi + 1)
    networks = [_sweep_network(sc, axis, value) for value in values]
    if axis == "m":
        reports = [formula_report(replace(sc, network=cfg)).entries for cfg in networks]
        keys = dict.fromkeys(k for entries in reports for k in entries)
        columns = {k: [entries.get(k, "") for entries in reports] for k in keys}
    else:
        swept = replace(sc, network=_swept(sc, axis, np.arange(lo, hi + 1)))
        columns = formula_report(swept).entries
    lines = ["axis,value," + ",".join(columns)]
    for idx, value in enumerate(values):
        lines.append(f"{axis},{value}," + ",".join(str(col[idx]) for col in columns.values()))
    with _output(out_path) as fh:
        print("\n".join(lines), file=fh)
    return EXIT_OK


def compare_schemes(sc: Scenario) -> list[tuple[str, int, int, int, int, int]]:
    """Rows (scheme, pair (1, 2)'s phase-1, phase-2 and total SDoF, pilot and symbol
    slots): all-user, then pair-wise for M >= 3 or modified for M = 2.
    ``compare_input`` is validated as an all-user config, and a K_2 that the
    M(M-1)/2 sessions cannot split evenly is refused; a ``k2`` problem names
    ``k2_field``."""
    scheme = SCHEMES[sc.scheme]
    cfg = scheme.compare_input(sc.network)
    p0 = pair_count(cfg.m)
    problems = validate_config(cfg)
    if cfg.m >= 3 and cfg.k2 % p0:
        problems.append(("k2", f"phase-2 budget {cfg.k2} is not divisible by {p0} sessions"))
    _check_keys([(scheme.k2_field if field == "k2" else field, text) for field, text in problems])
    phase1 = dof_phase1(cfg.antennas[0], cfg.antennas[1])
    rows = []
    for name in ("all_user", "pairwise" if cfg.m >= 3 else "modified_two_user"):
        phase2, slots = SCHEMES[name].compare_row(cfg)
        rows.append((name, phase1, phase2, phase1 + max(phase2, 0), slots, cfg.k2))
    return rows


def cmd_compare(sc: Scenario, out_path: str | None) -> int:
    lines = ["scheme,phase1_dof,phase2_dof,total_dof,phase1_slots,phase2_slots"]
    lines += [",".join(map(str, row)) for row in compare_schemes(sc)]
    with _output(out_path) as fh:
        print("\n".join(lines), file=fh)
    return EXIT_OK


def cmd_pilots(sc: Scenario, out_path: str) -> int:
    """Write the scheme's pilot matrices one after another, then print their rank audit."""
    matrices, audit = SCHEMES[sc.scheme].pilots(sc)
    with _output(out_path) as fh:
        write_matrix_text(fh, *matrices)
    print(f"wrote {out_path}: " + "\n".join(audit))
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _parse_span(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise ScenarioError(f"--range {text}: must look like low:high") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="anece-lab",
        description="DoF formula evaluation and empirical verification for ANECE schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_out: bool = True) -> None:
        p.add_argument("--scenario", required=True, help="path to a JSON scenario file")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--mc-samples", type=int, default=None,
                       help="override the scenario Monte Carlo sample count")
        if with_out:
            p.add_argument("--out", default=None, help="output file (default: stdout)")

    common(sub.add_parser("formula", help="print all formula values as JSON"), with_out=False)

    common(sub.add_parser("verify", help="run the verification suite, emit CSV"))

    p_sweep = sub.add_parser("sweep", help="sweep one axis, emit one CSV row per value")
    common(p_sweep, with_out=False)
    p_sweep.add_argument("--axis", required=True, choices=("n_eve", "k2", "m"),
                         help="axis to sweep (k2 sweeps k_total for the modified scheme)")
    p_sweep.add_argument("--range", required=True, dest="span",
                         help="inclusive integer range low:high")
    p_sweep.add_argument("--out", required=True, help="output CSV file")

    p_pilots = sub.add_parser("pilots", help="generate pilot matrices and audit their ranks")
    common(p_pilots, with_out=False)
    p_pilots.add_argument("--out", required=True, help="output matrix file")

    common(sub.add_parser("compare", help="compare schemes at an equal slot budget"))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse would read a separate -2:1 as an option; it takes --r to --range alike
    for k in range(len(argv) - 1, 0, -1):
        flag, value = argv[k - 1:k + 1]
        negative = value[:1] == "-" and value[1:2].isdigit()
        if negative and len(flag) > 2 and "--range".startswith(flag):
            argv[k - 1:k + 1] = [f"{flag}={value}"]
    args = _build_parser().parse_args(argv)
    try:
        sc = parse_scenario(args.scenario)
        if args.seed is not None:
            sc = replace(sc, seed=args.seed)
        if args.mc_samples is not None:
            sc = replace(sc, mc_samples=_mc_samples(args.mc_samples))
        if args.command == "formula":
            print(json.dumps(formula_report(sc).entries))
            return EXIT_OK
        if args.command == "verify":
            return cmd_verify(sc, args.out)
        if args.command == "sweep":
            return cmd_sweep(sc, args.axis, _parse_span(args.span), args.out)
        if args.command == "pilots":
            return cmd_pilots(sc, args.out)
        return cmd_compare(sc, args.out)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
