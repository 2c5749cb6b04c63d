import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import joint_jacobian, receive, vec_batch

from anece_lab import capacity, cli
from anece_lab.capacity import (
    CapacityCurve,
    cij_curve,
    ckey0_curve,
    cond_entropy_curve,
    phase1_curve,
)
from anece_lab.model import NetworkConfig, SnrGrid, TwoUserModifiedConfig
from anece_lab.numkernel import cn_blocks, log2det_grid, numerical_rank
from anece_lab.pilots import PilotSet, build_pilots
from anece_lab.verify import (
    default_grid,
    eig_growth_suite,
    fit_slope,
    rank_oracle_suite,
    slope_tolerance,
)

SCALAR_PILOTS = PilotSet((np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])))

# sigma^2 = 1 is the first point; sigma^2 = 4, the quadrature tests' point, is the last
UNIT_GRID = SnrGrid((0.0, 1.0, 2.0))
# sigma^2 = 0 is not on any grid; 2^-1000 stands in for it, and a curve
# there is zero up to terms of order 1e-301
ZERO_GRID = SnrGrid((-1000.0, -999.0, -998.0))


def phase1_cov_joint(ps, i, j, sigma2):
    """Hand-derived joint covariance of the pilot-phase receptions of users i and j.

    Each user's block is kron(sigma^2 G + I, I) with G the Gram of the pilots
    it hears; reciprocity couples the two receptions through the shared
    channel block, producing the sigma^2 * kron(P_j^T, P_i^*) cross term.
    """
    def heard(u):
        p = ps.without(u)
        return sigma2 * p.T @ p.conj() + np.eye(p.shape[1])

    n_i, n_j = ps.antennas[i], ps.antennas[j]
    cross = sigma2 * np.kron(ps.blocks[j].T, ps.blocks[i].conj())
    return np.block([[np.kron(heard(i), np.eye(n_i)), cross],
                     [cross.conj().T, np.kron(np.eye(n_j), heard(j))]])


def phase1_analytic(ps, i, j, sigma2):
    """log2|R_i| + log2|R_j| - log2|R_joint| from the blocks of ``phase1_cov_joint``."""
    cov = phase1_cov_joint(ps, i, j, sigma2)
    n = ps.antennas[i] * ps.blocks[i].shape[1]
    return sum(s * np.linalg.slogdet(c)[1] for s, c in
               ((1, cov[:n, :n]), (1, cov[n:, n:]), (-1, cov))) / math.log(2.0)


def phase1_jacobian_form(ps, i, j, grid):
    """The same SKC from log2det_grid of each P_(i)^T and of the pair's joint factor."""
    sigma2 = grid.sigma2()
    single = sum(ps.antennas[u] * log2det_grid(ps.without(u).T, sigma2) for u in (i, j))
    return single - log2det_grid(joint_jacobian(ps, i, j), sigma2)


# (antennas, K_1); None is the shortest K_1 = N_T - N_min
PHASE1_NETWORKS = [((1, 1), None), ((2, 3), None), ((2, 3), 7), ((3, 3, 3), None),
                   ((1, 2, 3, 4), 12), ((6, 8, 1, 8, 1), None)]


@pytest.mark.parametrize("antennas, k1", PHASE1_NETWORKS)
def test_phase1_matches_the_analytic_covariance(antennas, k1):
    ps = build_pilots(NetworkConfig(antennas, 0, k1=k1), 3)
    grid = SnrGrid((-10.0, -4.0, 0.0, 4.0, 8.0, 12.0, 16.0, 20.0))
    for i, j in itertools.permutations(range(len(antennas)), 2):
        got = np.array(phase1_curve(ps, i, j, grid).values)
        expected = np.array([phase1_analytic(ps, i, j, s2) for s2 in grid.sigma2()])
        assert np.max(np.abs(got - expected) / expected) <= 1e-9


@pytest.mark.parametrize("antennas, k1", PHASE1_NETWORKS + [((2, 2, 2), None)])
def test_phase1_matches_the_receive_jacobian_form(antennas, k1):
    ps = build_pilots(NetworkConfig(antennas, 0, k1=k1), 3)
    grids = [default_grid(), SnrGrid(tuple(range(12, 45))), SnrGrid(tuple(range(-10, 41)))]
    for (i, j), grid in itertools.product(itertools.permutations(range(len(antennas)), 2), grids):
        got = np.array(phase1_curve(ps, i, j, grid).values)
        expected = phase1_jacobian_form(ps, i, j, grid)
        assert np.max(np.abs(got - expected) / expected) <= 1e-11


def test_phase1_holds_over_plus_minus_1000():
    # no overflow at 2^1000 and no warning anywhere; at 2^-1000 the value,
    # of order sigma^4, is below float64's range and reads exactly 0
    ps = build_pilots(NetworkConfig((2, 3, 1), 0, k2=1), 3)
    grid = SnrGrid((-1000.0, -999.0, -500.0, -20.0, 0.0, 20.0, 500.0, 1000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, j in itertools.permutations(range(3), 2):
            values = phase1_curve(ps, i, j, grid).values
            assert 0.0 <= values[0] <= 1e-290
            assert all(np.isfinite(values)) and list(values) == sorted(values)
            # the slope is N_i * N_j up there
            top = (values[-1] - values[-2]) / 500.0
            assert abs(top - ps.antennas[i] * ps.antennas[j]) <= 1e-3


@pytest.mark.parametrize("antennas, k1", [((1, 1, 1), 4000), ((1, 1), 4000)])
def test_phase1_builds_no_k1_by_k1_array(antennas, k1):
    # a full SVD of Q^T would hold K_1 x K_1 complex entries, 244 MiB at
    # K_1 = 4,000; the thin one keeps every array at K_1 x max(r, N) or less
    ps = build_pilots(NetworkConfig(antennas, 0, k1=k1), 3)
    tracemalloc.start()
    try:
        curve = phase1_curve(ps, 0, 1, default_grid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * k1 * sum(antennas) + 2**16
    assert abs(fit_slope(curve).slope - 1.0) <= 1e-3


def test_phase1_hand_value():
    # single-user dets are 2, joint covariance [[2, 1], [1, 2]] has det 3
    value = phase1_curve(SCALAR_PILOTS, 0, 1, UNIT_GRID).values[0]
    assert abs(value - (2.0 - math.log2(3.0))) <= 1e-12


def test_phase1_zero_power_is_zero():
    assert abs(phase1_curve(SCALAR_PILOTS, 0, 1, ZERO_GRID).values[0]) <= 1e-290
    cfg = NetworkConfig((2, 3), 0, k2=1)
    ps = build_pilots(cfg, 3)
    assert abs(phase1_curve(ps, 0, 1, ZERO_GRID).values[0]) <= 1e-290


def test_phase1_hand_curve_formula():
    # with scalar unit pilots the value is 2*log2(s2+1) - log2(2*s2+1)
    grid = default_grid()
    curve = phase1_curve(SCALAR_PILOTS, 0, 1, grid)
    for s2, got in zip(grid.sigma2(), curve.values):
        expected = 2.0 * math.log2(s2 + 1.0) - math.log2(2.0 * s2 + 1.0)
        assert abs(got - expected) <= 1e-9


def test_phase1_symmetry_in_the_pair():
    cfg = NetworkConfig((2, 3, 1), 0, k2=1)
    ps = build_pilots(cfg, 5)
    grid = SnrGrid((0.0, 10.0, 20.0))
    pairs = zip(phase1_curve(ps, 0, 1, grid).values, phase1_curve(ps, 1, 0, grid).values)
    for a, b in pairs:
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_phase1_nonnegative_and_nondecreasing():
    cfg = NetworkConfig((2, 2, 2), 0, k2=1)
    ps = build_pilots(cfg, 2)
    values = phase1_curve(ps, 0, 1, default_grid()).values
    assert all(v >= 0.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_phase1_rejects_same_user():
    with pytest.raises(ValueError):
        phase1_curve(SCALAR_PILOTS, 0, 0, UNIT_GRID)


def test_cij_zero_power_is_zero():
    cfg = NetworkConfig((1, 1), 0, k2=1)
    curve = cij_curve(cfg, 0, 1, ZERO_GRID, 50, 0)
    assert abs(curve.values[0]) <= 1e-290 and curve.mc_stderr[0] <= 1e-290


def test_cij_nonnegative_and_nondecreasing():
    cfg = NetworkConfig((2, 2, 2), 4, k2=2)
    values = cij_curve(cfg, 0, 1, SnrGrid((-1000.0, 0.0, 6.0, 12.0)), 200, 3).values
    assert all(v >= 0.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_cij_reproducible_per_seed():
    cfg = NetworkConfig((2, 2, 2), 4, k2=2)
    a = cij_curve(cfg, 0, 1, default_grid(), 100, 5)
    b = cij_curve(cfg, 0, 1, default_grid(), 100, 5)
    c = cij_curve(cfg, 0, 1, default_grid(), 100, 6)
    assert a == b
    assert a != c


def test_cij_stderr_scales_like_inverse_sqrt_samples():
    cfg = NetworkConfig((2, 2, 2), 4, k2=2)
    grid = SnrGrid((16.0, 17.0, 18.0))
    stderrs = [cij_curve(cfg, 0, 1, grid, n, 9).mc_stderr[0] for n in (100, 1000, 10_000)]
    expected = math.sqrt(100.0)  # se(100) / se(10000)
    assert expected / 2.0 <= stderrs[0] / stderrs[2] <= expected * 2.0


def test_ckey0_zero_power_is_zero():
    curve = ckey0_curve(TwoUserModifiedConfig(2, 3, 7, 6), ZERO_GRID, 20, 0)
    assert abs(curve.values[0]) <= 1e-290 and curve.mc_stderr[0] <= 1e-290


def test_ckey0_equal_antennas_slope_matches_original_rate():
    # N_1 = N_2 = N with K = N + K_2 slots: slope 2*N*K_2
    c2u = TwoUserModifiedConfig(2, 2, 5, 0)
    curve = ckey0_curve(c2u, default_grid(), 800, 1)
    assert abs(fit_slope(curve).slope - 12.0) <= 0.15


def test_cond_entropy_zero_power_exact():
    expected = 2 * 4 * math.log2(math.e * math.pi)
    assert abs(cond_entropy_curve(2, 3, 4, ZERO_GRID, 10, 0).values[0] - expected) <= 1e-9


def test_cond_entropy_narrow_slope():
    curve = cond_entropy_curve(3, 1, 2, default_grid(), 600, 2)
    assert abs(fit_slope(curve).slope - 2.0) <= 0.15


def test_cij_slope_matches_hand_dof():
    # M=3 symmetric N=2, K_2=2: 2*2 + 2*2 - 2*2 = 4
    cfg = NetworkConfig((2, 2, 2), 4, k2=2)
    curve = cij_curve(cfg, 0, 1, default_grid(), 600, 4)
    assert abs(fit_slope(curve).slope - 4.0) <= 0.15
    assert curve.mc_samples == 600


def test_phase1_slope_insensitive_to_longer_pilots():
    # any pilot length above the minimum leaves the slope at N_i*N_j
    cfg = NetworkConfig((2, 3), 0, k1=6, k2=1)
    ps = build_pilots(cfg, 2)
    slope = fit_slope(phase1_curve(ps, 0, 1, default_grid())).slope
    assert abs(slope - 6.0) <= 0.15


def test_phase1_slope_of_eight_three_antenna_users():
    # the slope reaches N_i * N_j on the grid only if every P_(i) is well
    # conditioned; a full-rank but ill-conditioned one still bends inside it
    ps = build_pilots(NetworkConfig((3,) * 8, 1, k2=1), 2)
    slope = fit_slope(phase1_curve(ps, 0, 1, default_grid())).slope
    assert abs(slope - 9.0) <= slope_tolerance(9)


def test_slopes_for_a_non_adjacent_user_pair():
    from anece_lab.dofcalc import DofScenario, dof_cij

    cfg = NetworkConfig((1, 2, 3), 4, k2=2)
    target = dof_cij(DofScenario.pair(cfg, 0, 2))
    assert target == 4  # 2*[min(1,5) + min(3,3) - min(4,2)]
    slope = fit_slope(cij_curve(cfg, 0, 2, default_grid(), 800, 3)).slope
    assert abs(slope - target) <= 0.15
    ps = build_pilots(cfg, 1)
    p1 = fit_slope(phase1_curve(ps, 0, 2, default_grid())).slope
    assert abs(p1 - 3.0) <= 0.15


def test_cij_value_matches_quadrature_oracle():
    # for two single-antenna users the per-slot value is 2*E{log2(s2*x+1)}
    # with x ~ Exp(1); the expectation comes from direct quadrature.  The
    # standard error at 40,000 samples is about 0.01, a fifth of the tolerance
    s2 = 4.0
    x = np.linspace(0.0, 80.0, 400_001)
    expected = 2.0 * float(np.trapezoid(np.log2(s2 * x + 1.0) * np.exp(-x), x))
    cfg = NetworkConfig((1, 1), 0, k2=1)
    curve = cij_curve(cfg, 0, 1, UNIT_GRID, 40_000, 21)
    mean, stderr = curve.values[-1], curve.mc_stderr[-1]
    assert stderr < 0.05
    assert abs(mean - expected) <= 0.05


def test_cond_entropy_value_matches_quadrature_oracle():
    # the standard error at 40,000 samples is about 0.005, a quarter of the
    # tolerance, so the check does not hang on the luck of one draw
    s2 = 4.0
    x = np.linspace(0.0, 80.0, 400_001)
    integral = float(np.trapezoid(np.log2(s2 * x + 1.0) * np.exp(-x), x))
    expected = math.log2(math.e * math.pi) + integral
    assert abs(cond_entropy_curve(1, 1, 1, UNIT_GRID, 40_000, 22).values[-1] - expected) <= 0.02


def test_phase1_covariance_matches_synthesized_signals():
    # empirical covariance of [vec(Y_i); vec(Y_j^T)], Y = sigma * receive + W,
    # over fresh channel and unit-noise draws must reproduce the analytic
    # joint assembly, cross block included
    from anece_lab.numkernel import draw_channels, sample_cn, substream

    cfg = NetworkConfig((1, 2), 0, k2=1)
    ps = build_pilots(cfg, 6)
    sigma2 = 2.0
    target = phase1_cov_joint(ps, 0, 1, sigma2)
    n_draws = 8000
    rng = substream(0, "phase1-covariance")
    ch = draw_channels(cfg.antennas, cfg.n_eve, rng, (n_draws,))
    y0, y1 = (math.sqrt(sigma2) * y + sample_cn(rng, y.shape) for y in receive(ch, ps.blocks)[0])
    v = np.concatenate([vec_batch(y0), vec_batch(np.swapaxes(y1, 1, 2))], axis=1)
    est = v.T @ v.conj() / n_draws
    assert np.linalg.norm(est - target) / np.linalg.norm(target) <= 0.05


@pytest.mark.parametrize("antennas", [(2, 2, 2), (1, 2, 3, 4), (2, 3)])
def test_phase1_factor_reproduces_joint_covariance(antennas):
    ps = build_pilots(NetworkConfig(antennas, 0, k2=1), 4)
    for i, j in [(0, 1), (1, 0), (0, len(antennas) - 1)]:
        jac = joint_jacobian(ps, i, j)
        cov = phase1_cov_joint(ps, i, j, 1.0)
        assert np.max(np.abs(jac @ jac.conj().T - (cov - np.eye(len(cov))))) <= 1e-12


def test_phase1_joint_factor_rank_is_its_growth_count():
    # sigma^2 J J^H + I grows along rank(J) directions: N_i(N_T-N_i) +
    # N_j(N_T-N_j) - N_i*N_j, one per channel entry either user hears
    cfg = NetworkConfig((1, 2, 3, 4), 0, k2=1)
    ps = build_pilots(cfg, 5)
    for i, j in itertools.combinations(range(4), 2):
        factor = joint_jacobian(ps, i, j)
        n_i, n_j, n_t = cfg.antennas[i], cfg.antennas[j], cfg.n_total
        target = n_i * (n_t - n_i) + n_j * (n_t - n_j) - n_i * n_j
        assert factor.shape[1] == target
        assert numerical_rank(factor) == target
        ev = np.linalg.eigvalsh(phase1_cov_joint(ps, i, j, 2.0**12))
        assert np.count_nonzero(ev > 2.0**6) == target


def test_cij_curve_matches_per_sample_gram_reference():
    # reference: per sample and grid point, log-determinants of s2 * R + I
    # built from the Gram matrices R_i, R_j and R_ij of the same draws
    from anece_lab.numkernel import cn_blocks, split_user_channels, user_channel_dim

    cfg = NetworkConfig((1, 2, 3, 2), 0, k2=2)
    grid, n = default_grid(), 30
    z = np.concatenate(list(cn_blocks(5, "cij", n, user_channel_dim(cfg.antennas))))

    def logdet(r, s2):
        return np.linalg.slogdet(s2 * r + np.eye(len(r)))[1] / math.log(2.0)

    expected = np.zeros(len(grid.points))
    for sample in z:
        ch = split_user_channels(cfg.antennas, sample)
        h_0 = np.hstack([ch[(0, l)] for l in (1, 2, 3)])
        h_1 = np.hstack([ch[(1, l)] for l in (0, 2, 3)])
        stack = np.hstack([np.vstack([ch[(0, l)], ch[(1, l)]]) for l in (2, 3)])
        for g, s2 in enumerate(grid.sigma2()):
            expected[g] += cfg.k2 * (logdet(h_0 @ h_0.conj().T, s2) + logdet(h_1 @ h_1.conj().T, s2)
                                     - logdet(stack @ stack.conj().T, s2)) / n
    got = np.asarray(cij_curve(cfg, 0, 1, grid, n, 5).values)
    assert np.max(np.abs(got - expected)) <= 1e-6


def test_standard_errors_match_a_per_sample_reference():
    # reference: each sample's curve term by term from the same draws, then the
    # spread of its values and of its OLS slopes on an unevenly spaced grid
    from anece_lab.numkernel import split_user_channels, user_channel_dim

    cfg = NetworkConfig((1, 2, 1), 0, k2=2)
    grid, n = SnrGrid((0.0, 3.0, 7.0, 8.0)), 6
    z = np.concatenate(list(cn_blocks(3, "cij", n, user_channel_dim(cfg.antennas))))

    def logdet(h, s2):
        return np.linalg.slogdet(s2 * h @ h.conj().T + np.eye(len(h)))[1] / math.log(2.0)

    curves = []
    for sample in z:
        ch = split_user_channels(cfg.antennas, sample)
        h_0, h_1 = np.hstack([ch[(0, 1)], ch[(0, 2)]]), np.hstack([ch[(1, 0)], ch[(1, 2)]])
        stack = np.vstack([ch[(0, 2)], ch[(1, 2)]])
        curves.append([cfg.k2 * (logdet(h_0, s2) + logdet(h_1, s2) - logdet(stack, s2))
                       for s2 in grid.sigma2()])
    curves = np.array(curves)
    slopes = [np.polyfit(grid.points, c, 1)[0] for c in curves]
    got = cij_curve(cfg, 0, 1, grid, n, 3)
    np.testing.assert_allclose(got.mc_stderr, curves.std(axis=0, ddof=1) / math.sqrt(n),
                               rtol=1e-9)
    assert got.slope_stderr == pytest.approx(np.std(slopes, ddof=1) / math.sqrt(n), rel=1e-9)
    # one sample has no spread, and the exact pilot-phase curve no error
    assert cij_curve(cfg, 0, 1, grid, 1, 3).slope_stderr == math.inf
    assert phase1_curve(build_pilots(cfg, 3), 0, 1, grid).slope_stderr == 0.0


# entry budgets and the blocks they give a 40-sample curve on [2,2,2], whose
# draws have 12 user-channel entries: 1 entry still gives 1-sample blocks
@pytest.mark.parametrize("entries, blocks", [
    (1, [1] * 40), (7 * 12, [7] * 5 + [5]), (None, [40]),
], ids=["1", "7", "default"])
def test_curve_does_not_depend_on_the_block_size(monkeypatch, entries, blocks):
    cfg = NetworkConfig((2, 2, 2), 4, k2=2)
    reference = cij_curve(cfg, 0, 1, default_grid(), 40, 8)
    if entries is not None:
        monkeypatch.setattr("anece_lab.numkernel.MC_BLOCK_ENTRIES", entries)
    assert [len(z) for z in cn_blocks(8, "cij", 40, 12)] == blocks
    assert cij_curve(cfg, 0, 1, default_grid(), 40, 8) == reference


def test_cij_curve_with_short_sides_up_to_3_makes_no_linalg_call(monkeypatch):
    # on [1,2,3,4] the factors of users 1 and 2 are 1 x 9, 2 x 8 and the
    # 3 x 7 stack: closed forms all, over the three blocks of 2,000 draws
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counted(fn))
    cfg = NetworkConfig((1, 2, 3, 4), 6, k2=3)
    assert len(list(cn_blocks(7, "cij", 2000, 35))) == 3
    curve = cij_curve(cfg, 0, 1, default_grid(), 2000, 7)
    assert calls == []
    assert all(math.isfinite(v) for v in curve.values)


@pytest.mark.parametrize("curve, generators", [
    pytest.param(lambda cfg, ps: cij_curve(cfg, 0, 1, default_grid(), 2000, 7), 1, id="cij"),
    pytest.param(lambda cfg, ps: phase1_curve(ps, 0, 1, default_grid()), 0, id="phase1"),
    pytest.param(lambda cfg, ps: rank_oracle_suite(cfg, 7), 2, id="rank-oracle"),
])
def test_cij_curve_draws_once_and_batches_linalg(monkeypatch, curve, generators):
    # one generator per Monte Carlo curve and none for the exact phase-1
    # curve; linear algebra per block of samples, not per (sample, grid point).
    # The rank oracle draws its channels and its pair-wise pilots from one
    # stream each and ranks each row's whole batch at once, not per draw
    cfg = NetworkConfig((2, 2, 2), 4, k2=2)
    ps = build_pilots(cfg, 7)
    counts = {"rng": 0, "linalg": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.random, "default_rng", counted("rng", np.random.default_rng))
    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counted("linalg", fn))
    curve(cfg, ps)
    assert counts["rng"] == generators
    assert counts["linalg"] < 50


# --------------------------------------------------------------------------
# the log-determinant kernel on the factors the curves build
# --------------------------------------------------------------------------

# The distinct networks of the benchmark's 16 scenarios: all-user antenna
# layouts and modified (N_1, N_2, K, N_E).  A pair-wise verify builds only the
# 2x3 conditional-entropy factor, which every verify builds.
BENCH_ALL_USER = [(2, 2, 2), (1, 2, 3, 4), (2, 3), (3, 3), (2, 2, 2, 2, 2)]
BENCH_MODIFIED = [(2, 3, 6, 2), (1, 3, 7, 3)]


def bench_factors():
    """Every factor stack that cij_curve, ckey0_curve and cond_entropy_curve
    hand to ``log2det_grid`` on the benchmark networks, over every user pair,
    at 64 samples."""
    factors = []
    kernel = capacity.log2det_grid

    def recorded(a, sigma2):
        factors.append(a)
        return kernel(a, sigma2)

    grid = default_grid()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "log2det_grid", recorded)
        cond_entropy_curve(2, 3, 4, grid, 64, 3)
        for c in BENCH_MODIFIED:
            ckey0_curve(TwoUserModifiedConfig(*c), grid, 64, 3)
        for antennas in BENCH_ALL_USER:
            cfg = NetworkConfig(antennas, 0)
            for i, j in itertools.combinations(range(cfg.m), 2):
                cij_curve(cfg, i, j, grid, 64, 3)
    return factors


@pytest.mark.parametrize("grid", [
    default_grid(), SnrGrid(tuple(range(12, 45))), SnrGrid((-1000, -500, -20, 0, 20, 500, 1000)),
], ids=["default", "12..44", "+-1000"])
def test_log2det_grid_matches_an_svd_reference_on_every_benchmark_factor(grid):
    # reference: sum_k log2(1 + s2 s_k^2) over each factor's singular values,
    # one grid point at a time
    shapes = set()
    for a in bench_factors():
        shapes.add(a.shape[-2:])
        sv = np.linalg.svd(a, compute_uv=False)
        expected = np.stack([np.log1p(s2 * sv**2).sum(axis=-1) for s2 in grid.sigma2()])
        assert np.max(np.abs(log2det_grid(a, grid.sigma2()) - expected / math.log(2.0))) <= 1e-9
    # tall, wide and square factors all occur
    assert {np.sign(p - q) for p, q in shapes} == {-1, 0, 1}


@pytest.mark.parametrize("antennas", BENCH_ALL_USER + [c[:2] for c in BENCH_MODIFIED])
def test_phase1_factors_have_full_rank_on_their_short_side(antennas):
    # the eig:* rows count on it: each P_(i)^T is tall with full column rank,
    # and each joint factor J has exactly as many columns as its eig:joint target
    cfg = NetworkConfig(antennas, 0)
    ps = build_pilots(cfg, 3)
    for u in range(cfg.m):
        rows, cols = ps.without(u).T.shape
        assert rows >= cols == numerical_rank(ps.without(u)) == cfg.n_total - antennas[u]
    targets = {r.name: r.target for r in eig_growth_suite(ps)}
    for i, j in itertools.combinations(range(cfg.m), 2):
        jac = joint_jacobian(ps, i, j)
        assert jac.shape[0] >= jac.shape[1] == targets[f"eig:joint[{i + 1}-{j + 1}]"]


def test_verify_decomposes_only_stacks_whose_short_side_exceeds_2(write_scenario, monkeypatch,
                                                                   tmp_path):
    # one all-user verify: log2det_grid makes no svd and, since the Monte
    # Carlo factors of [2,2,2] all have a short side of 2, no eigvalsh; the
    # phase-1 curve makes one svd of Q^T and one eigvalsh per user over the
    # grid; every other svd (a rank the certificate rejects, if any) and
    # eigvalsh sees a short side above 2
    shapes = {key: [] for key in ("svd", "eigvalsh", "svd-log2det_grid",
                                  "eigvalsh-log2det_grid", "svd-phase1", "eigvalsh-phase1")}
    inside = []

    def within(tag, fn):
        def call(*args):
            inside.append(tag)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return call

    def counted(key, fn):
        def wrapper(a, *args, **kwargs):
            shapes[f"{key}-{inside[-1]}" if inside else key].append(np.shape(a)[-2:])
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(capacity, "log2det_grid", within("log2det_grid", capacity.log2det_grid))
    monkeypatch.setattr(cli, "phase1_curve", within("phase1", cli.phase1_curve))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    path = write_scenario("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2})
    assert cli.main(["verify", "--scenario", path, "--out", str(tmp_path / "v.csv")]) == 0
    assert shapes["svd-log2det_grid"] == shapes["eigvalsh-log2det_grid"] == []
    assert shapes["svd-phase1"] == [(4, 2)]
    assert shapes["eigvalsh-phase1"] == [(2, 2), (2, 2)]
    assert all(min(shape) > 2 for key in ("svd", "eigvalsh") for shape in shapes[key])


def test_capacity_curve_validation():
    grid = SnrGrid((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        CapacityCurve(grid, (1.0, 2.0), 0, (0.0, 0.0))
    with pytest.raises(ValueError):
        CapacityCurve(grid, (1.0, 2.0, 3.0), 0, (0.0, -1.0, 0.0))
    with pytest.raises(ValueError):
        CapacityCurve(grid, (1.0, 2.0, 3.0), 5, (0.0, 0.0, 0.0), -1.0)


def test_mc_argument_validation():
    cfg = NetworkConfig((1, 1), 0, k2=1)
    with pytest.raises(ValueError):
        cij_curve(cfg, 0, 0, UNIT_GRID, 10, 0)
    with pytest.raises(ValueError):
        cij_curve(cfg, 0, 1, UNIT_GRID, 0, 0)
    with pytest.raises(ValueError):
        cond_entropy_curve(0, 1, 1, UNIT_GRID, 10, 0)
