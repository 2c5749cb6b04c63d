import itertools
import math

import numpy as np
import pytest
from conftest import svd_rank

from anece_lab.model import NetworkConfig, TwoUserModifiedConfig
from anece_lab.numkernel import (
    cn_blocks,
    draw_channels,
    log2det_grid,
    numerical_rank,
    reciprocal_channel_covariance,
    sample_cn,
    substream,
    synth_modified_session,
    synth_phase1,
    synth_phase2,
)
from anece_lab.pilots import PilotSet, build_pilots, build_square_pilots
from anece_lab.verify import rank_oracle_suite


# --------------------------------------------------------------------------
# channel sampling
# --------------------------------------------------------------------------


def test_reciprocity_is_exact():
    cfg = NetworkConfig((2, 3, 1), 2, k2=1)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(0, "channels"), ())
    for (i, j), h in ch.user_channels.items():
        assert np.max(np.abs(h - ch.user_channels[(j, i)].T)) == 0.0
    assert ch.user_channels[(0, 1)].shape == (2, 3)
    assert ch.eve_stacked.shape == (2, 6)
    assert ch.channel_to(0).shape == (2, 4)
    assert ch.channel_to(2).shape == (1, 5)


def test_trivial_reciprocity_two_scalars():
    ch = draw_channels((1, 1), 1, substream(3, "channels"), ())
    assert ch.user_channels[(0, 1)].shape == (1, 1)
    assert ch.user_channels[(0, 1)][0, 0] == ch.user_channels[(1, 0)][0, 0]


def test_unit_total_variance():
    # 10^5 entries in one draw
    cfg = NetworkConfig((100, 1000), 0, k2=1)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(42, "channels"), ())
    mean_sq = float(np.mean(np.abs(ch.user_channels[(0, 1)]) ** 2))
    assert abs(mean_sq - 1.0) <= 0.02


def test_channel_determinism():
    cfg = NetworkConfig((2, 2), 3, k2=1)
    a = draw_channels(cfg.antennas, cfg.n_eve, substream(7, "channels"), ())
    b = draw_channels(cfg.antennas, cfg.n_eve, substream(7, "channels"), ())
    c = draw_channels(cfg.antennas, cfg.n_eve, substream(8, "channels"), ())
    assert np.array_equal(a.user_channels[(0, 1)], b.user_channels[(0, 1)])
    assert np.array_equal(a.eve_stacked, b.eve_stacked)
    assert not np.array_equal(a.user_channels[(0, 1)], c.user_channels[(0, 1)])


# --------------------------------------------------------------------------
# phase synthesis
# --------------------------------------------------------------------------


def test_phase1_zero_power_is_pure_unit_noise():
    cfg = NetworkConfig((4, 4), 0, k1=500, k2=1)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(1, "channels"), ())
    ps = build_pilots(cfg, 1)
    sig = synth_phase1(ch, ps, 0.0, 2)
    entries = sig.user_rx[0].ravel()
    assert abs(float(np.mean(np.abs(entries) ** 2)) - 1.0) <= 0.1


def test_phase1_high_power_reveals_the_channel():
    cfg = NetworkConfig((1, 1), 0, k1=1, k2=1)
    ps = PilotSet((np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])))
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(5, "channels"), ())
    sigma = 1000.0
    sig = synth_phase1(ch, ps, sigma, 6)
    assert abs(sig.user_rx[0][0, 0] / sigma - ch.user_channels[(0, 1)][0, 0]) <= 0.05


def test_phase1_noiseless_matches_orthonormal_factorization():
    cfg = NetworkConfig((2, 3), 4, k2=2)
    ps = build_pilots(cfg, 1)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(2, "channels"), ())
    sig = synth_phase1(ch, ps, 3.0, 0, noise_scale=0.0)
    expected = 3.0 * ch.eve_stacked @ ps.stacked
    resid = np.linalg.norm(sig.eve_rx - expected) / np.linalg.norm(expected)
    assert resid <= 1e-10


def test_phase2_two_users_hear_only_each_other():
    cfg = NetworkConfig((1, 1), 2, k2=1)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(4, "channels"), ())
    sig = synth_phase2(ch, cfg, 2.0, 5, noise_scale=0.0)
    assert np.allclose(sig.user_rx[1], 2.0 * ch.user_channels[(1, 0)] @ sig.symbols[0])
    assert np.allclose(sig.user_rx[0], 2.0 * ch.user_channels[(0, 1)] @ sig.symbols[1])
    assert np.allclose(
        sig.eve_rx, 2.0 * ch.eve_stacked @ np.vstack(sig.symbols)
    )


def test_phase2_shapes_and_fresh_symbols():
    cfg = NetworkConfig((2, 3, 1), 2, k2=4)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(4, "channels"), ())
    a = synth_phase2(ch, cfg, 1.0, 5)
    b = synth_phase2(ch, cfg, 1.0, 6)
    assert a.symbols[0].shape == (2, 4)
    assert a.user_rx[2].shape == (1, 4)
    assert a.eve_rx.shape == (2, 4)
    assert not np.array_equal(a.symbols[0], b.symbols[0])
    again = synth_phase2(ch, cfg, 1.0, 5)
    assert np.array_equal(a.user_rx[0], again.user_rx[0])


def test_phase2_empirical_covariance_matches_model():
    # cov(vec(Y_1)) = I_{K_2} kron (sigma2 * H_1 H_1^H + I)
    cfg = NetworkConfig((2, 2), 0, k2=2)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(11, "channels"), ())
    h1 = ch.channel_to(0)
    target = np.kron(np.eye(cfg.k2), h1 @ h1.conj().T + np.eye(2))
    acc = np.zeros_like(target, dtype=complex)
    n_draws = 10_000
    for d in range(n_draws):
        y = synth_phase2(ch, cfg, 1.0, d).user_rx[0].flatten(order="F")
        acc += np.outer(y, y.conj())
    est = acc / n_draws
    assert np.linalg.norm(est - target) / np.linalg.norm(target) <= 0.05


def test_modified_session_layout_noiseless():
    c2u = TwoUserModifiedConfig(1, 2, 3, 2)
    pp = build_square_pilots(c2u, 4)
    ch = draw_channels((1, 2), 2, substream(9, "channels"), ())
    sig = synth_modified_session(c2u, pp, ch, 2.0, 1, noise_scale=0.0)
    assert sig.y1_p1.shape == (1, 2)
    assert sig.y2_p1.shape == (2, 1)
    assert sig.y1_p2.shape == (1, 1)  # K - N_2 columns
    assert sig.y2_p2.shape == (2, 2)  # K - N_1 columns
    assert sig.eve_rx_full.shape == (2, 3)
    first_col = 2.0 * ch.eve_stacked @ np.vstack([pp.p1[:, :1], pp.p2[:, :1]])
    assert np.allclose(sig.eve_rx_full[:, :1], first_col)


def test_modified_session_equal_antennas_degenerates():
    # with N_1 = N_2 both pilots span the same slots and Eve's reception is
    # exactly sigma * H_E [[P1, X1], [P2, X2]]; recover X from the noiseless
    # user receptions to rebuild her full matrix
    c2u = TwoUserModifiedConfig(2, 2, 4, 3)
    pp = build_square_pilots(c2u, 0)
    ch = draw_channels((2, 2), 3, substream(2, "channels"), ())
    sigma = 2.0
    sig = synth_modified_session(c2u, pp, ch, sigma, 1, noise_scale=0.0)
    pilot_cols = sigma * ch.eve_stacked @ np.vstack([pp.p1, pp.p2])
    assert np.allclose(sig.eve_rx_full[:, :2], pilot_cols)
    x1 = np.linalg.solve(sigma * ch.user_channels[(1, 0)], sig.y2_p2)
    x2 = np.linalg.solve(sigma * ch.user_channels[(0, 1)], sig.y1_p2)
    symbol_cols = sigma * ch.eve_stacked @ np.vstack([x1, x2])
    assert np.allclose(sig.eve_rx_full[:, 2:], symbol_cols)


def test_modified_session_rejects_mismatched_channels():
    c2u = TwoUserModifiedConfig(1, 2, 3, 2)
    pp = build_square_pilots(c2u, 4)
    ch = draw_channels((2, 2), 2, substream(9, "channels"), ())
    with pytest.raises(ValueError):
        synth_modified_session(c2u, pp, ch, 1.0, 0)


# --------------------------------------------------------------------------
# numeric primitives
# --------------------------------------------------------------------------


def test_logdet_examples():
    assert np.all(log2det_grid(np.zeros((3, 3)), [1.0, 2.0**40]) == 0.0)
    assert log2det_grid(np.eye(3), [0.0])[0] == 0.0
    # I + A A^H = diag(2, 4)
    assert abs(log2det_grid(np.diag([1.0, math.sqrt(3.0)]), [1.0])[0] - 3.0) < 1e-12
    assert log2det_grid(np.zeros((5, 2, 3)), [1.0, 2.0, 4.0, 8.0]).shape == (4, 5)
    # short sides of 1 and 2 with a zero column or no nonzero entry: never nan
    assert np.all(log2det_grid(np.zeros((4, 5, 2)), [1.0, 2.0**40]) == 0.0)
    assert np.all(log2det_grid(np.zeros((4, 1, 5)), [1.0, 2.0**40]) == 0.0)
    # I + A A^H = [[2, 1], [1, 2]], eigenvalues 3 and 1
    assert abs(log2det_grid(np.array([[0.0, 1.0], [0.0, 1.0]]), [1.0])[0] - math.log2(3.0)) < 1e-12


def test_logdet_gram_plus_identity_is_nonnegative():
    a = sample_cn(substream(0, "test-logdet"), (20, 4, 4))
    assert np.all(log2det_grid(a, [2.0**-10, 1.0, 2.0**20]) >= 0.0)


def test_logdet_block_additivity():
    rng = substream(1, "test-logdet")
    a = sample_cn(rng, (3, 3))
    b = sample_cn(rng, (2, 2))
    block = np.zeros((5, 5), dtype=complex)
    block[:3, :3], block[3:, 3:] = a, b
    grid = [1.0, 2.0**12, 2.0**24]
    diff = log2det_grid(a, grid) + log2det_grid(b, grid) - log2det_grid(block, grid)
    assert np.max(np.abs(diff)) <= 1e-8


def test_logdet_rank_deficient_factor_is_finite_at_huge_power():
    # a Cholesky of s2 * A A^H + I fails here; the singular-value form does not
    rng = substream(2, "test-logdet")
    a = sample_cn(rng, (4, 2)) @ sample_cn(rng, (2, 3))
    s2 = 2.0**1000
    value = log2det_grid(a, [s2])[0]
    assert math.isfinite(value)
    top_two = np.linalg.svd(a, compute_uv=False)[:2]
    assert value >= float(np.sum(np.log2(s2 * top_two**2))) - 1e-9


@pytest.mark.parametrize("shape", [(6, 1, 4), (6, 3, 3), (6, 5, 2), (2, 3, 7, 4), (6, 2, 5),
                                   (6, 2, 2)])
def test_logdet_matches_singular_values_from_either_side(shape):
    # tall, square and wide stacks, complex and real, against
    # sum_k log2(1 + s2 s_k^2) over the singular values
    grid = [2.0**-1000, 2.0**-20, 1.0, 2.0**40, 2.0**1000]
    rng = substream(3, "test-logdet")
    for a in (sample_cn(rng, shape), rng.standard_normal(shape)):
        sv = np.linalg.svd(a, compute_uv=False)
        expected = np.stack([np.log2(1.0 + s2 * sv**2).sum(axis=-1) for s2 in grid])
        assert np.max(np.abs(log2det_grid(a, grid) - expected)) <= 1e-9


def test_cn_blocks_are_prefix_stable():
    # the first S samples of a 2S-sample draw equal an S-sample draw
    long = np.concatenate(list(cn_blocks(3, "test-blocks", 600, 5)))
    short = np.concatenate(list(cn_blocks(3, "test-blocks", 300, 5)))
    assert long.shape == (600, 5)
    assert np.array_equal(long[:300], short)
    assert abs(float(np.mean(np.abs(long) ** 2)) - 1.0) <= 0.1


def test_numerical_rank_examples():
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.array([[2**40, 1], [2**40, 1]])) == 1
    u = np.array([1.0, 2.0, 0.5])
    v = np.array([3.0, -1.0])
    assert numerical_rank(np.outer(u, v)) == 1
    assert numerical_rank(np.zeros((3, 2))) == 0
    assert numerical_rank(np.zeros((0, 4))) == 0
    ps = build_pilots(NetworkConfig((2, 3), 0, k2=1), 9)
    assert numerical_rank(ps.stacked) == 3
    # a stack is ranked matrix by matrix, each against its own largest singular value
    stack = np.stack([np.eye(3), np.outer(u, [3.0, -1.0, 2.0]), np.zeros((3, 3))])
    assert numerical_rank(stack).tolist() == [3, 1, 0]
    assert numerical_rank(np.zeros((0, 3, 3))).shape == (0,)


def rank_cases(rng, p, q):
    """Gaussian and deliberately degenerate p x q matrices, real and complex,
    each with its rank."""
    n = min(p, q)
    for draw in (lambda shape: sample_cn(rng, shape), rng.standard_normal):
        yield draw((5, p, q)), n
        yield np.zeros((p, q)), 0
        if n == 0:
            continue
        col = draw((p, 1))
        yield np.hstack([col] * q), 1  # every column repeated
        yield col @ draw((1, q)), 1  # an outer product
        a = draw((p, q))
        a[:, 0] = 0.0  # a zero column
        yield a, min(p, q - 1)
        # full rank at s_min/s_max = 1e-9, deficient at 1e-15
        u = np.linalg.qr(draw((p, n)))[0]
        v = np.linalg.qr(draw((q, n)))[0]
        yield (u * np.geomspace(1.0, 1e-9, n)) @ v.conj().T, n
        yield (u * np.geomspace(1.0, 1e-15, n)) @ v.conj().T, 1 if n == 1 else n - 1


@pytest.mark.parametrize("p, q", [(0, 3), (1, 1), (1, 4), (5, 1), (2, 2), (2, 6), (7, 2),
                                  (3, 3), (3, 5), (6, 3)])
def test_numerical_rank_matches_an_svd_reference(p, q):
    # short sides 0 to 3, tall, wide and square, at entry scales 2^-600, 1 and
    # 2^600, and 2^-532, where the Gram's entries are subnormal
    for a, rank in rank_cases(substream(4, "test-rank", p, q), p, q):
        expected = svd_rank(a)
        assert np.all(expected == rank)
        for scale in (2.0**-600, 2.0**-532, 1.0, 2.0**600):
            assert np.array_equal(numerical_rank(a * scale), expected), (a.shape, rank, scale)


def svd_calls(monkeypatch):
    """Patch ``np.linalg.svd`` to record every array it is handed; returns the record."""
    seen, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return seen


@pytest.mark.parametrize("p, q", [(7, 3), (3, 7), (4, 4)])
@pytest.mark.parametrize("degenerate", ["repeated-column", "s_min-1e-15"])
def test_one_degenerate_matrix_sends_its_stack_to_the_svd(monkeypatch, p, q, degenerate):
    rng = substream(5, "test-certificate-stack", p, q)
    stack = sample_cn(rng, (100, p, q))
    if degenerate == "repeated-column":
        tall = stack[37] if p >= q else stack[37].T  # a view: columns of the short side
        tall[:, 1] = tall[:, 0]
    else:  # s_min/s_max = 1e-15
        u, s, vh = np.linalg.svd(stack[37])
        s[-1] = 1e-15 * s[0]
        stack[37] = (u[:, :len(s)] * s) @ vh[:len(s)]
    expected = svd_rank(stack)
    seen = svd_calls(monkeypatch)
    ranks = numerical_rank(stack)
    assert len(seen) == 1  # the certificate rejected the stack
    assert np.array_equal(ranks, expected)
    assert ranks[37] == min(p, q) - 1 and np.all(np.delete(ranks, 37) == min(p, q))


@pytest.mark.parametrize("p, q", [(7, 3), (3, 7), (4, 4)])
@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
def test_certificate_holds_down_to_its_shift(monkeypatch, p, q, side):
    # n - 1 unit singular values and s_min^2 / tr(G) just either side of 2^-20
    share = 2.0**-20 * (1 + side * 2.0**-8)
    n = min(p, q)
    s = np.ones(n)
    s[-1] = math.sqrt(share * (n - 1) / (1 - share))
    rng = substream(6, "test-certificate-shift", p, q)
    u = np.linalg.qr(sample_cn(rng, (p, n)))[0]
    v = np.linalg.qr(sample_cn(rng, (q, n)))[0]
    a = (u * s) @ v.conj().T
    assert svd_rank(a) == n
    seen = svd_calls(monkeypatch)
    assert numerical_rank(a) == n
    assert len(seen) == (0 if side > 0 else 1)


def test_rank_oracle_takes_svds_only_of_the_reciprocal_covariances(monkeypatch):
    # every drawn stack of all-user [1,2,3,4] is certified at this seed; the
    # covariances are rank-deficient by construction, so each needs its SVD
    antennas = (1, 2, 3, 4)
    seen = svd_calls(monkeypatch)
    assert all(r.passed for r in rank_oracle_suite(NetworkConfig(antennas, 6, k2=1), 5))
    covs = [reciprocal_channel_covariance(antennas, i, j)
            for i, j in itertools.combinations(range(len(antennas)), 2)]
    assert len(seen) == len(covs)
    assert all(np.array_equal(a, cov) for a, cov in zip(seen, covs))


@pytest.mark.parametrize("antennas", [(1, 1), (2, 2), (2, 3), (1, 2, 3), (2, 2, 2)])
def test_reciprocal_covariance_rank_deficiency(antennas):
    n_t = sum(antennas)
    m = len(antennas)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            cov = reciprocal_channel_covariance(antennas, i, j)
            dim_i = antennas[i] * (n_t - antennas[i])
            dim_j = antennas[j] * (n_t - antennas[j])
            expected = dim_i + dim_j - antennas[i] * antennas[j]
            assert numerical_rank(cov) == expected
            # unit diagonal plus one symmetric pair of ones per shared entry
            assert set(np.unique(cov)) <= {0.0, 1.0} and np.all(np.diag(cov) == 1.0)
            assert cov.sum() == len(cov) + 2 * antennas[i] * antennas[j]
