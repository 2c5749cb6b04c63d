import math

import numpy as np
import pytest
from conftest import channel_basis, receive, svd_rank, vec_batch

from anece_lab.model import NetworkConfig, TwoUserModifiedConfig
from anece_lab.numkernel import (
    EVE,
    _short_side_spectrum,
    cn_blocks,
    draw_channels,
    log2det_grid,
    numerical_rank,
    sample_cn,
    substream,
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
    assert ch.link([EVE]).shape == (2, 6)
    assert ch.link([0]).shape == (2, 4)
    assert ch.link([2]).shape == (1, 5)


def test_trivial_reciprocity_two_scalars():
    ch = draw_channels((1, 1), 1, substream(3, "channels"), ())
    assert ch.user_channels[(0, 1)].shape == (1, 1)
    assert ch.user_channels[(0, 1)][0, 0] == ch.user_channels[(1, 0)][0, 0]


def test_draw_channels_takes_integer_antenna_counts_only():
    ch = draw_channels((np.int64(1), 2), 1, substream(3, "channels"), ())
    assert ch.antennas == (1, 2) and ch.link([EVE]).shape == (1, 3)
    with pytest.raises(ValueError, match="antenna counts must be integers"):
        draw_channels((1, 2.7), 1, substream(3, "channels"), ())


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
    assert np.array_equal(a.link([EVE]), b.link([EVE]))
    assert not np.array_equal(a.user_channels[(0, 1)], c.user_channels[(0, 1)])


# --------------------------------------------------------------------------
# reception: the reference ``receive`` of conftest, and link against it
# --------------------------------------------------------------------------


@pytest.mark.parametrize("channels", ["one", "batch", "basis"])
def test_receive_sums_every_pair_in_channel_order(channels):
    # unequal antennas, so a column of H_(i) or H_E that meets the wrong row
    # of the transmit stack changes a shape or a sum; pair by pair, per
    # realization of the leading axis
    antennas, k = (1, 2, 3), 4
    rng = substream(3, "receive")
    if channels == "basis":
        ch, n_eve = channel_basis(antennas), 0
    else:
        n_eve = 2
        ch = draw_channels(antennas, n_eve, rng, () if channels == "one" else (5,))
    tx = tuple(sample_cn(rng, (n, k)) for n in antennas)
    user_rx, eve_rx = receive(ch, tx)
    for b in np.ndindex(ch.eve_channels[0].shape[:-2]):
        for i in range(3):
            want = sum(ch.user_channels[(i, j)][b] @ tx[j] for j in range(3) if j != i)
            assert user_rx[i][b].shape == (antennas[i], k)
            assert np.allclose(user_rx[i][b], want, rtol=0, atol=1e-12)
        want = sum(h[b] @ x for h, x in zip(ch.eve_channels, tx, strict=True))
        assert eve_rx[b].shape == (n_eve, k)
        assert np.allclose(eve_rx[b], want, rtol=0, atol=1e-12)


def unit_block_receptions(ch, rx, tx):
    """The receptions of ``rx``, stacked in order, when the users ``tx`` send
    consecutive row blocks of one identity matrix, in ``tx`` order, and
    every other user sends zeros."""
    sizes = [ch.antennas[t] for t in tx]
    eye = np.eye(sum(sizes))
    blocks = [np.zeros((n, len(eye))) for n in ch.antennas]
    for t, lo, n in zip(tx, np.cumsum([0] + sizes), sizes):
        blocks[t] = eye[lo:lo + n]
    user_rx, eve_rx = receive(ch, tuple(blocks))
    return np.concatenate([eve_rx if r == EVE else user_rx[r] for r in rx], axis=-2)


@pytest.mark.parametrize("channels", ["one", "batch", "basis"])
@pytest.mark.parametrize("antennas", [(1, 2, 3), (2, 2, 2)])
@pytest.mark.parametrize("rx", [[0], [2], [0, 1], [2, 0], [1, EVE], [EVE]],
                         ids=["i=1", "i=3", "ij=12", "ij=31", "iE=2E", "E"])
def test_link_is_the_reception_of_unit_blocks(channels, antennas, rx):
    # link(rx, tx) is what rx hears when each user in tx sends its unit
    # block; the default tx is every user outside rx, and any order of tx
    # orders the column blocks
    rng = substream(4, "link")
    if channels == "basis":
        ch = channel_basis(antennas)
    else:
        ch = draw_channels(antennas, 2, rng, () if channels == "one" else (5,))
    default = [u for u in range(len(antennas)) if u not in rx]
    assert np.array_equal(ch.link(rx), unit_block_receptions(ch, rx, default))
    for tx in (default[::-1], default[:1], default[-1:]):
        assert np.array_equal(ch.link(rx, tx), unit_block_receptions(ch, rx, tx))


@pytest.mark.parametrize("rx, tx", [
    ([0], [0, 1]), ([1, EVE], [2, 1]), ([0], [EVE]), ([0, 1, 2], None), ([], None), ([0], []),
], ids=["overlap", "overlap-with-eve", "eve-sends", "no-one-left", "no-receiver", "no-sender"])
def test_link_refuses_overlapping_or_empty_ends(rx, tx):
    ch = draw_channels((1, 2, 3), 2, substream(4, "link"), ())
    with pytest.raises(ValueError):
        ch.link(rx, tx)


@pytest.mark.parametrize("rows", [(1, 3, 2), (1, 2), (1, 2, 3, 1)])
def test_receive_refuses_a_block_of_the_wrong_height(rows):
    ch = draw_channels((1, 2, 3), 2, substream(3, "receive"), ())
    with pytest.raises(ValueError):
        receive(ch, tuple(np.ones((n, 4)) for n in rows))


def test_phase1_high_power_reveals_the_channel():
    ps = PilotSet((np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])))
    ch = draw_channels((1, 1), 0, substream(5, "channels"), ())
    sigma = 1000.0
    y = sigma * receive(ch, ps.blocks)[0][0] + sample_cn(substream(6, "noise"), (1, 1))
    assert abs(y[0, 0] / sigma - ch.user_channels[(0, 1)][0, 0]) <= 0.05


def test_phase1_noiseless_matches_orthonormal_factorization():
    cfg = NetworkConfig((2, 3), 4, k2=2)
    ps = build_pilots(cfg, 1)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(2, "channels"), ())
    expected = ch.link([EVE]) @ ps.stacked
    resid = np.linalg.norm(receive(ch, ps.blocks)[1] - expected) / np.linalg.norm(expected)
    assert resid <= 1e-10


def draw_symbols(antennas, k2, seed):
    """Phase-2 symbols X_i, N_i x K_2 with i.i.d. CN(0, 1) entries."""
    rng = substream(seed, "symbols")
    return tuple(sample_cn(rng, (n, k2)) for n in antennas)


def test_phase2_two_users_hear_only_each_other():
    cfg = NetworkConfig((1, 1), 2, k2=1)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(4, "channels"), ())
    symbols = draw_symbols(cfg.antennas, cfg.k2, 5)
    user_rx, eve_rx = receive(ch, symbols)
    assert np.allclose(user_rx[1], ch.user_channels[(1, 0)] @ symbols[0])
    assert np.allclose(user_rx[0], ch.user_channels[(0, 1)] @ symbols[1])
    assert np.allclose(eve_rx, ch.link([EVE]) @ np.vstack(symbols))


def test_phase2_shapes_and_fresh_symbols():
    cfg = NetworkConfig((2, 3, 1), 2, k2=4)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(4, "channels"), ())
    a = receive(ch, draw_symbols(cfg.antennas, cfg.k2, 5))
    b = receive(ch, draw_symbols(cfg.antennas, cfg.k2, 6))
    assert [y.shape for y in a[0]] == [(2, 4), (3, 4), (1, 4)]
    assert a[1].shape == (2, 4)
    assert not np.array_equal(a[0][0], b[0][0])
    again = receive(ch, draw_symbols(cfg.antennas, cfg.k2, 5))
    assert np.array_equal(a[0][0], again[0][0])
    assert np.array_equal(a[1], again[1])


def test_phase2_empirical_covariance_matches_model():
    # cov(vec(Y_1)) = I_{K_2} kron (sigma2 * H_1 H_1^H + I), at sigma2 = 1 under
    # unit noise; draw d sends the K_2 columns d*K_2 ... (d+1)*K_2 - 1
    cfg = NetworkConfig((2, 2), 0, k2=2)
    ch = draw_channels(cfg.antennas, cfg.n_eve, substream(11, "channels"), ())
    h1 = ch.link([0])
    target = np.kron(np.eye(cfg.k2), h1 @ h1.conj().T + np.eye(2))
    n_draws = 10_000
    y = receive(ch, draw_symbols(cfg.antennas, n_draws * cfg.k2, 12))[0][0]
    y = y + sample_cn(substream(13, "noise"), y.shape)
    v = y.T.reshape(n_draws, -1)  # row d is vec(Y_1) of draw d
    est = v.T @ v.conj() / n_draws
    assert np.linalg.norm(est - target) / np.linalg.norm(target) <= 0.05


def modified_session(c2u, pp, ch, seed):
    """One noiseless modified two-user session on the realization ``ch``.

    Node 1 sends [P1 | X1] and node 2 [P2 | X2] over K slots; node 1 hears
    node 2's pilot for N_2 slots, node 2 node 1's for N_1.  Returns the
    symbols, both nodes' pilot-phase and symbol-phase receptions, and Eve's.
    """
    n1, n2, k = c2u.n1, c2u.n2, c2u.k_total
    rng = substream(seed, "symbols")
    x1, x2 = sample_cn(rng, (n1, k - n1)), sample_cn(rng, (n2, k - n2))
    (y1, y2), eve_rx = receive(ch, (np.hstack([pp.p1, x1]), np.hstack([pp.p2, x2])))
    return (x1, x2), (y1[:, :n2], y2[:, :n1]), (y1[:, n2:], y2[:, n1:]), eve_rx


def test_modified_session_layout_noiseless():
    c2u = TwoUserModifiedConfig(1, 2, 3, 2)
    pp = build_square_pilots(c2u, 4)
    ch = draw_channels((1, 2), 2, substream(9, "channels"), ())
    (x1, x2), (y1_p1, y2_p1), (y1_p2, y2_p2), eve_rx = modified_session(c2u, pp, ch, 1)
    assert y1_p1.shape == (1, 2)
    assert y2_p1.shape == (2, 1)
    assert y1_p2.shape == (1, 1)  # K - N_2 columns
    assert y2_p2.shape == (2, 2)  # K - N_1 columns
    assert eve_rx.shape == (2, 3)
    assert np.allclose(y1_p1, ch.user_channels[(0, 1)] @ pp.p2)
    assert np.allclose(y2_p2, ch.user_channels[(1, 0)] @ x1)
    first_col = ch.link([EVE]) @ np.vstack([pp.p1[:, :1], pp.p2[:, :1]])
    assert np.allclose(eve_rx[:, :1], first_col)


def test_modified_session_equal_antennas_degenerates():
    # with N_1 = N_2 both pilots span the same slots and Eve's reception is
    # exactly H_E [[P1, X1], [P2, X2]]; recover X from the noiseless user
    # receptions to rebuild her full matrix
    c2u = TwoUserModifiedConfig(2, 2, 4, 3)
    pp = build_square_pilots(c2u, 0)
    ch = draw_channels((2, 2), 3, substream(2, "channels"), ())
    _, _, (y1_p2, y2_p2), eve_rx = modified_session(c2u, pp, ch, 1)
    assert np.allclose(eve_rx[:, :2], ch.link([EVE]) @ np.vstack([pp.p1, pp.p2]))
    x1 = np.linalg.solve(ch.user_channels[(1, 0)], y2_p2)
    x2 = np.linalg.solve(ch.user_channels[(0, 1)], y1_p2)
    assert np.allclose(eve_rx[:, 2:], ch.link([EVE]) @ np.vstack([x1, x2]))


def test_modified_session_rejects_mismatched_channels():
    c2u = TwoUserModifiedConfig(1, 2, 3, 2)
    pp = build_square_pilots(c2u, 4)
    ch = draw_channels((2, 2), 2, substream(9, "channels"), ())
    with pytest.raises(ValueError):
        modified_session(c2u, pp, ch, 0)


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


def _gaussian(rng, real, shape):
    return rng.standard_normal(shape) if real else sample_cn(rng, shape)


def _with_singular_values(rng, real, values, shape=(3, 3)):
    """200 matrices of ``shape`` with singular values ``values``, in random bases."""
    p, q = shape
    core = np.zeros(shape)
    core[range(3), range(3)] = values
    return np.stack([np.linalg.qr(_gaussian(rng, real, (p, p)))[0] @ core
                     @ np.linalg.qr(_gaussian(rng, real, (q, q)))[0] for _ in range(200)])


def _repeated_and_zero_columns(rng, real):
    a = _gaussian(rng, real, (60, 5, 3))
    a[:20, :, 2] = a[:20, :, 1]  # a repeated column: rank 2
    a[20:40, :, 0] = 0.0  # a zero column: rank 2
    a[40:, :, 2], a[40:, :, 1] = a[40:, :, 0], 0.0  # both: rank 1
    return a


# 3 x 3 Grams the cubic must solve as accurately as eigvalsh: Gaussian stacks,
# square, tall and wide; double roots at either end and far below the largest
# root, and a triple root; ranks 2 and 1; and entries of 2^-300 and 2^300,
# whose Grams are near float64's ends
SHORT_SIDE_3_CASES = {
    "gaussian-square": lambda rng, real: _gaussian(rng, real, (200, 3, 3)),
    "gaussian-tall": lambda rng, real: _gaussian(rng, real, (200, 7, 3)),
    "gaussian-wide": lambda rng, real: _gaussian(rng, real, (200, 3, 5)),
    "two-equal-top": lambda rng, real: _with_singular_values(rng, real, (1.0, 1.0, 0.5)),
    "two-equal-bottom": lambda rng, real: _with_singular_values(rng, real, (1.0, 0.5, 0.5)),
    "two-equal-tiny": lambda rng, real: _with_singular_values(rng, real, (1.0, 1e-4, 1e-4)),
    "three-equal": lambda rng, real: _with_singular_values(rng, real, (2.0, 2.0, 2.0), (4, 3)),
    "repeated-and-zero-columns": _repeated_and_zero_columns,
    "scale-2^-300": lambda rng, real: 2.0**-300 * _gaussian(rng, real, (200, 3, 6)),
    "scale-2^300": lambda rng, real: 2.0**300 * _gaussian(rng, real, (200, 6, 3)),
}


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("case", list(SHORT_SIDE_3_CASES))
def test_short_side_3_spectrum_matches_eigvalsh(case, real):
    # every eigenvalue within 32 u tr(G) of eigvalsh's, with u = 2^-53
    a = SHORT_SIDE_3_CASES[case](substream(4, "test-cubic"), real)
    tall = a if a.shape[-2] >= a.shape[-1] else np.swapaxes(a, -1, -2)
    gram = np.conj(np.swapaxes(tall, -1, -2)) @ tall
    expected = np.linalg.eigvalsh(gram).T
    got = np.sort(_short_side_spectrum(a), axis=0)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 2.0**-48 * np.trace(gram, axis1=-2, axis2=-1).real)


def test_short_side_3_zero_matrix_gives_exactly_zero():
    for shape in [(4, 3, 3), (4, 3, 5), (4, 6, 3)]:
        assert np.all(_short_side_spectrum(np.zeros(shape)) == 0.0)
        grid = [1.0, 2.0**40, 2.0**1000]
        assert np.all(log2det_grid(np.zeros(shape, dtype=complex), grid) == 0.0)


def test_cn_blocks_are_prefix_stable():
    # the first S samples of a 2S-sample draw equal an S-sample draw
    long = np.concatenate(list(cn_blocks(3, "test-blocks", 600, 5)))
    short = np.concatenate(list(cn_blocks(3, "test-blocks", 300, 5)))
    assert long.shape == (600, 5)
    assert np.array_equal(long[:300], short)
    assert abs(float(np.mean(np.abs(long) ** 2)) - 1.0) <= 0.1


def test_numerical_rank_examples():
    assert numerical_rank(np.eye(3)) == 3
    assert numerical_rank(np.eye(3, dtype=np.float32)) == 3  # ranked in float64
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
        yield draw((2, 3, p, q)), n  # two batch axes
    if n:
        ints = rng.integers(-2**40, 2**40, (3, p, q))  # an integer Gram would wrap
        ints[1] = ints[1, :, :1]  # every column repeated
        ints[2] = 0
        yield ints, np.array([n, 1, 0])


@pytest.mark.parametrize("p, q", [(0, 3), (1, 1), (1, 4), (5, 1), (2, 2), (2, 6), (7, 2),
                                  (3, 3), (3, 5), (6, 3)])
def test_numerical_rank_matches_an_svd_reference(p, q):
    # short sides 0 to 3, tall, wide and square, as given and at entry scales
    # 2^-600, 1 and 2^600, and 2^-532, where the Gram's entries are subnormal
    for a, rank in rank_cases(substream(4, "test-rank", p, q), p, q):
        expected = svd_rank(a)
        assert np.all(expected == rank)
        assert np.array_equal(numerical_rank(a), expected), (a.dtype, a.shape, rank)
        for scale in (2.0**-600, 2.0**-532, 1.0, 2.0**600):
            assert np.array_equal(numerical_rank(a * scale), expected), (a.shape, rank, scale)


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (4, 0, 3)])
def test_an_empty_side_has_rank_0_without_linalg(monkeypatch, shape):
    # an M = 2 eig:joint row ranks the empty stack of the other users' pilots
    def called(*args, **kwargs):
        raise AssertionError("np.linalg was called")

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, called)
    ranks = numerical_rank(np.zeros(shape, dtype=complex))
    assert np.shape(ranks) == shape[:-2] and np.all(ranks == 0)
    assert np.asarray(ranks).dtype.kind == "i"


def svd_calls(monkeypatch):
    """Patch ``np.linalg.svd`` to record every array it is handed; returns the record."""
    seen, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return seen


def make_degenerate(stack, k, degenerate):
    """Make matrix ``k`` of ``stack`` lose one rank in place."""
    if degenerate == "repeated-column":
        tall = stack[k] if stack.shape[-2] >= stack.shape[-1] else stack[k].T  # short-side columns
        tall[:, 1] = tall[:, 0]
    else:  # s_min/s_max = 1e-15
        u, s, vh = np.linalg.svd(stack[k])
        s[-1] = 1e-15 * s[0]
        stack[k] = (u[:, :len(s)] * s) @ vh[:len(s)]


@pytest.mark.parametrize("p, q", [(7, 3), (3, 7), (4, 4)])
@pytest.mark.parametrize("degenerate", ["repeated-column", "s_min-1e-15"])
@pytest.mark.parametrize("bad", [(37,), (0, 99)], ids=["one", "two"])
def test_degenerate_matrices_alone_go_to_the_svd(monkeypatch, p, q, degenerate, bad):
    rng = substream(5, "test-certificate-stack", p, q)
    stack = sample_cn(rng, (100, p, q))
    for k in bad:
        make_degenerate(stack, k, degenerate)
    expected = svd_rank(stack)
    seen = svd_calls(monkeypatch)
    ranks = numerical_rank(stack)
    # one SVD, of the rejected matrices only, each turned tall
    rejected = stack[list(bad)]
    tall = rejected if p >= q else np.swapaxes(rejected, -1, -2)
    assert len(seen) == 1 and np.array_equal(seen[0], tall)
    assert np.array_equal(ranks, expected)
    assert np.all(ranks[list(bad)] == min(p, q) - 1)
    assert np.all(np.delete(ranks, bad) == min(p, q))


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


def reciprocal_covariance(antennas, i, j):
    """Exact covariance of users i and j's stacked receive-channel vectors,
    J^T J for the pair's channel Jacobian J: the numeric reference for the
    rank oracle's count of shared channel labels."""
    basis = channel_basis(antennas)
    jac = np.concatenate([vec_batch(basis.link([u])) for u in (i, j)], axis=1)
    return jac.T @ jac


def test_rank_oracle_takes_no_svd(monkeypatch):
    # every drawn stack of all-user [1,2,3,4] is certified at this seed, and the
    # reciprocal-covariance rows count channel labels instead of ranking J^T J
    seen = svd_calls(monkeypatch)
    assert all(r.passed for r in rank_oracle_suite(NetworkConfig((1, 2, 3, 4), 6, k2=1), 5))
    assert seen == []


@pytest.mark.parametrize("antennas", [(1, 1), (2, 2), (2, 3), (1, 2, 3), (2, 2, 2)])
def test_reciprocal_covariance_rank_deficiency(antennas):
    n_t = sum(antennas)
    m = len(antennas)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            cov = reciprocal_covariance(antennas, i, j)
            dim_i = antennas[i] * (n_t - antennas[i])
            dim_j = antennas[j] * (n_t - antennas[j])
            expected = dim_i + dim_j - antennas[i] * antennas[j]
            assert numerical_rank(cov) == expected
            # unit diagonal plus one symmetric pair of ones per shared entry
            assert set(np.unique(cov)) <= {0.0, 1.0} and np.all(np.diag(cov) == 1.0)
            assert cov.sum() == len(cov) + 2 * antennas[i] * antennas[j]
