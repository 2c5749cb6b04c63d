import itertools
import tracemalloc

import numpy as np
import pytest
from conftest import svd_rank

from anece_lab import pilots
from anece_lab.model import NetworkConfig, TwoUserModifiedConfig
from anece_lab.numkernel import numerical_rank, sample_cn, substream
from anece_lab.pilots import (
    PilotSet,
    build_pairwise_matrix,
    build_pilots,
    build_square_pilots,
    validate_pilots,
    write_matrix_text,
)


def test_minimal_two_user_pilot():
    cfg = NetworkConfig((1, 1), 0, k2=1)
    ps = build_pilots(cfg, 0)
    assert ps.stacked.shape == (2, 1)
    assert ps.blocks[0][0, 0] != 0 and ps.blocks[1][0, 0] != 0
    assert numerical_rank(ps.stacked) == 1


def test_three_single_antenna_users():
    cfg = NetworkConfig((1, 1, 1), 0, k2=1)
    assert cfg.k1 == 2
    ps = build_pilots(cfg, 5)
    assert numerical_rank(ps.stacked) == 2
    for i in range(3):
        assert numerical_rank(ps.without(i)) == 2


def test_without_removes_any_set_of_users():
    ps = build_pilots(NetworkConfig((1, 2, 3), 0, k2=1), 5)
    assert np.array_equal(ps.without(1), np.vstack([ps.blocks[0], ps.blocks[2]]))
    assert np.array_equal(ps.without(2, 0), ps.blocks[1])
    empty = ps.without(0, 1, 2)
    assert empty.shape == (0, 5) and empty.dtype == ps.stacked.dtype
    assert numerical_rank(empty) == 0


def test_hand_built_three_user_pilot_is_accepted():
    # rows (1,0), (0,1), (1,1): full stack rank 2 and every sub-stack full rank
    blocks = (
        np.array([[1.0 + 0j, 0.0]]),
        np.array([[0.0, 1.0 + 0j]]),
        np.array([[1.0 + 0j, 1.0]]),
    )
    assert validate_pilots(PilotSet(blocks)) == []


def test_mixed_antenna_ranks():
    cfg = NetworkConfig((2, 3), 0, k2=1)
    ps = build_pilots(cfg, 9)
    assert ps.stacked.shape == (5, 3)
    assert numerical_rank(ps.stacked) == 3
    assert numerical_rank(ps.blocks[0]) == 2
    assert numerical_rank(ps.blocks[1]) == 3
    assert numerical_rank(ps.without(0)) == 3
    assert numerical_rank(ps.without(1)) == 2


@pytest.mark.parametrize(
    "cfg",
    [
        NetworkConfig((1, 2), 0),
        NetworkConfig((2, 2, 3), 0),
        NetworkConfig((1, 1, 1, 2), 0, k1=7),  # k1 above the minimum: extra columns
    ],
)
def test_rank_conditions_hold_across_seeds(cfg):
    for seed in range(100):
        ps = build_pilots(cfg, seed)
        assert validate_pilots(ps) == []
        assert numerical_rank(ps.stacked) == cfg.n_total - cfg.n_min


@pytest.mark.parametrize("antennas", [
    (1, 2), (2, 3), (2, 2, 2), (1, 2, 3, 4), (1,) * 16, (3,) * 8, (2,) * 12, (10, 10), (16,) * 3,
    # unbalanced: dealt round-robin, the smaller user's roots would bunch on a
    # short arc and leave sigma_min^2 / sigma_max^2 at 0.12 / N_T on (2, 16),
    # 5e-6 / N_T on (4, 60) and below the rank threshold on (8, 1000)
    (2, 16), (4, 60), (8, 1000), (3, 5), (2, 9), (5, 7, 11), (3, 3, 40), (2, 50, 3), (4, 6, 9, 20),
], ids=lambda antennas: "-".join(map(str, antennas)))
def test_every_p_without_i_is_well_conditioned(antennas):
    # a measured floor, not a proven one: on these networks every P_(i) of the
    # design has sigma_min^2 / sigma_max^2 >= 1 / N_T, some with equality
    cfg = NetworkConfig(antennas, 0, k2=1)
    ps = build_pilots(cfg, 2)
    for i in range(cfg.m):
        s = np.linalg.svd(ps.without(i), compute_uv=False)
        assert s[-1] ** 2 / s[0] ** 2 >= (1 - 1e-9) / cfg.n_total


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("n", range(1, 6))
def test_p_without_i_conditioning_for_equal_antenna_counts(n, m):
    # user i's complement splits into M - 1 cosets of the N_T-th roots, so
    # P_(i) is a DFT_N times an (M-1) x (M-1) Vandermonde V on M-th roots of
    # unity with V V^H = M I - g g^H, |g|^2 = M - 1: sigma_min^2 / sigma_max^2
    # is exactly 1/M for M >= 3, and 1 for M = 2, whatever the draw of Q and
    # the K_1.  The audit's margin is this value, and the eig:* rows rest on
    # the audit, so the value is pinned, not only its 1/N_T floor
    shortest = n * (m - 1)
    for seed, k1 in itertools.product((0, 1, 2), (shortest, shortest + 3)):
        ps = build_pilots(NetworkConfig((n,) * m, 0, k1=k1), seed)
        for i in range(m):
            s = np.linalg.svd(ps.without(i), compute_uv=False)
            assert abs(s[-1] ** 2 / s[0] ** 2 - (1.0 / m if m >= 3 else 1.0)) <= 1e-13


def test_equal_antenna_counts_are_dealt_round_robin():
    # antenna a of every user before antenna a + 1 of any: the row of antenna
    # a of user i is the Vandermonde row of the root w^(a * M + i)
    cfg = NetworkConfig((2, 2, 2), 0, k2=1)
    ps = build_pilots(cfg, 4)
    places = [a * cfg.m + i for i in range(cfg.m) for a in range(2)]
    g = np.vander(np.exp(2j * np.pi * np.array(places) / 6), 4, increasing=True)
    assert np.allclose(ps.stacked @ ps.stacked.conj().T, g @ g.conj().T)


def test_build_pilots_is_deterministic():
    cfg = NetworkConfig((2, 3), 0, k2=1)
    a, b = build_pilots(cfg, 11), build_pilots(cfg, 11)
    assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))
    c = build_pilots(cfg, 12)
    assert not np.array_equal(a.stacked, c.stacked)


def test_validate_pilots_flags_zero_row():
    # P_3 = 0 leaves rank 1 in both stacks that hold it
    blocks = (
        np.array([[1.0 + 0j, 0.0]]),
        np.array([[0.0, 1.0 + 0j]]),
        np.zeros((1, 2), dtype=complex),
    )
    assert validate_pilots(PilotSet(blocks)) == [
        "rank of stack without user 1 != 2",
        "rank of stack without user 2 != 2",
    ]


def test_validate_pilots_accepts_duplicated_scalar():
    ps = PilotSet((np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])))
    assert validate_pilots(ps) == []


def test_validate_pilots_flags_pilots_shorter_than_the_stack_rank():
    # antennas [1, 1, 2] need K_1 >= N_T - N_min = 3; these pilots have K_1 = 2
    # and full-rank blocks, so the rank conditions that need K_1 >= 3 fail
    rows = np.array([[1, 0], [0, 1], [1, 1], [1, 2]], dtype=complex)
    assert validate_pilots(PilotSet((rows[:1], rows[1:2], rows[2:]))) == [
        "rank of stack without user 1 != 3",
        "rank of stack without user 2 != 3",
        "rank(P) != N_T-N_min (3)",
    ]


def test_pairwise_hand_matrix():
    # sessions (1, 2), (1, 3) and (2, 3), one column each
    one = np.ones((1, 1), dtype=complex)
    pm = build_pairwise_matrix([one, one, one])
    assert np.allclose(pm, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert numerical_rank(pm) == 3


def test_pairwise_six_by_six():
    rng = substream(0, "test-pairwise")
    blocks = [sample_cn(rng, (2, 2)) for _ in range(3)]
    pm = build_pairwise_matrix(blocks)
    assert pm.shape == (6, 6)
    assert numerical_rank(pm) == 6


def test_pairwise_batch_stacks_the_per_draw_matrices():
    rng = substream(0, "test-pairwise-batch")
    blocks = [sample_cn(rng, (4, n, 2)) for n in (1, 2, 2)]
    pm = build_pairwise_matrix(blocks)
    per_draw = [build_pairwise_matrix([b[d] for b in blocks]) for d in range(4)]
    assert np.array_equal(pm, np.stack(per_draw))
    blocks[2][3, 1] = blocks[2][3, 0]  # one rank-deficient block in the last draw
    with pytest.raises(RuntimeError, match="full-row-rank audit"):
        build_pairwise_matrix(blocks)


def test_pairwise_rejects_two_users():
    rng = substream(0, "test-pairwise")
    with pytest.raises(ValueError):
        build_pairwise_matrix([sample_cn(rng, (2, 2)) for _ in range(2)])


def test_pairwise_rejects_short_sessions():
    rng = substream(0, "test-pairwise")
    with pytest.raises(ValueError):
        build_pairwise_matrix([sample_cn(rng, (n, 1)) for n in (1, 2, 2)])


@pytest.mark.parametrize("shapes", [
    [(1, 2), (2, 2), (2, 3)],
    [(4, 1, 2), (4, 2, 2), (3, 2, 2)],
], ids=["k1", "batch"])
def test_pairwise_rejects_blocks_of_differing_shape(shapes):
    # each set of blocks has full row rank; only the third block's shape is off
    rng = substream(0, "test-pairwise-shapes")
    with pytest.raises(ValueError, match="block 3 must have batch shape"):
        build_pairwise_matrix([sample_cn(rng, shape) for shape in shapes])


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairwise_full_row_rank_sweep(m, n):
    for seed in range(20):
        rng = substream(seed, "test-pairwise-sweep")
        blocks = [sample_cn(rng, (n, n)) for _ in range(m)]
        pm = build_pairwise_matrix(blocks)
        assert numerical_rank(pm) == m * n


def test_square_pilots():
    pp = build_square_pilots(TwoUserModifiedConfig(1, 1, 2, 0), 0)
    assert pp.p1.shape == (1, 1) and pp.p1[0, 0] != 0
    assert pp.p2.shape == (1, 1) and pp.p2[0, 0] != 0

    pp = build_square_pilots(TwoUserModifiedConfig(2, 3, 5, 2), 1)
    assert numerical_rank(pp.p1) == 2
    assert numerical_rank(pp.p2) == 3

    # equal antenna counts: same shapes as the original two-user scheme
    pp = build_square_pilots(TwoUserModifiedConfig(2, 2, 4, 2), 2)
    assert pp.p1.shape == pp.p2.shape == (2, 2)

    first = build_square_pilots(TwoUserModifiedConfig(2, 3, 5, 2), 1)
    second = build_square_pilots(TwoUserModifiedConfig(2, 3, 5, 2), 1)
    assert np.array_equal(first.p1, second.p1)
    assert np.array_equal(first.p2, second.p2)
    other = build_square_pilots(TwoUserModifiedConfig(2, 3, 5, 2), 2)
    assert not np.array_equal(first.p2, other.p2)


@pytest.mark.parametrize("n1, n2", [(1, 1), (2, 3), (4, 4), (3, 8)])
def test_square_pilots_are_unitary(n1, n2):
    # Q factors need no rank audit: unitary, so perfectly conditioned
    pp = build_square_pilots(TwoUserModifiedConfig(n1, n2, n2 + 1, 0), 3)
    for p in (pp.p1, pp.p2):
        assert np.abs(p.conj().T @ p - np.eye(len(p))).max() <= 1e-12


def _all_blocks_refuse_all_user(ps):
    """The audit that also ranks every block P_i, one SVD at a time."""
    n_t = sum(ps.antennas)
    return (any(svd_rank(b) != n for b, n in zip(ps.blocks, ps.antennas))
            or any(svd_rank(ps.without(i)) != n_t - n for i, n in enumerate(ps.antennas))
            or svd_rank(ps.stacked) != n_t - min(ps.antennas))


def _all_blocks_refuse_pairwise(blocks):
    """The audit that also ranks every block, on a matrix laid out here, one SVD at a time."""
    pairs = list(itertools.combinations(range(len(blocks)), 2))
    rows = [np.concatenate([b if i in pair else 0 * b for pair in pairs], axis=-1)
            for i, b in enumerate(blocks)]
    return (any(np.any(svd_rank(b) != b.shape[-2]) for b in blocks)
            or np.any(svd_rank(np.concatenate(rows, axis=-2)) != sum(b.shape[-2] for b in blocks)))


def _draws(seed, *shapes):
    rng = substream(seed, "test-reject-sets")
    return [sample_cn(rng, shape) for shape in shapes]


def _with_row(blocks, index, source=None):
    """Copies of ``blocks`` with the row at ``index`` (block, ..., row) zeroed, or
    set to the row at ``source`` of the same block."""
    blocks = [b.copy() for b in blocks]
    block, row = blocks[index[0]], index[1:]
    block[row] = 0 if source is None else block[source]
    return blocks


def _near_singular(n, k1, s_min, seed):
    # an n x k1 block whose singular values are 1, ..., 1, s_min
    u, _, vh = np.linalg.svd(_draws(seed, (n, k1))[0], full_matrices=False)
    return (u * np.r_[np.ones(n - 1), s_min]) @ vh


def _low_rank(n, k1, rank, seed):
    a, b = _draws(seed, (n, rank), (rank, k1))
    return a @ b


HAND = [np.array([[1.0 + 0j, 0.0]]), np.array([[0.0, 1.0 + 0j]]), np.array([[1.0 + 0j, 1.0]])]
SHORT = np.array([[1, 0], [0, 1], [1, 1], [1, 2]], dtype=complex)

# Gaussian blocks pass only at K_1 = N_T - N_min, which every case but the hand-made
# and the k1-* ones has
ALL_USER_INPUTS = {
    "hand": HAND,
    "hand-zero-row": HAND[:2] + [np.zeros((1, 2), dtype=complex)],
    "duplicated-scalar": [np.ones((1, 1), dtype=complex)] * 2,
    "shorter-than-the-stack-rank": [SHORT[:1], SHORT[1:2], SHORT[2:]],
    "k1-below-n_i": _draws(1, (2, 1), (1, 1)),
    "repeated-row": _with_row(_draws(2, (1, 4), (2, 4), (2, 4)), (1, 1), (0,)),
    "row-repeated-across-blocks": _draws(2, (1, 2), (1, 2)) + _draws(2, (1, 2)),  # P_(2) misses
    "block-repeated": _draws(15, (1, 2)) * 2 + _draws(16, (1, 2)),  # only P_(3) misses
    "k1-above-n_t-minus-n_min": _draws(17, (1, 3), (1, 3), (1, 3)),  # only rank(P) misses
    "zero-row": _with_row(_draws(3, (2, 5), (2, 5), (3, 5)), (2, 0)),
    "low-rank-block": _draws(4, (1, 7), (2, 7), (2, 7)) + [_low_rank(3, 7, 2, 40)],
    "near-singular-block": _draws(5, (2, 4), (2, 4)) + [_near_singular(2, 4, 1e-13, 50)],
    "barely-regular-block": _draws(5, (2, 4), (2, 4)) + [_near_singular(2, 4, 1e-9, 50)],
    "gaussian": _draws(6, (1, 9), (2, 9), (3, 9), (4, 9)),
    "gaussian-two-users": _draws(7, (3, 3), (2, 3)),
    "designed": list(build_pilots(NetworkConfig((1, 2, 3, 4), 0), 5001).blocks),
}

PAIRWISE_INPUTS = {
    "hand-ones": [np.ones((1, 1), dtype=complex)] * 3,
    "zero-row": _with_row(_draws(8, (1, 2), (2, 2), (2, 2)), (1, 0)),
    "repeated-row-in-one-draw": _with_row(_draws(9, (4, 1, 2), (4, 2, 2), (4, 2, 2)), (2, 3, 1),
                                          (3, 0)),
    "k1-below-n_i": _draws(10, (1, 1), (2, 1), (2, 1)),
    "low-rank-block": _draws(11, (1, 3), (3, 3), (2, 3)) + [_low_rank(3, 3, 2, 110)],
    "near-singular-block": _draws(12, (2, 3), (2, 3)) + [_near_singular(2, 3, 1e-13, 120)],
    "barely-regular-block": _draws(12, (2, 3), (2, 3)) + [_near_singular(2, 3, 1e-9, 120)],
    "gaussian": _draws(13, (2, 2), (2, 2), (2, 2)),
    "gaussian-batch": _draws(14, (100, 1, 4), (100, 2, 4), (100, 3, 4), (100, 4, 4)),
}


@pytest.mark.parametrize("case", sorted(ALL_USER_INPUTS))
def test_validate_pilots_refuses_what_the_all_blocks_audit_refuses(case):
    ps = PilotSet(tuple(ALL_USER_INPUTS[case]))
    assert bool(validate_pilots(ps)) == _all_blocks_refuse_all_user(ps)


@pytest.mark.parametrize("case", sorted(PAIRWISE_INPUTS))
def test_pairwise_refuses_what_the_all_blocks_audit_refuses(case):
    blocks = PAIRWISE_INPUTS[case]
    try:
        build_pairwise_matrix(blocks)
        refused = False
    except (ValueError, RuntimeError):
        refused = True
    assert refused == _all_blocks_refuse_pairwise(blocks)


def test_reject_set_inputs_cover_both_verdicts():
    # each builder's cases hold inputs the reference accepts and inputs it refuses
    all_user = {_all_blocks_refuse_all_user(PilotSet(tuple(b))) for b in ALL_USER_INPUTS.values()}
    pairwise = {_all_blocks_refuse_pairwise(b) for b in PAIRWISE_INPUTS.values()}
    assert all_user == pairwise == {False, True}


def test_matrix_file_round_trip(tmp_path):
    rng = substream(3, "test-io")
    mat = sample_cn(rng, (4, 3))
    path = tmp_path / "m.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_matrix_text(fh, mat)
    back = np.loadtxt(path, skiprows=1, ndmin=2).view(complex)
    assert back.shape == (4, 3)
    assert np.array_equal(back, mat)  # 17 significant digits round-trip exactly
    header = path.read_text().splitlines()[0]
    assert header == "4 3"


def reference_matrix_text(mat):
    rows = [" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row) for row in mat]
    return "\n".join([f"{mat.shape[0]} {mat.shape[1]}", *rows]) + "\n"


def test_matrix_file_is_written_without_a_whole_matrix_string(tmp_path):
    # 16 whole chunks of 4,096 entries per row and a partial one
    mat = sample_cn(substream(6, "test-io"), (2, 2**16 + 5))
    path = tmp_path / "m.txt"
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write_matrix_text(fh, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = path.read_text(encoding="utf-8")
    assert text == reference_matrix_text(mat)
    assert peak < len(text) / 4


def test_matrix_file_holds_matrices_one_after_another(tmp_path):
    # each matrix under its own "rows cols" header, in the order given
    first, second = (sample_cn(substream(seed, "test-io"), (n, n)) for seed, n in ((4, 2), (5, 3)))
    path = tmp_path / "m.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_matrix_text(fh, first, second)
    expected = reference_matrix_text(first) + reference_matrix_text(second)
    assert path.read_text(encoding="utf-8") == expected


def test_complement_ranks_are_measured_once(monkeypatch):
    # build_pilots measures each rank(P_(i)); a later audit ranks only the full stack
    ps = build_pilots(NetworkConfig((1, 2, 3), 0, k2=1), 3)
    assert ps.complement_ranks == (5, 4, 3)
    ranked = []
    monkeypatch.setattr(pilots, "numerical_rank", lambda a: ranked.append(a.shape) or 5)
    assert validate_pilots(ps) == []
    assert ranked == [(6, 5)]
