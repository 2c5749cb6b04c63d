import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import compare_rows, joint_jacobian, svd_rank

from anece_lab import cli, numkernel, pilots, verify
from anece_lab.capacity import CapacityCurve, cij_curve, phase1_curve
from anece_lab.model import CheckResult, NetworkConfig, SnrGrid
from anece_lab.numkernel import numerical_rank
from anece_lab.pilots import PilotSet, build_pilots, validate_pilots
from anece_lab.verify import (
    IDENTITY_MANIFEST,
    default_grid,
    eig_growth_suite,
    fit_slope,
    identity_suite,
    rank_oracle_suite,
    verify_slope,
)


def curve_from(points, values):
    return CapacityCurve(SnrGrid(tuple(points)), tuple(values), 0, (0.0,) * len(values))


def test_fit_slope_exact_on_affine_input():
    fit = fit_slope(curve_from((10, 12, 14), (31.0, 37.0, 43.0)))
    assert fit.slope == 3.0
    assert fit.intercept == 1.0
    assert fit.r_squared == 1.0


def test_fit_slope_constant_input():
    fit = fit_slope(curve_from((10, 12, 14), (5.0, 5.0, 5.0)))
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_fit_slope_phase1_scalar_network():
    ps = PilotSet((np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])))
    curve = phase1_curve(ps, 0, 1, default_grid())
    fit = fit_slope(curve)
    assert abs(fit.slope - 1.0) <= 0.02
    assert fit.r_squared > 0.9999


def test_verify_slope_pass_and_negative_control():
    cfg = NetworkConfig((2, 2, 2), 4, k2=2)
    curve = cij_curve(cfg, 0, 1, default_grid(), 500, 4)
    good = verify_slope("cij", curve, 4)
    assert good.passed
    assert good.tolerance == 0.15
    wrong = verify_slope("cij-wrong", curve, 5)
    assert not wrong.passed


def test_verify_slope_uses_relative_tolerance_for_large_targets():
    check = verify_slope("x", curve_from((10, 12, 14), (0.0, 40.0, 80.0)), 20)
    assert check.tolerance == pytest.approx(0.6)  # 3 percent of 20


def test_rank_oracle_suite_all_draws_pass():
    cfg = NetworkConfig((2, 2), 3, k2=1)
    rows = rank_oracle_suite(cfg, 7)
    assert rows and all(r.passed for r in rows)
    assert all(r.measured == 100.0 and r.target == 100.0 for r in rows)
    names = [r.name for r in rows]
    assert names == sorted(names)
    assert "rank:pairwise-pilot" not in names  # M = 2 has no pair-wise schedule

    rows3 = rank_oracle_suite(NetworkConfig((1, 2, 1), 3, k2=1), 7)
    assert all(r.passed for r in rows3)
    assert any(r.name == "rank:pairwise-pilot" for r in rows3)


def test_rank_oracle_eve_stack_target():
    # the [H_ij; H_Ej] stack has rank min(N_E + N_i, N_j): spot-check via suite
    cfg = NetworkConfig((2, 2, 2), 3, k2=1)
    rows = rank_oracle_suite(cfg, 11)
    assert all(r.passed for r in rows)


def _zero_eve_to_user_2_in_draw_0(draw):
    def faulty(*args):
        ch = draw(*args)
        ch.eve_channels[1][0] = 0.0
        return ch
    return faulty


def _repeat_a_row_in_draw_0(sample):
    def faulty(rng, shape):
        z = sample(rng, shape)
        z[0, -1] = z[0, 0]  # a no-op on one-row blocks
        return z
    return faulty


def _fresh_labels_for_reverse_channels(realize):
    # H[(b, a)] gets entries of its own instead of H[(a, b)]^T
    def faulty(antennas, z):
        ch = realize(antennas, z)
        start = int(z.max()) + 1
        for a, b in itertools.combinations(range(len(antennas)), 2):
            size = antennas[a] * antennas[b]
            fresh = np.arange(start, start + size).reshape(antennas[b], antennas[a])
            ch.user_channels[(b, a)] = fresh
            start += size
        return ch
    return faulty


def _one_entry_on_two_links(realize):
    # H[(1, 3)] repeats an entry of H[(1, 2)], so J_1 has two equal columns
    def faulty(antennas, z):
        ch = realize(antennas, z)
        ch.user_channels[(0, 2)] = ch.user_channels[(0, 1)][:, :antennas[2]]
        ch.user_channels[(2, 0)] = ch.user_channels[(0, 2)].T
        return ch
    return faulty


def _reject_the_batch(build):
    def faulty(blocks):
        raise RuntimeError("pair-wise pilot matrix failed the full-row-rank audit")
    return faulty


# fault -> (name in verify, wrapper, the rows that must fail and what they read)
RANK_FAULTS = {
    # [H_i2; H_E2] keeps only the 1 x 2 block H_i2: rank 1, not 2
    "eve-channel": ("draw_channels", _zero_eve_to_user_2_in_draw_0,
                    {"rank:eve-stack[1-2]": 99.0, "rank:eve-stack[3-2]": 99.0}),
    # user 2's pair-wise block loses its full row rank; the batch is rejected
    "pairwise-block": ("sample_cn", _repeat_a_row_in_draw_0, {"rank:pairwise-pilot": 0.0}),
    # the builder's own full-row-rank audit rejects the batch
    "pairwise-audit": ("build_pairwise_matrix", _reject_the_batch, {"rank:pairwise-pilot": 0.0}),
    # the channels are no longer reciprocal: no pair shares an entry
    "reciprocity": ("user_realization", _fresh_labels_for_reverse_channels,
                    {f"rank:reciprocal-cov[{p}]": 0.0 for p in ("1-2", "1-3", "2-3")}),
    # every pair now shares one entry more than N_i * N_j
    "repeated-entry": ("user_realization", _one_entry_on_two_links,
                       {f"rank:reciprocal-cov[{p}]": 0.0 for p in ("1-2", "1-3", "2-3")}),
}


@pytest.mark.parametrize("case", sorted(RANK_FAULTS))
def test_rank_oracle_suite_catches_a_seeded_fault(monkeypatch, case):
    name, fault, failing = RANK_FAULTS[case]
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    rows = {r.name: r for r in rank_oracle_suite(NetworkConfig((1, 2, 1), 3, k2=1), 7)}
    assert {n: r.measured for n, r in rows.items() if not r.passed} == failing
    assert all(r.measured == 100.0 for n, r in rows.items() if n not in failing)


@pytest.mark.parametrize("antennas", [(1,) * 6, (1, 2, 3, 4)])
def test_rank_oracle_needs_no_channel_basis(antennas):
    # the reciprocal-covariance rows count channel labels, and the eig:* rows
    # read pilot ranks: no D x D basis or reception map is left in the package
    for module in (numkernel, verify):
        assert not {"channel_basis", "receive", "vec_batch"} & set(vars(module))
    assert all(r.passed for r in rank_oracle_suite(NetworkConfig(antennas, 2, k2=1), 5))


# The distinct (antennas, N_E) that the benchmark's verify ranks.  Each
# modified scenario ranks the two-user network (N_1, N_2); (2, 3) with
# N_E = 2 is also an all-user scenario.
BENCH_RANKED = {
    "all_user": [((2, 2, 2), 4), ((1, 2, 3, 4), 6), ((2, 3), 2), ((3, 3), 2),
                 ((2, 2, 2, 2, 2), 5), ((1, 3), 3)],
    "pairwise": [((2, 2, 2), 4), ((1, 2, 2, 3), 3)],
}


def test_ranks_match_an_svd_reference_on_every_benchmark_stack(monkeypatch):
    # every stack the rank oracle, the eig:* rows and the pilot audits rank
    stacks = []
    rank = verify.numerical_rank

    def recorded(a):
        stacks.append(np.array(a))
        return rank(a)

    monkeypatch.setattr(verify, "numerical_rank", recorded)
    monkeypatch.setattr(pilots, "numerical_rank", recorded)
    for scheme, networks in BENCH_RANKED.items():
        for antennas, n_eve in networks:
            cfg = NetworkConfig(antennas, n_eve, k2=1)
            assert all(r.passed for r in rank_oracle_suite(cfg, 5))
            if scheme == "all_user":
                assert all(r.passed for r in eig_growth_suite(build_pilots(cfg, 5)))
    for a in stacks:
        assert np.array_equal(rank(a), svd_rank(a)), a.shape
    # short sides from 1 up: each stack tries the Cholesky certificate, and
    # any matrix it rejects takes the SVD
    assert {min(a.shape[-2:]) for a in stacks} >= {1, 2, 3}


def test_eig_growth_suite_counts():
    cases = {
        (1, 1): 1,  # 1 + 1 - 1
        (2, 2): 4,  # 4 + 4 - 4
        (2, 3): 6,  # 6 + 6 - 6
    }
    for antennas, joint in cases.items():
        cfg = NetworkConfig(antennas, 0, k2=1)
        ps = build_pilots(cfg, 3)
        rows = {r.name: r for r in eig_growth_suite(ps)}
        assert rows["eig:joint[1-2]"].measured == joint
        assert all(r.passed for r in rows.values())

    cfg = NetworkConfig((1, 1, 1), 0, k2=1)
    rows = {r.name: r for r in eig_growth_suite(build_pilots(cfg, 1))}
    assert rows["eig:joint[1-2]"].measured == 3.0  # 2 + 2 - 1
    assert rows["eig:single[user 1]"].measured == 2.0


def _repeat_a_row(blocks):
    # user 2's second row repeats its first: P_(1), P_(3) and P_(13) lose a direction
    blocks[1][1] = blocks[1][0]


def _zero_a_block(blocks):
    # user 3 sends zeros: P_(1), P_(2) and P_(12) lose two directions, yet the
    # Jacobians of the pairs (1, 3) and (2, 3) keep full rank 8 through P_(3)
    blocks[2][:] = 0


DEFICIENT = {"repeated-row": _repeat_a_row, "zero-block": _zero_a_block}


def deficient_pilots(case):
    """The designed pilots of [1, 2, 2] with the fault ``DEFICIENT[case]``."""
    blocks = [b.copy() for b in build_pilots(NetworkConfig((1, 2, 2), 0, k2=1), 3).blocks]
    DEFICIENT[case](blocks)
    return PilotSet(tuple(blocks))


def test_eig_growth_suite_catches_rank_deficient_pilots():
    # the eig:joint row of (1, 2) reads 1 * 3 + 2 * 2 against 8, although its
    # Jacobian keeps rank 8 through user 2's own complement: a row is a lower
    # bound of the rank, exact only where P_(i) has full row rank
    rows = eig_growth_suite(deficient_pilots("repeated-row"))
    assert {r.name: (r.measured, r.target) for r in rows if not r.passed} == {
        "eig:joint[1-2]": (7.0, 8.0),
        "eig:joint[1-3]": (5.0, 8.0),
        "eig:single[user 1]": (3.0, 4.0),
        "eig:single[user 3]": (4.0, 6.0),
    }


@pytest.mark.parametrize("case", DEFICIENT)
def test_eig_joint_rows_bound_the_reference_rank_from_below(case):
    # the rows never exceed the rank of the reference Jacobian, equal it where
    # P_(i) has full row rank, and fail on every pilot set the audit refuses
    ps = deficient_pilots(case)
    assert validate_pilots(ps)
    rows = {r.name: r for r in eig_growth_suite(ps)}
    n_t = sum(ps.antennas)
    for i, j in itertools.combinations(range(len(ps.antennas)), 2):
        row, rank = rows[f"eig:joint[{i + 1}-{j + 1}]"], numerical_rank(joint_jacobian(ps, i, j))
        assert row.measured <= rank
        if ps.complement_ranks[i] == n_t - ps.antennas[i]:
            assert row.measured == rank
    assert not all(r.passed for r in rows.values())


# unequal, equal and M = 2..5 networks, with the shortest K_1 or a longer one
REFERENCE_NETWORKS = [((1, 1), None), ((1, 3), None), ((2, 3), 7), ((3, 3), None),
                      ((1, 1, 1), None), ((1, 2, 2), None), ((2, 2, 2), 6), ((1, 2, 3, 4), None),
                      ((2, 2, 2, 2), 9), ((1, 1, 1, 1, 1), None), ((2, 2, 2, 2, 2), None),
                      ((6, 8, 1, 8, 1), None)]


@pytest.mark.parametrize("antennas, k1", REFERENCE_NETWORKS)
def test_eig_joint_rows_equal_the_reference_jacobian_rank(antennas, k1):
    # each eig:joint row, read from pilot ranks, is numerical_rank of the
    # reference Jacobian that conftest synthesizes from the reception map
    for seed in (0, 3, 11):
        ps = build_pilots(NetworkConfig(antennas, 0, k1=k1), seed)
        rows = {r.name: r for r in eig_growth_suite(ps)}
        for i, j in itertools.combinations(range(len(antennas)), 2):
            jac = joint_jacobian(ps, i, j)
            row = rows[f"eig:joint[{i + 1}-{j + 1}]"]
            assert row.measured == numerical_rank(jac) == jac.shape[1] == row.target


@pytest.mark.parametrize("antennas", [(2, 2, 2), (1, 2, 3, 4)])
def test_eig_growth_suite_work(monkeypatch, antennas):
    # one rank per pair, of P_(ij), each certified by one Cholesky;
    # build_pilots has already ranked every P_(i)
    calls = Counter()

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counted("linalg", fn))
    monkeypatch.setattr(verify, "numerical_rank", counted("rank", verify.numerical_rank))
    cfg = NetworkConfig(antennas, 0, k2=1)
    ps = build_pilots(cfg, 3)
    calls.clear()
    assert all(r.passed for r in eig_growth_suite(ps))
    m = len(antennas)
    assert calls == {"rank": m * (m - 1) // 2, "linalg": m * (m - 1) // 2}


def test_identity_suite_is_green_and_complete():
    rows = identity_suite()
    assert all(r.passed for r in rows)
    names = {r.name for r in rows}
    assert names == set(IDENTITY_MANIFEST) | {"identity:manifest-complete"}
    assert len(rows) == len(IDENTITY_MANIFEST) + 1


# closed form[-case] -> (a fault off by one on a slice of the grid, a row that must catch
# it); the faults work elementwise, as the suite evaluates whole grids at once
IDENTITY_FAULTS = {
    "dof_gap": (lambda f: lambda s: f(s) + (s.n_eve == 5), "identity:gap-consistency"),
    "dof_phase2_lower": (lambda f: lambda s: f(s) + (s.k2 == 3),
                         "identity:lower-decomposition"),
    "dof_two_user_original": (lambda f: lambda n1, n2, ne, k2: f(n1, n2, ne, k2) + (ne == 4),
                              "identity:two-user-lower-matches-closed-form"),
    # one past the top region boundary N_E = N_T
    "dof_two_user_original-past-n_t": (
        lambda f: lambda n1, n2, ne, k2: f(n1, n2, ne, k2) + (ne == n1 + n2 + 1),
        "identity:piecewise-boundary-agreement"),
    "dof_modified_two_user": (
        lambda f: lambda c: replace(f(c), lower_21=f(c).lower_21 + (c.k_total == c.n2 + 2)),
        "identity:modified-lower-ordering"),
    "freedom_oracle": (lambda f: lambda s: f(s)[:2] + (f(s)[2] + (s.n_t == 6),),
                       "identity:freedom-oracle-joint-pair-eve"),
    "modified_freedom_oracle": (lambda f: lambda c: (f(c)[0] + (c.n_eve == 3),) + f(c)[1:],
                                "identity:freedom-oracle-modified-terms"),
    "modified_lower_12_piecewise": (lambda f: lambda c: f(c) + (c.n_eve > c.delta_n),
                                    "identity:modified-upper-equals-lower"),
}


@pytest.mark.parametrize("case", sorted(IDENTITY_FAULTS))
def test_identity_suite_catches_a_seeded_fault(monkeypatch, case):
    fault, row = IDENTITY_FAULTS[case]
    closed_form = case.partition("-")[0]
    monkeypatch.setattr(verify, closed_form, fault(getattr(verify, closed_form)))
    rows = {r.name: r for r in identity_suite()}
    assert not rows[row].passed
    assert rows["identity:manifest-complete"].passed


def test_pair_shapes_match_every_network_of_the_grid():
    # every antenna vector of the grid and every ordered pair of its users
    brute = sorted({
        (antennas[i], antennas[j], sum(antennas), min(antennas))
        for m in verify.M_VALUES
        for antennas in itertools.product(verify.N_VALUES, repeat=m)
        for i, j in itertools.permutations(range(m), 2)
    })
    assert verify._pair_shapes() == brute
    assert len(brute) == 115


def test_identity_suite_fails_a_dropped_row(monkeypatch):
    family = verify._symmetric_identities

    def dropping():
        rows = family()
        del rows["identity:symmetric-gap-table"]
        return rows

    monkeypatch.setattr(verify, "_symmetric_identities", dropping)
    rows = {r.name: r for r in identity_suite()}
    assert "identity:symmetric-gap-table" not in rows
    assert not rows["identity:manifest-complete"].passed


def test_identity_suite_evaluates_each_grid_at_once(monkeypatch):
    # a handful of records whose fields are whole grids, not one per grid point
    counts = {"DofScenario": 0, "TwoUserModifiedConfig": 0}

    def counted(name):
        cls = getattr(verify, name)

        def build(*args, **kwargs):
            counts[name] += 1
            return cls(*args, **kwargs)
        return build

    for name in counts:
        monkeypatch.setattr(verify, name, counted(name))
    assert all(r.passed for r in identity_suite())
    assert counts["DofScenario"] <= 5
    assert counts["TwoUserModifiedConfig"] <= 8


def test_compare_schemes_three_users():
    # all-user phase-2 survives where the pair-wise scheme is wiped out
    rows = compare_rows(NetworkConfig((2, 2, 2), 7, k2=3))
    assert list(rows) == ["all_user", "pairwise"]
    assert rows["all_user"]["phase2_dof"] == 2
    assert rows["pairwise"]["phase2_dof"] == 0
    assert rows["all_user"]["phase1_slots"] == 4
    assert rows["pairwise"]["phase1_slots"] == 6
    assert rows["all_user"]["phase1_dof"] == rows["pairwise"]["phase1_dof"] == 4
    assert rows["pairwise"]["total_dof"] == 4


def test_compare_schemes_two_users_modified_wins():
    rows = compare_rows(NetworkConfig((2, 3), 6, k2=4))
    assert list(rows) == ["all_user", "modified_two_user"]
    assert rows["all_user"]["total_dof"] == 14  # 6 + 8
    assert rows["modified_two_user"]["total_dof"] == 16  # 6 + 10
    assert rows["modified_two_user"]["total_dof"] - rows["all_user"]["total_dof"] == 2  # N_1 dN
    assert rows["all_user"]["phase1_slots"] == rows["modified_two_user"]["phase1_slots"] == 3


def test_compare_schemes_equal_antennas_tie():
    rows = compare_rows(NetworkConfig((2, 2), 5, k2=3))
    assert rows["all_user"]["phase2_dof"] == rows["modified_two_user"]["phase2_dof"]
    assert rows["all_user"]["total_dof"] == rows["modified_two_user"]["total_dof"]


def test_compare_schemes_rejects_uneven_budget():
    with pytest.raises(cli.ScenarioError, match="^network.k2: phase-2 budget 4 is not divisible "
                                                "by 3 sessions$"):
        compare_rows(NetworkConfig((2, 2, 2), 4, k2=4))  # 3 sessions, budget 4


def test_check_result_boundary_semantics():
    assert CheckResult("edge", 4.25, 4.0, 0.25).passed
    assert not CheckResult("edge", 4.2501, 4.0, 0.25).passed
