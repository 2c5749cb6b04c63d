from dataclasses import astuple

import numpy as np
import pytest

from anece_lab.cli import SCHEMES
from anece_lab.dofcalc import (
    DofScenario,
    dof_cij,
    dof_entropy_terms,
    dof_gap,
    dof_leakage,
    dof_modified_two_user,
    dof_pairwise,
    dof_phase1,
    dof_phase2_lower,
    dof_phase2_lower_plus,
    dof_phase2_upper,
    dof_two_user_original,
    freedom_oracle,
    modified_entropy_terms,
    modified_freedom_oracle,
    modified_lower_12_piecewise,
    pos,
)
from anece_lab.model import NetworkConfig, TwoUserModifiedConfig
from anece_lab.verify import N_EVE_VALUES, TWO_USER_N_EVE_VALUES, _pair_shape_grid, _two_user_grid


def scenario(antennas, n_eve, k2, i=0, j=1):
    return DofScenario.pair(NetworkConfig(antennas, n_eve, k2=k2), i, j)


def test_pos_clamp():
    assert pos(3) == 3
    assert pos(0) == 0
    assert pos(-2) == 0
    assert pos(np.array([-2, 0, 3])).tolist() == [0, 0, 3]


def test_scenario_derived_quantities_track_the_config():
    s = scenario((2, 3), 7, 4)
    assert s == DofScenario(n_i=2, n_j=3, n_t=5, n_min=2, n_eve=7, k2=4)
    assert s.dk2 == 2  # (4 - 2)^+
    assert s.swapped() == scenario((2, 3), 7, 4, i=1, j=0)


def test_scenario_rejects_bad_indices():
    cfg = NetworkConfig((2, 2), 0, k2=1)
    with pytest.raises(ValueError):
        DofScenario.pair(cfg, 0, 0)
    with pytest.raises(ValueError):
        DofScenario.pair(cfg, 0, 2)


def test_dof_phase1_examples():
    assert dof_phase1(1, 1) == 1
    assert dof_phase1(2, 3) == 6
    assert dof_phase1(4, 4) == 16
    with pytest.raises(ValueError):
        dof_phase1(0, 1)


def test_dof_cij_examples():
    assert dof_cij(scenario((2, 2), 0, 3)) == 12  # 6 + 6 - 0
    assert dof_cij(scenario((2, 2, 2), 0, 2)) == 4  # 4 + 4 - 4
    assert dof_cij(scenario((2, 2), 0, 0)) == 0


def test_entropy_terms_examples():
    t = dof_entropy_terms(scenario((2, 2), 5, 3))
    assert t.h_yi_given_hi == 6
    assert t.h_ye_given_hep == 14  # 5*2 + 4*1
    assert t.h_joint_i_e == 16  # 6 + 10 + 0

    t3 = dof_entropy_terms(scenario((2, 2, 2), 4, 3))
    assert t3.h_joint_i_j_e == 14  # 6 + 0 + 8 + 0


def test_entropy_terms_collapse_for_short_phase2():
    # K_2 <= N_min: the extra-slot term vanishes
    t = dof_entropy_terms(scenario((2, 2, 2), 5, 2))
    assert t.h_ye_given_hep == 5 * 2


def test_leakage_examples():
    assert dof_leakage(scenario((2, 2), 5, 3)) == 4  # 6 + 14 - 16
    assert dof_leakage(scenario((2, 2), 5, 0)) == 0
    assert dof_leakage(scenario((2, 3), 0, 4)) == 0


def test_phase2_lower_examples():
    for n_eve in range(13):
        assert dof_phase2_lower(scenario((2, 2, 2), n_eve, 2)) == 4
    assert dof_phase2_lower(scenario((2, 2, 2), 4, 3)) == 4  # 6+6+2-6-4
    assert dof_phase2_lower(scenario((2, 2), 5, 3)) == 8  # 12 - 4


def test_phase2_lower_clamp():
    s = scenario((1, 3, 3), 7, 3)
    assert dof_phase2_lower(s) == -1
    assert dof_phase2_lower_plus(s) == 0


def test_phase2_upper_examples():
    assert dof_phase2_upper(scenario((2, 2, 2), 4, 3)) == 6
    s = scenario((2, 2, 2), 4, 2)
    assert dof_phase2_upper(s) == dof_phase2_lower(s) == 4
    # M = 2: upper equals the (1, 2)-ordering lower with N_1 <= N_2
    for n_eve in range(8):
        for k2 in range(6):
            s = scenario((2, 3), n_eve, k2)
            assert dof_phase2_upper(s) == dof_phase2_lower(s)


def test_upper_is_signed_sum_of_entropy_terms():
    for antennas in ((2, 3), (1, 2, 3), (2, 2, 2, 1)):
        for n_eve in range(0, 8, 2):
            for k2 in range(5):
                s = scenario(antennas, n_eve, k2)
                t_i = dof_entropy_terms(s)
                t_j = dof_entropy_terms(s.swapped())
                assembled = (
                    -t_i.h_ye_given_hep + t_i.h_joint_i_e + t_j.h_joint_i_e - t_i.h_joint_i_j_e
                )
                assert dof_phase2_upper(s) == assembled


def test_gap_examples():
    assert dof_gap(scenario((2, 2, 2), 4, 3)) == 2  # dK_2 * min(N_E, N)
    assert dof_gap(scenario((2, 2, 2, 2), 9, 2)) == 0  # K_2 <= N
    # M >= 4 + ceil(N_E / N): zero gap
    assert dof_gap(scenario((1, 1, 1, 1, 1, 1), 2, 5)) == 0


def test_two_user_original_examples():
    assert dof_two_user_original(2, 3, 6, 4) == 8  # 2*min(2,4)*2
    assert dof_two_user_original(2, 3, 1, 4) == 16  # 2*4*2
    assert dof_two_user_original(2, 3, 4, 4) == 10  # 16 - 2*(4-1)


def test_two_user_original_branch_boundaries():
    for n1 in range(1, 5):
        for n2 in range(n1, 5):
            dn, nt = n2 - n1, n1 + n2
            for k2 in range(9):
                dk2 = pos(k2 - n1)
                c1 = 2 * k2 * n1
                c2_at_dn = 2 * k2 * n1 - dk2 * (dn - dn)
                c2_at_nt = 2 * k2 * n1 - dk2 * (nt - dn)
                c3 = 2 * min(n1, k2) * n1
                assert c1 == c2_at_dn
                assert c2_at_nt == c3


def test_two_user_original_rejects_misordered():
    with pytest.raises(ValueError):
        dof_two_user_original(3, 2, 1, 1)
    with pytest.raises(ValueError):
        dof_two_user_original(2, 3, 1, -1)
    with pytest.raises(ValueError):  # one bad element of an array
        dof_two_user_original(np.array([1, 3, 2]), np.array([2, 2, 2]), 1, 1)


def test_pairwise_examples():
    sym = dof_pairwise(2, 2, 1, 2)
    assert sym.lower == sym.upper == 6  # (2N - min(N_E, 2N)) * k_2
    assert sym.gap == 0

    blocked = dof_pairwise(2, 2, 4, 2)
    assert blocked.upper == 0
    assert dof_pairwise(2, 2, 9, 3).upper == 0

    asym = dof_pairwise(3, 2, 4, 1)
    assert (asym.lower, asym.upper, asym.gap) == (0, 1, 1)

    asym2 = dof_pairwise(3, 2, 2, 1)
    assert (asym2.lower, asym2.upper, asym2.gap) == (2, 3, 1)


def pairwise_grid():
    """(N_i, N_j, N_E, k_2) over 1..4 x 1..4 x 0..8 x 0..3, as broadcast columns."""
    return np.meshgrid(range(1, 5), range(1, 5), range(9), range(4), indexing="ij")


def test_pairwise_gap_is_upper_minus_lower():
    n_ip, n_jp, n_eve, k2 = pairwise_grid()
    d = dof_pairwise(n_ip, n_jp, n_eve, k2)
    assert d.gap.shape == n_ip.shape
    assert np.array_equal(d.gap, d.upper - d.lower)
    assert not np.any(d.gap[n_ip <= n_jp])


def test_pairwise_over_arrays_matches_scalar_calls():
    n_ip, n_jp, n_eve, k2 = pairwise_grid()
    grid = dof_pairwise(n_ip, n_jp, n_eve, k2)
    for idx in np.ndindex(n_ip.shape):
        one = dof_pairwise(int(n_ip[idx]), int(n_jp[idx]), int(n_eve[idx]), int(k2[idx]))
        assert (grid.lower[idx], grid.upper[idx], grid.gap[idx]) == astuple(one)


def test_pairwise_rejects_negative_inputs():
    with pytest.raises(ValueError):
        dof_pairwise(1, 1, -1, 1)
    with pytest.raises(ValueError):
        dof_pairwise(1, 1, 0, -1)
    with pytest.raises(ValueError):  # one bad element of an array
        dof_pairwise(2, 3, np.array([0, 4, -1, 2]), 1)
    with pytest.raises(ValueError):
        dof_pairwise(np.array([1, 2]), 2, 1, np.array([3, -2]))


def test_modified_two_user_examples():
    md = dof_modified_two_user(TwoUserModifiedConfig(2, 3, 7, 6))
    assert md.lower_12 == 10  # N_1 * N_T once K and N_E are large
    assert md.lower_21 == 8
    assert md.upper == 10

    assert dof_modified_two_user(TwoUserModifiedConfig(2, 3, 7, 1)).lower_12 == 18  # 2*(14-5)


def test_modified_lower_ordering_drop():
    for n_eve in range(11):
        for k in range(3, 11):
            c = TwoUserModifiedConfig(2, 3, k, n_eve)
            md = dof_modified_two_user(c)
            drop = min(n_eve, 1) * pos(k - 5)
            assert md.lower_12 - md.lower_21 == drop
            assert drop >= 0


def test_modified_piecewise_matches_compact_form():
    for n1 in range(1, 5):
        for n2 in range(n1, 5):
            for n_eve in range(11):
                for k in range(n2, n2 + 9):
                    c = TwoUserModifiedConfig(n1, n2, k, n_eve)
                    assert dof_modified_two_user(c).lower_12 == modified_lower_12_piecewise(c)


def test_modified_rejects_bad_configs():
    with pytest.raises(ValueError):
        dof_modified_two_user(TwoUserModifiedConfig(3, 2, 7, 1))
    with pytest.raises(ValueError):
        dof_modified_two_user(TwoUserModifiedConfig(2, 3, 2, 1))
    with pytest.raises(ValueError):
        dof_modified_two_user(TwoUserModifiedConfig(2, 3, np.array([7, 2]), 1))


def test_dof_total_examples():
    # dof_total is each scheme record's pilot-phase SDoF plus its clamped
    # symbol-phase SDoF
    assert SCHEMES["modified_two_user"].formula(TwoUserModifiedConfig(2, 3, 7, 6))["dof_total"] == 16
    assert SCHEMES["all_user"].formula(NetworkConfig((2, 2, 2), 4, k2=2))["dof_total"] == 8
    assert SCHEMES["pairwise"].formula(NetworkConfig((2, 2, 2), 4, k2=1))["dof_total"] == 4


def test_dof_total_clamps_negative_phase2():
    cfg = NetworkConfig((1, 3, 3), 12, k2=3)
    s = DofScenario.pair(cfg, 0, 1)
    assert dof_phase2_lower(s) < 0 and dof_phase2_lower(s.swapped()) < 0
    assert SCHEMES["all_user"].formula(cfg)["dof_total"] == dof_phase1(1, 3)


def test_freedom_oracle_examples():
    assert freedom_oracle(scenario((2, 2), 5, 3))[0] == 14  # 10 + 4 + 0
    assert freedom_oracle(scenario((2, 2, 2), 4, 3))[2] == 14
    assert modified_freedom_oracle(TwoUserModifiedConfig(2, 3, 7, 6))[1] == 28


def test_freedom_oracle_matches_closed_forms_on_a_grid():
    for antennas in ((1, 1), (2, 3), (1, 2, 3), (2, 2, 2), (3, 1, 2, 2)):
        for n_eve in range(0, 9, 2):
            for k2 in range(0, 7):
                s = scenario(antennas, n_eve, k2)
                t = dof_entropy_terms(s)
                assert freedom_oracle(s) == (t.h_ye_given_hep, t.h_joint_i_e, t.h_joint_i_j_e)
    for n1, n2 in ((1, 1), (2, 3), (2, 2), (1, 4)):
        for n_eve in range(0, 9, 2):
            for k in range(n2, n2 + 7):
                c = TwoUserModifiedConfig(n1, n2, k, n_eve)
                assert modified_freedom_oracle(c) == modified_entropy_terms(c)


def _values(result) -> tuple:
    """A closed form's result as a flat tuple of its values."""
    if isinstance(result, tuple):
        return result
    if hasattr(result, "__dataclass_fields__"):
        return astuple(result)
    return (result,)


PAIR_FORMS = (dof_cij, dof_entropy_terms, dof_leakage, dof_phase2_lower, dof_phase2_lower_plus,
              dof_phase2_upper, dof_gap, freedom_oracle)
MODIFIED_FORMS = (modified_entropy_terms, dof_modified_two_user, modified_lower_12_piecewise,
                  modified_freedom_oracle)


def _modified_grid():
    n1, n2, n_eve, k2 = _two_user_grid(TWO_USER_N_EVE_VALUES)
    return TwoUserModifiedConfig(n1, n2, n2 + k2, n_eve)


@pytest.mark.parametrize("grid, forms", [
    (_pair_shape_grid, PAIR_FORMS),
    (_modified_grid, MODIFIED_FORMS),
    (lambda: _two_user_grid(N_EVE_VALUES), (lambda g: dof_two_user_original(*g),)),
], ids=["pair-shapes", "modified", "two-user"])
def test_array_forms_match_scalar_calls(grid, forms):
    # each form once over the identity grid, against scalar calls at random grid points
    g = grid()
    fields = np.broadcast_arrays(*(astuple(g) if hasattr(g, "__dataclass_fields__") else g))
    arrays = [_values(form(g)) for form in forms]
    rng = np.random.default_rng(5)
    for flat in rng.choice(fields[0].size, size=300, replace=False):
        at = np.unravel_index(flat, fields[0].shape)
        ints = [int(f[at]) for f in fields]
        point = type(g)(*ints) if hasattr(g, "__dataclass_fields__") else ints
        for form, expected in zip(forms, arrays):
            scalars = _values(form(point))
            assert all(np.asarray(v).dtype.kind == "i" for v in scalars)
            assert [int(v) for v in scalars] == [
                int(np.broadcast_to(e, fields[0].shape)[at]) for e in expected]
