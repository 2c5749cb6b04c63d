import numpy as np
import pytest

from anece_lab.model import (
    ALL_USER_RULES,
    MAX_COUNT,
    MAX_USERS,
    PAIRWISE_RULES,
    CheckResult,
    DofReport,
    NetworkConfig,
    SnrGrid,
    TwoUserModifiedConfig,
    pair_count,
    validate_config,
    validate_modified_config,
)

BOTH_RULES = pytest.mark.parametrize("rules", [ALL_USER_RULES, PAIRWISE_RULES],
                                     ids=["all_user", "pairwise"])


def test_minimal_config_is_valid():
    cfg = NetworkConfig((1, 1), 1, k1=1, k2=1)
    assert validate_config(cfg) == []


def test_short_pilot_phase_is_flagged_with_bound():
    # N_T - N_min = 6 - 2 = 4, so k1=3 is one short
    cfg = NetworkConfig((2, 2, 2), 4, k1=3, k2=2)
    assert validate_config(cfg) == [("k1", "K_1 < N_T-N_min (need >= 4)")]


def test_single_user_network_is_rejected():
    cfg = NetworkConfig((2,), 0, k1=1, k2=1)
    assert validate_config(cfg) == [("antennas", "M < 2")]


def test_validation_is_pure_and_idempotent():
    cfg = NetworkConfig((2, 2, 2), 4, k1=3, k2=2)
    assert validate_config(cfg) == validate_config(cfg)


def test_k1_defaults_to_shortest_legal_pilot():
    cfg = NetworkConfig((2, 3), 4)
    assert cfg.k1 == 3
    assert validate_config(cfg) == []
    assert NetworkConfig((2, 2, 2), 0).k1 == 4


def test_derived_counts():
    cfg = NetworkConfig((1, 2, 3), 5, k2=2)
    assert cfg.m == 3
    assert cfg.n_total == 6
    assert cfg.n_min == 1


def test_antenna_counts_must_be_integers():
    # numpy integers are counts; a float is refused, not truncated
    assert NetworkConfig((np.int64(2), np.int32(3)), 1).antennas == (2, 3)
    assert all(type(n) is int for n in NetworkConfig((np.int64(2), 3), 1).antennas)
    for antennas in ((2, 2.7, 2), (2, 2.0), (np.float64(2), 1)):
        with pytest.raises(ValueError, match="antenna counts must be integers"):
            NetworkConfig(antennas, 1)


def test_negative_counts_are_flagged():
    out = validate_config(NetworkConfig((2, 0), 0, k1=5, k2=-1))
    assert ("antennas", "antenna count must be >= 1 (user 2)") in out
    assert ("k2", "K_2 < 0") in out
    assert ("n_eve", "N_E < 0") in validate_config(NetworkConfig((1, 1), -1, k1=1))


def test_counts_above_the_cap_are_flagged():
    # the closed forms compute in int64; every count up to MAX_COUNT is safe
    big = MAX_COUNT + 1
    assert validate_config(NetworkConfig((1, MAX_COUNT - 1), MAX_COUNT, k2=MAX_COUNT)) == []
    for rules in (ALL_USER_RULES, PAIRWISE_RULES):
        assert validate_config(NetworkConfig((1, 1, MAX_COUNT), big, k2=big), rules) == [
            ("antennas", f"N_T > {MAX_COUNT}"), ("n_eve", f"N_E > {MAX_COUNT}"),
            ("k2", f"K_2 > {MAX_COUNT}")]
    assert validate_modified_config(TwoUserModifiedConfig(1, 2, MAX_COUNT, MAX_COUNT)) == []
    assert validate_modified_config(TwoUserModifiedConfig(1, 2, big, 10**20)) == [
        ("k_total", f"K > {MAX_COUNT}"), ("n_eve", f"N_E > {MAX_COUNT}")]


def test_user_counts_above_the_cap_are_flagged():
    for rules in (ALL_USER_RULES, PAIRWISE_RULES):
        assert validate_config(NetworkConfig((1,) * MAX_USERS, 0), rules) == []
        assert validate_config(NetworkConfig((1,) * (MAX_USERS + 1), 0), rules) == [
            ("antennas", f"M > {MAX_USERS}")]


@BOTH_RULES
def test_an_empty_network_is_a_violation_not_an_exception(rules):
    # no antenna counts: the shortest K_1 is 0 under both rules, so only M is violated
    assert validate_config(NetworkConfig((), 0), rules) == [
        ("antennas", f"M < {rules.min_users}")]


@BOTH_RULES
def test_the_default_k1_is_the_shortest_legal_one(rules):
    for antennas in ((1, 2, 3), (2, 2, 2), (4, 1, 1, 7)):
        k1 = rules.shortest_k1(antennas)
        assert validate_config(NetworkConfig(antennas, 0, k1=k1), rules) == []
        assert validate_config(NetworkConfig(antennas, 0, k1=k1 - 1), rules) == [
            ("k1", f"K_1 < {rules.k1_symbol} (need >= {k1})")]
    assert ALL_USER_RULES.shortest_k1((1, 2, 3)) == NetworkConfig((1, 2, 3), 0).k1 == 5


def test_pair_count():
    assert [pair_count(m) for m in range(1, 7)] == [0, 1, 3, 6, 10, 15]


def test_check_result_derives_passed():
    assert CheckResult("x", 1.05, 1.0, 0.1).passed
    assert CheckResult("x", 1.25, 1.0, 0.25).passed  # boundary counts as pass
    assert not CheckResult("x", 1.2, 1.0, 0.1).passed


def test_snr_grid_validation():
    SnrGrid((1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        SnrGrid((1.0, 2.0))
    with pytest.raises(ValueError):
        SnrGrid((1.0, 3.0, 2.0))
    with pytest.raises(ValueError):
        SnrGrid((1.0, 1.0, 2.0))
    for bad in ((12.0, float("nan"), 16.0), (12.0, 14.0, float("inf")), (12.0, 30.0, 1000.5)):
        with pytest.raises(ValueError):
            SnrGrid(bad)
    assert SnrGrid((-1000.0, 0.0, 1000.0)).sigma2()[2] == 2.0**1000


def test_snr_grid_spans_at_least_one():
    assert SnrGrid((0.0, 0.5, 1.0)).points == (0.0, 0.5, 1.0)
    for narrow in ((0.0, 0.5, 0.999), (0.0, 1e-200, 2e-200), (0.0, 1e-300, 2e-300)):
        with pytest.raises(ValueError, match="span at least 1"):
            SnrGrid(narrow)


def test_snr_grid_powers():
    assert SnrGrid((0.0, 1.0, 3.0)).sigma2() == (1.0, 2.0, 8.0)


def test_dof_report_requires_integers():
    DofReport({"a": 2, "b": -1})
    with pytest.raises(ValueError):
        DofReport({"a": 1.5})
    with pytest.raises(ValueError):
        DofReport({"a": True})


def test_modified_config_validation():
    assert validate_modified_config(TwoUserModifiedConfig(2, 3, 7, 6)) == []
    assert ("n1", "N_1 > N_2") in validate_modified_config(TwoUserModifiedConfig(3, 2, 7, 6))
    assert ("k_total", "K < N_2 (need >= 3)") in validate_modified_config(TwoUserModifiedConfig(2, 3, 2, 6))
    assert ("n1", "N_1 < 1") in validate_modified_config(TwoUserModifiedConfig(0, 2, 3, 1))
    assert ("n_eve", "N_E < 0") in validate_modified_config(TwoUserModifiedConfig(1, 2, 3, -1))


def test_modified_config_derived():
    cfg = TwoUserModifiedConfig(2, 3, 7, 6)
    assert cfg.n_total == 5
    assert cfg.delta_n == 1
