"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they are produced.
"""

import time

from conftest import compare_rows, joint_jacobian, run_cli

from anece_lab import cli
from anece_lab.capacity import cij_curve, ckey0_curve, cond_entropy_curve, phase1_curve
from anece_lab.model import NetworkConfig, TwoUserModifiedConfig
from anece_lab.numkernel import numerical_rank
from anece_lab.pilots import build_pilots
from anece_lab.verify import (
    default_grid,
    fit_slope,
    identity_suite,
    rank_oracle_suite,
    verify_slope,
)

PHASE1_CASES = (
    ((1, 1), 1),
    ((2, 3), 6),
    ((2, 2, 2), 4),
)


def report(number, description, ok):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_phase1_slopes():
    ok = True
    details = []
    for antennas, target in PHASE1_CASES:
        start = time.perf_counter()
        cfg = NetworkConfig(antennas, 0, k2=1)
        ps = build_pilots(cfg, 3)
        slope = fit_slope(phase1_curve(ps, 0, 1, default_grid())).slope
        elapsed = time.perf_counter() - start
        good = abs(slope - target) <= 0.15 and elapsed < 5.0
        ok = ok and good
        details.append(f"{antennas}: slope {slope:.3f} vs {target} in {elapsed:.2f}s")
    report(1, "pilot-phase SKC slope equals N_i*N_j (" + "; ".join(details) + ")", ok)


def test_criterion_02_cij_slopes():
    ok = True
    details = []
    for k2, target in ((1, 2), (2, 4), (3, 6)):
        start = time.perf_counter()
        cfg = NetworkConfig((2, 2, 2), 4, k2=k2)
        slope = fit_slope(cij_curve(cfg, 0, 1, default_grid(), 2000, 11)).slope
        elapsed = time.perf_counter() - start
        good = abs(slope - target) <= 0.15 and elapsed < 30.0
        ok = ok and good
        details.append(f"K_2={k2}: slope {slope:.3f} vs {target} in {elapsed:.1f}s")
    report(2, "symbol-phase capacity slope (2000 samples) (" + "; ".join(details) + ")", ok)


def test_criterion_03_conditional_entropy_slopes():
    ok = True
    details = []
    for (m, n, k), target in (((2, 3, 4), 8), ((3, 1, 2), 2), ((1, 1, 1), 1)):
        slope = fit_slope(cond_entropy_curve(m, n, k, default_grid(), 2000, 13)).slope
        good = abs(slope - target) <= 0.15
        ok = ok and good
        details.append(f"({m},{n},{k}): slope {slope:.3f} vs {target}")
    report(3, "Gaussian conditional-entropy slope equals min(m,n)*k (" + "; ".join(details) + ")", ok)


def test_criterion_04_modified_rate_slope():
    start = time.perf_counter()
    curve = ckey0_curve(TwoUserModifiedConfig(2, 3, 7, 6), default_grid(), 2000, 17)
    slope = fit_slope(curve).slope
    elapsed = time.perf_counter() - start
    ok = abs(slope - 18.0) <= 0.3 and elapsed < 30.0
    report(4, f"modified-scheme rate slope {slope:.3f} vs 18 in {elapsed:.1f}s", ok)


def test_criterion_05_eigenvalue_growth_counts():
    # sigma^2 J J^H + I grows along rank(J) directions
    ok = True
    details = []
    for antennas, _ in PHASE1_CASES:
        cfg = NetworkConfig(antennas, 0, k2=1)
        ps = build_pilots(cfg, 3)
        n_t = cfg.n_total
        n_i, n_j = antennas[0], antennas[1]
        target = n_i * (n_t - n_i) + n_j * (n_t - n_j) - n_i * n_j
        count = numerical_rank(joint_jacobian(ps, 0, 1))
        ok = ok and count == target
        details.append(f"{antennas}: {count} vs {target}")
    report(5, "joint pilot-factor ranks exact (" + "; ".join(details) + ")", ok)


def test_criterion_06_rank_oracle_suite():
    start = time.perf_counter()
    ok = True
    checked = 0
    for m in (2, 3):
        for n in (1, 2):
            for n_eve in (1, 3, 5):
                cfg = NetworkConfig((n,) * m, n_eve, k2=1)
                rows = rank_oracle_suite(cfg, 7)
                checked += len(rows)
                ok = ok and all(r.passed for r in rows)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(6, f"rank oracles 100/100 over {checked} checks in {elapsed:.1f}s", ok)


def test_criterion_07_identity_suite():
    start = time.perf_counter()
    rows = identity_suite()
    elapsed = time.perf_counter() - start
    failures = [r.name for r in rows if not r.passed]
    ok = not failures and elapsed < 10.0
    report(7, f"exact identity suite: {len(rows)} rows green in {elapsed:.1f}s "
              f"(failures: {failures or 'none'})", ok)


def test_criterion_08_scheme_comparison_numbers():
    rows = compare_rows(NetworkConfig((2, 2, 2), 7, k2=3))
    ok = (
        rows["all_user"]["phase2_dof"] == 2
        and rows["pairwise"]["phase2_dof"] == 0
        and rows["all_user"]["phase1_slots"] == 4
        and rows["pairwise"]["phase1_slots"] == 6
    )
    report(8, "M=3 N=2 N_E=7 K_2=3: all-user phase-2 2 vs pair-wise 0, slots 4 vs 6", ok)


def test_criterion_09_negative_controls(tmp_path, monkeypatch):
    cfg = NetworkConfig((2, 2, 2), 4, k2=2)
    curve = cij_curve(cfg, 0, 1, default_grid(), 400, 11)
    wrong_target = verify_slope("negctrl", curve, 4 + 3)
    ok = not wrong_target.passed

    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        '{"schema_version": 1, "scheme": "all_user", '
        '"network": {"antennas": [2, 2], "n_eve": 3, "k2": 1}, '
        '"mc_samples": 300, "seed": 7}',
        encoding="utf-8",
    )
    with monkeypatch.context() as patch:  # a pilot-phase target one DoF off
        patch.setattr(cli, "dof_phase1", lambda n_i, n_j: n_i * n_j + 1)
        tampered = cli.main(["verify", "--scenario", str(scenario),
                             "--out", str(tmp_path / "t.csv")])
    ok = ok and tampered == 1

    clean = run_cli("verify", "--scenario", str(scenario), "--out", str(tmp_path / "c.csv"))
    lines = (tmp_path / "c.csv").read_text().splitlines()
    control_lines = [ln for ln in lines if ln.startswith("negctrl:")]
    ok = ok and clean.returncode == 0 and control_lines
    ok = ok and all(ln.endswith(",false") for ln in control_lines)
    report(9, "wrong targets fail and the tampered run exits 1", ok)


def test_criterion_10_verify_is_byte_deterministic(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        '{"schema_version": 1, "scheme": "all_user", '
        '"network": {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2}, '
        '"mc_samples": 300, "seed": 7}',
        encoding="utf-8",
    )
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    rc1 = run_cli("verify", "--scenario", str(scenario), "--out", str(first)).returncode
    rc2 = run_cli("verify", "--scenario", str(scenario), "--out", str(second)).returncode
    ok = rc1 == 0 and rc2 == 0 and first.read_bytes() == second.read_bytes()
    report(10, "repeated verify runs emit byte-identical CSV", ok)
