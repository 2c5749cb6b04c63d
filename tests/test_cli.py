import argparse
import builtins
import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import CHILD_ENV, run_cli, run_module

from anece_lab import capacity, cli, numkernel, pilots, verify
from anece_lab.model import MAX_USERS, NetworkConfig, SnrGrid, TwoUserModifiedConfig

FAST_MC = {"mc_samples": 300, "seed": 7}


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_formula_all_user_symmetric(write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2}, **FAST_MC)
    proc = run_cli("formula", "--scenario", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["dof_phase1"] == 4
    assert report["dof_phase2_lower"] == 4
    assert report["dof_phase2_upper"] == 4
    assert report["dof_gap"] == 0
    assert report["dof_total"] == 8


def test_formula_modified_two_user(write_scenario):
    path = write_scenario(
        "modified_two_user", {"n1": 2, "n2": 3, "k_total": 7, "n_eve": 6}, **FAST_MC
    )
    proc = run_cli("formula", "--scenario", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["dof_phase1"] == 6
    assert report["dof_phase2"] == 10
    assert report["dof_total"] == 16
    assert report["dof_gain_over_original"] == 2


def test_formula_pairwise_blocked_by_large_eve(write_scenario):
    path = write_scenario("pairwise", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 1}, **FAST_MC)
    proc = run_cli("formula", "--scenario", path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["dof_phase2_upper"] == 0
    assert report["dof_total"] == 4


# one scenario per scheme: exact `formula` stdout (key order included),
# exact `compare` stdout, the header of an n_eve `sweep` CSV and exact
# `pilots` stdout for --out {stem}.txt
PINNED = [
    ("all_user", {"antennas": [2, 3], "n_eve": 2, "k2": 3},
     '{"dof_phase1": 6, "dof_cij": 12, "dof_leakage": 1, "dof_phase2_lower": 11, '
     '"dof_phase2_lower_plus": 11, "dof_phase2_upper": 11, "dof_gap": 0, "dof_total": 17, '
     '"dof_two_user_original": 11}\n',
     "all_user,6,11,17,3,3\nmodified_two_user,6,13,19,3,3\n",
     "dof_phase1,dof_cij,dof_leakage,dof_phase2_lower,dof_phase2_lower_plus,dof_phase2_upper,"
     "dof_gap,dof_total,dof_two_user_original",
     "wrote {stem}.txt: rank(P)=3 OK\n  rank(P_1)=2 OK\n  rank(P_2)=3 OK\n"),
    ("pairwise", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 1},
     '{"dof_phase1": 4, "dof_phase2_lower": 0, "dof_phase2_upper": 0, "dof_gap": 0, '
     '"dof_total": 4}\n',
     "all_user,4,4,8,4,3\npairwise,4,0,4,6,3\n",
     "dof_phase1,dof_phase2_lower,dof_phase2_upper,dof_gap,dof_total",
     "wrote {stem}.txt: rank(P_pair)=6 OK\n"),
    ("modified_two_user", {"n1": 2, "n2": 3, "k_total": 7, "n_eve": 6},
     '{"dof_phase1": 6, "dof_phase2": 10, "dof_phase2_lower_12": 10, "dof_phase2_lower_21": 8, '
     '"dof_total": 16, "dof_original_phase2": 8, "dof_gain_over_original": 2}\n',
     "all_user,6,8,14,3,4\nmodified_two_user,6,10,16,3,4\n",
     "dof_phase1,dof_phase2,dof_phase2_lower_12,dof_phase2_lower_21,dof_total,"
     "dof_original_phase2,dof_gain_over_original",
     "wrote {stem}.txt: rank(P1)=2 OK\n  rank(P2)=3 OK\n"),
]


@pytest.mark.parametrize("scheme, network, formula, compare, sweep_keys, pilots", PINNED,
                         ids=[case[0] for case in PINNED])
def test_outputs_are_pinned(tmp_path, write_scenario, scheme, network, formula, compare,
                            sweep_keys, pilots):
    path = write_scenario(scheme, network, **FAST_MC)
    assert run_cli("formula", "--scenario", path).stdout == formula
    header = "scheme,phase1_dof,phase2_dof,total_dof,phase1_slots,phase2_slots\n"
    assert run_cli("compare", "--scenario", path).stdout == header + compare
    out = tmp_path / "s.csv"
    proc = run_cli("sweep", "--scenario", path, "--axis", "n_eve", "--range", "0:2",
                   "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == "axis,value," + sweep_keys
    stem = tmp_path / "P"
    proc = run_cli("pilots", "--scenario", path, "--out", f"{stem}.txt")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, pilots.format(stem=stem), "")


@pytest.mark.parametrize("scheme, network, message", [
    ("bogus", {}, "scheme: expected one of ('all_user', 'pairwise', 'modified_two_user'), "
                  "got 'bogus'"),
    ("all_user", {"antennas": [2, 0], "n_eve": -1, "k1": 5, "k2": -1},
     "network.antennas: antenna count must be >= 1 (user 2); network.n_eve: N_E < 0; "
     "network.k2: K_2 < 0"),
    ("pairwise", {"antennas": [0, 2], "n_eve": -1, "k1": 1, "k2": -1},
     "network.antennas: M < 3; network.antennas: antenna count must be >= 1 (user 1); "
     "network.n_eve: N_E < 0; network.k2: K_2 < 0; network.k1: K_1 < max N_i (need >= 2)"),
    ("modified_two_user", {"n1": 0, "n2": 3, "k_total": 2, "n_eve": -1},
     "network.n1: N_1 < 1; network.k_total: K < N_2 (need >= 3); network.n_eve: N_E < 0"),
    ("all_user", {"antennas": [2, 2], "n_eve": 10**20, "k2": 2**28 + 1},
     "network.n_eve: N_E > 268435456; network.k2: K_2 > 268435456"),
    ("all_user", {"antennas": [2], "n_eve": 0, "k1": 1, "k2": 1}, "network.antennas: M < 2"),
], ids=["bogus", "all_user", "pairwise", "modified_two_user", "count_cap", "one_user"])
def test_invalid_scenario_names_every_violation(write_scenario, scheme, network, message):
    proc = run_cli("formula", "--scenario", write_scenario(scheme, network, **FAST_MC))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("scheme, network, key", [
    ("all_user", {"antennas": [2, 2], "n_eve": 4, "n_eves": 4}, "n_eves"),
    ("pairwise", {"antennas": [2, 2, 2], "n_eve": 4, "n_eves": 4}, "n_eves"),
    ("modified_two_user", {"n1": 2, "n2": 3, "k_total": 7, "n_eve": 6, "antennas": [2, 3]},
     "antennas"),
], ids=["all_user", "pairwise", "modified_two_user"])
def test_unknown_key_is_rejected(write_scenario, scheme, network, key):
    # each scheme's parser knows its own keys
    proc = run_cli("formula", "--scenario", write_scenario(scheme, network, **FAST_MC))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f'error: unknown key "network.{key}"\n'


SCENARIO = {"schema_version": 1, "scheme": "all_user", "network": {"antennas": [2, 2], "n_eve": 1}}
SWEEP = ("sweep", "--axis", "n_eve", "--out", "never-written.csv")


@pytest.mark.parametrize("payload, args, message", [
    ({**SCENARIO, "network": {"antennas": [2, 2]}}, ("formula",), 'missing key "network.n_eve"'),
    ([SCENARIO], ("formula",), "scenario file must hold a JSON object"),
    ({**SCENARIO, "network": [2, 2]}, ("formula",), "network: must be an object"),
    ({**SCENARIO, "network": {"antennas": [], "n_eve": 1}}, ("formula",),
     "network.antennas: must be a non-empty list"),
    ({**SCENARIO, "network": {"antennas": 2, "n_eve": 1}}, ("formula",),
     "network.antennas: must be a non-empty list"),
    ({**SCENARIO, "network": {"m": 3, "antennas": [2, 2], "n_eve": 1}}, ("formula",),
     "network.m: does not match the antennas list length"),
    (SCENARIO, (*SWEEP, "--range", "5:3"), "--range 5:3: must be low:high with high >= low"),
    (SCENARIO, (*SWEEP, "--range", "5"), "--range 5: must look like low:high"),
    (SCENARIO, (*SWEEP, "--range", "a:b"), "--range a:b: must look like low:high"),
    (SCENARIO, (*SWEEP, "--range", "-2:1"), "network.n_eve: N_E < 0"),
    (SCENARIO, (*SWEEP, "--range=-2:1"), "network.n_eve: N_E < 0"),
    (SCENARIO, (*SWEEP, "--ran", "-2:1"), "network.n_eve: N_E < 0"),
    (SCENARIO, (*SWEEP, "--r", "-2:1"), "network.n_eve: N_E < 0"),
    ({**SCENARIO, "scheme": "pairwise", "network": {"antennas": [2, 2, 2], "n_eve": 1}},
     ("sweep", "--axis", "m", "--range", "3:4", "--out", "never-written.csv"),
     "--axis m: applies only to the all_user scheme"),
    ({**SCENARIO, "network": {"antennas": [2, 3], "n_eve": 1}},
     ("sweep", "--axis", "m", "--range", "2:3", "--out", "never-written.csv"),
     "--axis m: needs a symmetric antenna layout"),
], ids=["missing-n_eve", "not-an-object", "network-not-an-object", "empty-antennas",
        "scalar-antennas", "m-mismatch", "reversed-range", "malformed-range", "text-range",
        "negative-range", "negative-range-joined", "negative-range-abbreviated",
        "negative-range-shortest-prefix", "m-axis-pairwise", "m-axis-asymmetric"])
def test_each_refusal_is_one_error_line_naming_its_key(tmp_path, monkeypatch, payload, args,
                                                        message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sc.json").write_text(json.dumps(payload), encoding="utf-8")
    proc = run_cli(args[0], "--scenario", "sc.json", *args[1:])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "never-written.csv").exists()


def test_short_pilot_phase_is_rejected_with_bound(write_scenario):
    path = write_scenario(
        "all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k1": 3, "k2": 2}, **FAST_MC
    )
    proc = run_cli("formula", "--scenario", path)
    assert proc.returncode == 2
    assert "network.k1" in proc.stderr
    assert ">= 4" in proc.stderr


@pytest.mark.parametrize("grid", [[12, float("nan"), 16, 18], [12, 14, float("inf")],
                                  [12, 30, 1100], [12, 30, 10**400], ["12", 14, 16],
                                  [-1, True, 3], 12])
def test_malformed_grid_is_rejected(write_scenario, grid):
    path = write_scenario("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2},
                          snr_grid=grid, **FAST_MC)
    proc = run_cli("verify", "--scenario", path)
    assert proc.returncode == 2
    assert "snr_grid" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("grid", [[0, 1e-200, 2e-200], [0, 1e-300, 2e-300]])
def test_grid_narrower_than_one_is_refused_at_parse(write_scenario, grid):
    # the slope fit's sum of squares of such a grid underflows to 0
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 1, "k2": 1},
                          snr_grid=grid, mc_samples=100, seed=7)
    proc = run_cli("verify", "--scenario", path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: snr_grid: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("scheme, network, overrides, key", [
    ("all_user", {"antennas": [2, 2.7, 2], "n_eve": 4, "k2": 2}, {}, "network.antennas[1]"),
    ("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": True}, {}, "network.k2"),
    ("modified_two_user", {"n1": 2.0, "n2": 3, "k_total": 7, "n_eve": 6}, {}, "network.n1"),
    ("all_user", {"antennas": [2, 2], "n_eve": 3}, {"mc_samples": 300.5}, "mc_samples"),
    ("all_user", {"antennas": [2, 2], "n_eve": 3}, {"seed": False}, "seed"),
])
def test_non_integer_counts_are_rejected(write_scenario, scheme, network, overrides, key):
    path = write_scenario(scheme, network, **{**FAST_MC, **overrides})
    proc = run_cli("formula", "--scenario", path)
    assert proc.returncode == 2
    assert f"{key}: expected an integer" in proc.stderr


def test_missing_scenario_file():
    proc = run_cli("formula", "--scenario", "/nonexistent/path.json")
    assert proc.returncode == 2
    assert "cannot read scenario file" in proc.stderr


def test_malformed_scenario_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    proc = run_cli("formula", "--scenario", str(path))
    assert proc.returncode == 2
    assert "malformed" in proc.stderr


def test_wrong_schema_version_is_rejected(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(
        json.dumps({"schema_version": 2, "scheme": "all_user",
                    "network": {"antennas": [1, 1], "n_eve": 0}}),
        encoding="utf-8",
    )
    proc = run_cli("formula", "--scenario", str(path))
    assert proc.returncode == 2
    assert "schema_version" in proc.stderr


def test_verify_runs_green_and_is_deterministic(tmp_path, write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2}, **FAST_MC)
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    proc1 = run_cli("verify", "--scenario", path, "--out", str(out1))
    proc2 = run_cli("verify", "--scenario", path, "--out", str(out2))
    assert proc1.returncode == 0 and proc2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()

    rows = read_csv_rows(out1)
    assert len(rows) >= 10
    names = [r["name"] for r in rows]
    assert names == sorted(names)
    controls = [r for r in rows if r["name"].startswith("negctrl:")]
    assert controls and all(r["passed"] == "false" for r in controls)
    real = [r for r in rows if not r["name"].startswith("negctrl:")]
    assert real and all(r["passed"] == "true" for r in real)


@pytest.mark.parametrize("antennas, n_eve, k2, seed", [
    ([3, 3], 2, 3, 606877412),
    ([2, 2, 2], 4, 3, 1969069028),
    ([2] * 5, 5, 10, 1211454174),
    ([2] * 5, 5, 10, 1290796144),
], ids=["au-33", "au-222", "au-22222-a", "au-22222-b"])
def test_verify_passes_where_drawn_pilots_failed(tmp_path, write_scenario, antennas, n_eve, k2,
                                                 seed):
    # benchmark scenarios on which pilots of full rank but poor conditioning
    # would fail slope:phase1[1-2] on the default grid
    path = write_scenario("all_user", {"antennas": antennas, "n_eve": n_eve, "k2": k2},
                          mc_samples=100, seed=seed)
    out = tmp_path / "v.csv"
    assert run_cli("verify", "--scenario", path, "--out", str(out)).returncode == 0
    rows = read_csv_rows(out)
    controls = [r for r in rows if r["name"].startswith("negctrl:")]
    assert controls and all(r["passed"] == "false" for r in controls)


@pytest.mark.parametrize("top", [60, 1000])
@pytest.mark.parametrize("scheme, network", [
    ("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2}),
    ("modified_two_user", {"n1": 2, "n2": 3, "k_total": 6, "n_eve": 2}),
])
def test_verify_holds_at_extreme_snr(tmp_path, write_scenario, scheme, network, top):
    # in float64, s2 * R + I stops being numerically positive definite from
    # about log2(sigma^2) = 50 on, so no log-determinant may factor it
    path = write_scenario(scheme, network, snr_grid=[12, 30, top], **FAST_MC)
    out = tmp_path / "v.csv"
    proc = run_cli("verify", "--scenario", path, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "nan" not in out.read_text(encoding="utf-8")
    slopes = [r for r in read_csv_rows(out) if r["name"].startswith("slope:")]
    assert len(slopes) >= 2 and all(r["passed"] == "true" for r in slopes)


def test_verify_csv_numbers_round_trip(tmp_path, write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 3, "k2": 1}, **FAST_MC)
    out = tmp_path / "v.csv"
    assert run_cli("verify", "--scenario", path, "--out", str(out)).returncode == 0
    for row in read_csv_rows(out):
        for field in ("measured", "target", "tolerance"):
            text = row[field]
            assert format(float(text), ".12g") == text


def test_verify_tamper_hook_fails(write_scenario, monkeypatch, tmp_path):
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 3, "k2": 1}, **FAST_MC)
    out = str(tmp_path / "v.csv")
    clean = run_cli("verify", "--scenario", path, "--out", out)
    assert (clean.returncode, clean.stderr) == (0, "")
    # a pilot-phase target one DoF off fails its slope row
    monkeypatch.setattr(cli, "dof_phase1", lambda n_i, n_j: n_i * n_j + 1)
    tampered = run_cli("verify", "--scenario", path, "--out", out)
    assert tampered.returncode == 1
    rows = read_csv_rows(out)
    failing = [r["name"] for r in rows if r["passed"] == "false"]
    assert "slope:phase1[1-2]" in failing
    # stderr names the failing real rows and the passing controls, in name order
    deciding = sorted(r["name"] for r in rows
                      if (r["passed"] == "true") == r["name"].startswith("negctrl:"))
    assert tampered.stderr == f"verify failed on: {', '.join(deciding)}\n"


def test_modified_slope_target_comes_from_dofcalc(write_scenario, monkeypatch, tmp_path):
    path = write_scenario("modified_two_user", {"n1": 2, "n2": 3, "k_total": 6, "n_eve": 2},
                          **FAST_MC)
    out = str(tmp_path / "v.csv")
    assert run_cli("verify", "--scenario", path, "--out", out).returncode == 0
    # the ckey0 slope target is lower_12 without Eve, N_1(2K - N_T) = 14
    assert {r["name"]: r["target"] for r in read_csv_rows(out)}["slope:modified-ckey0"] == "14"
    original = cli.dof_modified_two_user

    def off_by_one(c):
        md = original(c)
        return replace(md, lower_12=md.lower_12 + 1)

    monkeypatch.setattr(cli, "dof_modified_two_user", off_by_one)
    tampered = run_cli("verify", "--scenario", path, "--out", out)
    assert tampered.returncode == 1
    deciding = tampered.stderr.strip().removeprefix("verify failed on: ").split(", ")
    assert "slope:modified-ckey0" in deciding
    row = {r["name"]: r for r in read_csv_rows(out)}["slope:modified-ckey0"]
    assert (row["target"], row["passed"]) == ("15", "false")


def test_verify_has_no_hidden_tamper_option(write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 3, "k2": 1}, **FAST_MC)
    proc = run_cli("verify", "--scenario", path, "--inject-wrong-target")
    assert proc.returncode == 2
    assert "unrecognized arguments: --inject-wrong-target" in proc.stderr


def test_verify_resolution_rows_judge_the_sample_count(write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 3, "k2": 1},
                          mc_samples=1, seed=7)
    # one sample has no spread to measure, so no Monte Carlo slope is resolved
    one = run_cli("verify", "--scenario", path)
    assert one.returncode == 1
    assert one.stderr == ("verify failed on: resolution:slope:cij[1-2], "
                          "resolution:slope:cond-entropy[2x3x4]\n")
    assert "resolution:slope:cij[1-2],0,1,0,false" in one.stdout

    # the command-line override runs any legal count, and two resolve both slopes here
    two = run_cli("verify", "--scenario", path, "--mc-samples", "2")
    assert (two.returncode, two.stderr) == (0, "")
    assert "resolution:slope:cij[1-2],1,1,0,true" in two.stdout

    removed = run_cli("verify", "--scenario", path, "--allow-low-samples")
    assert removed.returncode == 2
    assert "unrecognized arguments: --allow-low-samples" in removed.stderr


def test_verify_resolution_fails_a_slope_that_passes_on_noise(write_scenario):
    # a grid only 1 wide gives 2 samples a slope error above tol/4, though
    # this draw's slope lands inside the tolerance
    path = write_scenario("all_user", {"antennas": [8, 8], "n_eve": 2, "k2": 1},
                          snr_grid=[12, 12.5, 13], seed=7)
    noisy = run_cli("verify", "--scenario", path, "--mc-samples", "2")
    assert noisy.returncode == 1
    assert noisy.stderr == "verify failed on: resolution:slope:cij[1-2]\n"
    assert "\nslope:cij[1-2],15.7141438681,16,0.48,true\n" in noisy.stdout
    assert run_cli("verify", "--scenario", path, "--mc-samples", "100").returncode == 0


@pytest.mark.parametrize("grid", [[998, 999, 1000], [-1, 0, 1], [-1000, -999, -998],
                                  [-1000, 0, 1000], [0, 1, 2]])
@pytest.mark.parametrize("scheme, network", [
    ("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2}),
    ("pairwise", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2}),
    ("modified_two_user", {"n1": 2, "n2": 3, "k_total": 6, "n_eve": 2}),
])
def test_verify_reads_the_grids_the_parser_accepts(tmp_path, write_scenario, scheme, network,
                                                   grid):
    path = write_scenario(scheme, network, snr_grid=grid, mc_samples=100, seed=7)
    out = tmp_path / "v.csv"
    assert run_cli("verify", "--scenario", path, "--out", str(out)).returncode in (0, 1)
    rows = read_csv_rows(out)
    for r in rows:
        assert all(np.isfinite(float(r[field])) for field in ("measured", "target", "tolerance"))
    resolution = [r["measured"] for r in rows if r["name"].startswith("resolution:")]
    assert resolution and set(resolution) <= {"0", "1"}


@pytest.mark.parametrize("samples, resolved", [(100, "0"), (2000, "1")])
def test_resolution_rows_tell_noise_from_bias(write_scenario, samples, resolved):
    # on [0, 1, 2] the slopes are biased low; 100 samples cannot even measure
    # them, 2,000 can, and the slope rows still fail
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 3, "k2": 1},
                          snr_grid=[0, 1, 2], seed=7)
    proc = run_cli("verify", "--scenario", path, "--mc-samples", str(samples))
    assert proc.returncode == 1
    rows = list(csv.DictReader(proc.stdout.splitlines()))
    resolution = {r["name"]: r["measured"] for r in rows if r["name"].startswith("resolution:")}
    assert resolution == {"resolution:slope:cij[1-2]": resolved,
                          "resolution:slope:cond-entropy[2x3x4]": resolved}
    slopes = {r["name"]: r["passed"] for r in rows if r["name"].startswith("slope:")}
    assert set(slopes.values()) == {"false"}


@pytest.mark.parametrize("command, extra", [
    ("verify", ()), ("compare", ()), ("sweep", ("--axis", "n_eve", "--range", "0:2")),
    ("pilots", ()),
])
@pytest.mark.parametrize("kind", ["directory", "missing-parent", "separator"])
def test_unwritable_out_is_a_usage_error(tmp_path, write_scenario, command, extra, kind):
    # every command, the modified scheme's pilots included, writes the one --out it names
    out = {"directory": str(tmp_path), "missing-parent": str(tmp_path / "missing" / "out.txt"),
           "separator": str(tmp_path) + os.sep}[kind]
    for scheme, network in (("all_user", {"antennas": [2, 2], "n_eve": 3, "k2": 1}),
                            ("modified_two_user", {"n1": 2, "n2": 3, "k_total": 6, "n_eve": 2})):
        path = write_scenario(scheme, network, mc_samples=100, seed=7)
        proc = run_cli(command, "--scenario", path, *extra, "--out", out)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: --out {out}: cannot write: ")
        assert proc.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario1.json", "scenario2.json"]


def test_verify_refuses_an_unwritable_out_before_building_rows(tmp_path, write_scenario,
                                                               monkeypatch, capsys):
    def built(*args, **kwargs):
        raise AssertionError("verify built its rows")

    monkeypatch.setattr(cli, "_verify_rows", built)
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 3}, **FAST_MC)
    assert cli.main(["verify", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out {tmp_path}: cannot write: ")


def test_readme_names_exactly_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {option for sub in commands.choices.values() for action in sub._actions
               if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings if option.startswith("--")}
    assert named == options


def test_verify_modified_scheme(tmp_path, write_scenario):
    path = write_scenario(
        "modified_two_user", {"n1": 2, "n2": 3, "k_total": 7, "n_eve": 6}, **FAST_MC
    )
    out = tmp_path / "vm.csv"
    proc = run_cli("verify", "--scenario", path, "--out", str(out))
    assert proc.returncode == 0
    names = [r["name"] for r in read_csv_rows(out)]
    assert "slope:modified-ckey0" in names


def test_verify_pairwise_scheme(tmp_path, write_scenario):
    path = write_scenario("pairwise", {"antennas": [1, 1, 1], "n_eve": 2, "k2": 1}, **FAST_MC)
    out = tmp_path / "vp.csv"
    proc = run_cli("verify", "--scenario", path, "--out", str(out))
    assert proc.returncode == 0
    names = [r["name"] for r in read_csv_rows(out)]
    assert "rank:pairwise-pilot" in names


def test_sweep_two_user_over_eve_antennas(tmp_path, write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 3], "n_eve": 0, "k2": 4}, **FAST_MC)
    out = tmp_path / "s.csv"
    proc = run_cli("sweep", "--scenario", path, "--axis", "n_eve", "--range", "0:8",
                   "--out", str(out))
    assert proc.returncode == 0
    values = [int(r["dof_two_user_original"]) for r in read_csv_rows(out)]
    assert values == [16, 16, 14, 12, 10, 8, 8, 8, 8]


def test_sweep_modified_over_total_slots(tmp_path, write_scenario):
    path = write_scenario(
        "modified_two_user", {"n1": 2, "n2": 3, "k_total": 7, "n_eve": 6}, **FAST_MC
    )
    out = tmp_path / "s.csv"
    proc = run_cli("sweep", "--scenario", path, "--axis", "k2", "--range", "3:8",
                   "--out", str(out))
    assert proc.returncode == 0
    values = [int(r["dof_phase2"]) for r in read_csv_rows(out)]
    assert values == [2, 6, 10, 10, 10, 10]


def test_sweep_symmetric_network_size(tmp_path, write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 12, "k2": 2}, **FAST_MC)
    out = tmp_path / "s.csv"
    proc = run_cli("sweep", "--scenario", path, "--axis", "m", "--range", "2:6",
                   "--out", str(out))
    assert proc.returncode == 0
    values = [int(r["dof_phase2_lower_plus"]) for r in read_csv_rows(out)]
    assert values == [8, 4, 0, 0, 0]


AU_222 = ("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2})
PW_222 = ("pairwise", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2})
MOD_2362 = ("modified_two_user", {"n1": 2, "n2": 3, "k_total": 6, "n_eve": 2})


@pytest.mark.parametrize("scenario, axis, span, message", [
    (AU_222, "n_eve", "-2:1", "network.n_eve: N_E < 0"),
    (("all_user", {"antennas": [2, 3], "n_eve": 2, "k2": 3}), "n_eve", "-2:1",
     "network.n_eve: N_E < 0"),
    (PW_222, "n_eve", "-2:1", "network.n_eve: N_E < 0"),
    (MOD_2362, "n_eve", "-2:1", "network.n_eve: N_E < 0"),
    (AU_222, "k2", "-1:1", "network.k2: K_2 < 0"),
    (PW_222, "k2", "-1:1", "network.k2: K_2 < 0"),
    (MOD_2362, "k2", "-1:1", "network.k_total: K < N_2 (need >= 3)"),
    (AU_222, "m", "0:3", "network.antennas: M < 2"),
], ids=["all_user-n_eve", "all_user-2x3-n_eve", "pairwise-n_eve", "modified-n_eve",
        "all_user-k2", "pairwise-k2", "modified-k2", "all_user-m"])
def test_sweep_validates_every_value(tmp_path, write_scenario, scenario, axis, span, message):
    # swept values go through the same validator as the scenario file
    out = tmp_path / "s.csv"
    proc = run_cli("sweep", "--scenario", write_scenario(*scenario, **FAST_MC), "--axis", axis,
                   f"--range={span}", "--out", str(out))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("m", [MAX_USERS + 1, 2**28, 2**28 + 1])
def test_sweep_refuses_a_network_size_before_building_it(tmp_path, write_scenario, capsys, m):
    # the layout of m users is never built: the refusal costs no memory
    path = write_scenario("all_user", {"antennas": [1, 1], "n_eve": 0, "k2": 1}, **FAST_MC)
    out = tmp_path / "s.csv"
    tracemalloc.start()
    try:
        code = cli.main(["sweep", "--scenario", path, "--axis", "m", "--range", f"{m}:{m}",
                         "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"network.antennas: M > {MAX_USERS}" in capsys.readouterr().err
    assert peak < 2**20
    assert not out.exists()


def test_sweep_reaches_the_network_size_cap(tmp_path, write_scenario):
    path = write_scenario("all_user", {"antennas": [1, 1], "n_eve": 0, "k2": 1}, **FAST_MC)
    out = tmp_path / "s.csv"
    assert cli.main(["sweep", "--scenario", path, "--axis", "m",
                     "--range", f"{MAX_USERS - 1}:{MAX_USERS}", "--out", str(out)]) == 0
    assert [int(r["value"]) for r in read_csv_rows(out)] == [MAX_USERS - 1, MAX_USERS]


def test_scenario_network_size_is_capped(write_scenario):
    for scheme in ("all_user", "pairwise"):
        path = write_scenario(scheme, {"antennas": [1] * (MAX_USERS + 1), "n_eve": 0}, **FAST_MC)
        proc = run_cli("formula", "--scenario", path)
        assert proc.returncode == 2
        assert f"network.antennas: M > {MAX_USERS}" in proc.stderr


@pytest.mark.parametrize("where", ["file", "flag"])
def test_mc_samples_below_one_is_refused(write_scenario, capsys, where):
    # the scenario key and the command-line override obey one rule
    samples = {"file": 0, "flag": 300}[where]
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 3}, mc_samples=samples)
    flag = ["--mc-samples", "0"] if where == "flag" else []
    assert cli.main(["formula", "--scenario", path, *flag]) == 2
    assert capsys.readouterr().err == "error: mc_samples: must be >= 1\n"


@pytest.mark.parametrize("where", ["file", "flag"])
def test_mc_samples_above_the_cap_is_refused_before_drawing(write_scenario, monkeypatch, capsys,
                                                            where):
    def drawn(*args):
        raise AssertionError("a Monte Carlo block was drawn")

    for module in (numkernel, capacity):  # capacity holds its own reference
        monkeypatch.setattr(module, "cn_blocks", drawn)
    samples = 10**12
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 3},
                          mc_samples=samples if where == "file" else 300)
    flag = ["--mc-samples", str(samples)] if where == "flag" else []
    assert cli.main(["verify", "--scenario", path, *flag]) == 2
    assert capsys.readouterr().err == f"error: mc_samples: must be <= {cli.MAX_MC_SAMPLES}\n"


# (K_1 = 9, D = 35, N_T = 10): pilot matrix 10 * 9, draws 100 * (35 + 6 * 10)
# and pair-wise pilots 100 * 10 * 6 * 4; the draws name n_eve once the 100 * 35
# user-channel draws alone fit
@pytest.mark.parametrize("cap, problems", [
    (0, [("antennas", 90), ("antennas", 9500), ("antennas", 24000)]),
    (9499, [("n_eve", 9500), ("antennas", 24000)]),
    (9500, [("antennas", 24000)]),
    (24000, []),
])
def test_verify_size_counts_each_array(monkeypatch, cap, problems):
    monkeypatch.setattr(cli, "MAX_VERIFY_ENTRIES", cap)
    found = cli._verify_size(NetworkConfig((1, 2, 3, 4), 6, k2=6), pilots=True)
    assert [(field, int(text.split(" of ")[1].split()[0])) for field, text in found] == problems


@pytest.mark.parametrize("scheme, network, first", [
    ("all_user", {"antennas": [1] * 128, "n_eve": 0},
     "network.antennas: verify needs a pair-wise pilot batch of 104038400 entries"),
    ("pairwise", {"antennas": [1] * 128, "n_eve": 0},
     "network.antennas: verify needs a pair-wise pilot batch of 104038400 entries"),
    ("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k1": 10**6},
     "network.k1: verify needs a pilot matrix of 6000000 entries"),
    ("all_user", {"antennas": [2, 2], "n_eve": 10**6},
     "network.n_eve: verify needs a rank-oracle draw batch of 400000400 entries"),
    ("modified_two_user", {"n1": 2**20, "n2": 2**20, "k_total": 2**20, "n_eve": 0},
     f"network.n2: verify needs a pilot matrix of {2**41} entries"),
], ids=["all_user-128", "pairwise-128", "all_user-k1", "all_user-n_eve", "modified-2^20"])
def test_verify_refuses_an_oversized_working_set(write_scenario, monkeypatch, capsys, scheme,
                                                 network, first):
    def built(*args, **kwargs):
        raise AssertionError("verify started its work")

    monkeypatch.setattr(cli, "_verify_rows", built)
    path = write_scenario(scheme, network, **FAST_MC)
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--scenario", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {first} > {cli.MAX_VERIFY_ENTRIES}")
    assert "Traceback" not in err
    assert peak < 2**20
    # only verify is bounded
    assert cli.main(["formula", "--scenario", path]) == 0


def test_verify_runs_a_pairwise_network_of_d_above_the_covariance_bound(write_scenario,
                                                                        tmp_path):
    # [19, 19, 19] has D = 1,083 user-channel entries: (2D)^2 is above the
    # cap, but the rank oracle counts channel labels and holds no D x D array
    path = write_scenario("pairwise", {"antennas": [19, 19, 19], "n_eve": 2}, **FAST_MC)
    out = tmp_path / "v.csv"
    proc = run_cli("verify", "--scenario", path, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "nan" not in (proc.stdout + out.read_text(encoding="utf-8")).lower()


@pytest.mark.parametrize("network", [
    {"antennas": [16] * 4, "n_eve": 2},
    {"antennas": [1, 1], "n_eve": 0, "k1": 2**21},
], ids=["16x4", "k1-2^21"])
def test_verify_runs_networks_that_only_a_reception_stack_bound_refused(write_scenario,
                                                                         tmp_path, network):
    # D * N_T * K_1 is 196,608 * 48 on [16]x4 and 2^22 on [1,1] at K_1 = 2^21;
    # the pilot matrix N_T * K_1 fits both, and phase1_curve holds no K_1 x K_1
    # array.  Exit 1 is allowed: on [16]x4 the +3 control
    # negctrl:slope:phase1-wrong-target passes at target 256, whose tolerance
    # max(0.15, 0.03 * 256) exceeds 3, a known defect of slope_tolerance
    path = write_scenario("all_user", network, mc_samples=100, seed=7)
    out = tmp_path / "v.csv"
    proc = run_cli("verify", "--scenario", path, "--out", str(out))
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr
    rows = csv.DictReader(out.read_text(encoding="utf-8").splitlines())
    passed = {r["name"]: r["passed"] == "true" for r in rows}
    assert any(name.startswith("eig:") for name in passed)
    assert any(name.startswith("rank:") for name in passed)
    assert all(ok for name, ok in passed.items() if not name.startswith("negctrl:"))
    assert {name for name, ok in passed.items() if name.startswith("negctrl:") and ok} <= {
        "negctrl:slope:phase1-wrong-target"}


def _refused_in_process(args, write_scenario, monkeypatch, capsys, modules, name, scheme, network,
                        **overrides):
    """Run ``anece-lab <args>`` with ``name`` patched to fail in ``modules``:
    the exit code, stderr and tracemalloc peak."""
    def called(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    for module in modules:
        monkeypatch.setattr(module, name, called)
    path = write_scenario(scheme, network, **overrides)
    tracemalloc.start()
    try:
        code = cli.main([*args, "--scenario", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, capsys.readouterr().err, peak


# A curve keeps one value per grid point and sample, and its log terms never
# take more: 1,000 points at MAX_MC_SAMPLES keep 10^8 values, and 2,049
# points on [8, 8] at 2,100 samples keep 2,049 * 2,100
WIDE_HALF_STEP_GRID = [x / 2 for x in range(-1024, 1025)]


@pytest.mark.parametrize("network, grid, samples, size", [
    ({"antennas": [2, 2], "n_eve": 1}, list(range(-500, 500)), 100_000, 10**8),
    ({"antennas": [8, 8], "n_eve": 1}, WIDE_HALF_STEP_GRID, 2100, 2049 * 2100),
])
def test_verify_refuses_an_oversized_curve(write_scenario, monkeypatch, capsys, network, grid,
                                           samples, size):
    code, err, peak = _refused_in_process(
        ["verify"], write_scenario, monkeypatch, capsys, (numkernel, capacity), "cn_blocks",
        "all_user", network, snr_grid=grid, mc_samples=samples)
    assert code == 2
    assert err == (f"error: snr_grid: verify needs a Monte Carlo curve of {size} entries "
                   f"> {cli.MAX_VERIFY_ENTRIES}\n")
    assert peak < 2**20


def test_verify_runs_a_wide_curve_within_its_values(write_scenario, tmp_path):
    # 2,049 points on [8, 8] at 300 samples keep 614,700 values, and the log
    # terms of its 8 x 8 factors, summed one eigenvalue at a time, no more.
    # Half the grid lies below 0 dB, so slope rows may fail, but none is nan
    path = write_scenario("all_user", {"antennas": [8, 8], "n_eve": 1},
                          snr_grid=WIDE_HALF_STEP_GRID, **FAST_MC)
    out = tmp_path / "v.csv"
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--scenario", path, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code in (0, 1)
    assert "nan" not in out.read_text(encoding="utf-8").lower()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("scheme, network, grid, samples", [
    ("all_user", (1, 2, 3, 4), list(range(12, 25, 2)), 2000),
    ("all_user", (2, 2, 2, 2, 2), list(range(12, 45)), 2000),
    ("modified_two_user", (2, 3, 6, 2), list(range(12, 45)), 300),
])
def test_curve_size_accepts_the_benchmark_scenarios(scheme, network, grid, samples):
    # the largest curves of tier-1 and the benchmark, 7 x 2,000 and 33 x 300,
    # with room to spare
    cfg = NetworkConfig(network, 6) if scheme == "all_user" else TwoUserModifiedConfig(*network)
    sc = cli.Scenario(scheme, cfg, SnrGrid(tuple(grid)), samples, 7)
    assert cli._curve_size(sc) == []


@pytest.mark.parametrize("scheme, network, first", [
    ("all_user", {"antennas": [2, 2], "n_eve": 1, "k1": 10**15},
     "network.k1: pilots needs a pilot matrix of 4000000000000000 entries"),
    ("all_user", {"antennas": [2**20, 2**20], "n_eve": 0},
     f"network.antennas: pilots needs a pilot matrix of {2**41} entries"),
    ("pairwise", {"antennas": [1, 1, 1], "n_eve": 1, "k1": 10**15},
     "network.k1: pilots needs a pair-wise pilot matrix of 9000000000000000 entries"),
    ("modified_two_user", {"n1": 1, "n2": 2**27, "k_total": 2**27, "n_eve": 0},
     f"network.n2: pilots needs a pilot matrix of {2**54} entries"),
], ids=["all_user-k1", "all_user-antennas", "pairwise-k1", "modified-n2"])
def test_pilots_refuses_an_oversized_pilot_before_drawing(write_scenario, monkeypatch, capsys,
                                                          tmp_path, scheme, network, first):
    out = tmp_path / "P.txt"
    code, err, peak = _refused_in_process(
        ["pilots", "--out", str(out)], write_scenario, monkeypatch, capsys,
        (numkernel, pilots, cli), "sample_cn", scheme, network, **FAST_MC)
    assert code == 2
    assert err == f"error: {first} > {cli.MAX_VERIFY_ENTRIES}\n"
    assert peak < 2**20
    assert not list(tmp_path.glob("P*.txt"))


def test_parser_is_built_once_per_process(write_scenario, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    try:
        path = write_scenario("all_user", {"antennas": [2, 3], "n_eve": 2, "k2": 3}, **FAST_MC)
        assert cli.main(["formula", "--scenario", path]) == 0
        assert built
        del built[:]
        assert cli.main(["compare", "--scenario", path]) == 0
        assert built == []
    finally:
        cli._build_parser.cache_clear()


def test_usage_error_is_the_same_on_every_call(write_scenario, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    path = write_scenario(*AU_222, **FAST_MC)
    argv = ["sweep", "--scenario", path, "--axis", "bogus", "--range", "0:2", "--out", "s.csv"]
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert errors == [proc.stderr] * 2
    assert "invalid choice: 'bogus'" in proc.stderr


def test_importing_the_package_imports_no_numpy():
    # the modules are the API; the package itself re-exports nothing
    code = "import sys, anece_lab; assert 'numpy' not in sys.modules, 'numpy imported'"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr


def test_verify_evaluates_the_identity_suite_once(tmp_path, write_scenario, monkeypatch):
    calls = []
    suite = cli.identity_suite

    def counted():
        calls.append(1)
        return suite()

    monkeypatch.setattr(cli, "identity_suite", counted)
    cli._identity_rows.cache_clear()
    for tag, scenario in (("au", AU_222), ("mod", MOD_2362)):
        path = write_scenario(*scenario, **FAST_MC)
        out, ref = tmp_path / f"{tag}.csv", tmp_path / f"{tag}-ref.csv"
        assert cli.main(["verify", "--scenario", path, "--out", str(out)]) == 0
        assert run_module("verify", "--scenario", path, "--out", str(ref)).returncode == 0
        assert out.read_bytes() == ref.read_bytes()
    assert len(calls) == 1


def test_identity_suite_still_sees_a_fault_after_a_cached_verify(tmp_path, write_scenario,
                                                                 monkeypatch):
    path = write_scenario(*AU_222, **FAST_MC)
    assert cli.main(["verify", "--scenario", path, "--out", str(tmp_path / "v.csv")]) == 0
    gap = verify.dof_gap
    monkeypatch.setattr(verify, "dof_gap", lambda s: gap(s) + (s.n_eve == 5))
    rows = {r.name: r for r in verify.identity_suite()}
    assert not rows["identity:gap-consistency"].passed
    assert all(r.passed for r in cli._identity_rows())


def test_sweep_rejects_mismatched_axis(tmp_path, write_scenario):
    path = write_scenario(
        "modified_two_user", {"n1": 2, "n2": 3, "k_total": 7, "n_eve": 6}, **FAST_MC
    )
    proc = run_cli("sweep", "--scenario", path, "--axis", "m", "--range", "2:4",
                   "--out", str(tmp_path / "s.csv"))
    assert proc.returncode == 2

    asym = write_scenario("all_user", {"antennas": [1, 2], "n_eve": 0, "k2": 1}, **FAST_MC)
    proc = run_cli("sweep", "--scenario", asym, "--axis", "m", "--range", "2:4",
                   "--out", str(tmp_path / "s2.csv"))
    assert proc.returncode == 2
    assert "symmetric" in proc.stderr


# the nine networks of the exact-checks benchmark workload, and their sweep spans
EXACT_NETWORKS = {
    "au-23": ("all_user", {"antennas": [2, 3], "n_eve": 2, "k2": 3}),
    "au-33": ("all_user", {"antennas": [3, 3], "n_eve": 2, "k2": 3}),
    "au-222": ("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 3}),
    "au-1234": ("all_user", {"antennas": [1, 2, 3, 4], "n_eve": 6, "k2": 6}),
    "au-22222": ("all_user", {"antennas": [2, 2, 2, 2, 2], "n_eve": 5, "k2": 10}),
    "pw-222": ("pairwise", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2}),
    "pw-1223": ("pairwise", {"antennas": [1, 2, 2, 3], "n_eve": 3, "k2": 1}),
    "mod-2-3": ("modified_two_user", {"n1": 2, "n2": 3, "k_total": 6, "n_eve": 2}),
    "mod-1-3": ("modified_two_user", {"n1": 1, "n2": 3, "k_total": 7, "n_eve": 3}),
}
EXACT_SWEEPS = [
    (tag, "n_eve", (0, 24)) for tag in EXACT_NETWORKS
] + [
    (tag, "k2", (network["n2"], network["n2"] + 24) if scheme == "modified_two_user" else (0, 24))
    for tag, (scheme, network) in EXACT_NETWORKS.items()
] + [(tag, "m", (2, 12)) for tag in ("au-33", "au-222", "au-22222")]


def reference_sweep_csv(path, axis, lo, hi):
    """The sweep CSV built value by value: one validated scenario and one report each."""
    sc = cli.parse_scenario(path)
    reports = [(value, cli.formula_report(replace(sc, network=cli._sweep_network(sc, axis, value)))
                .entries) for value in range(lo, hi + 1)]
    keys = list(dict.fromkeys(k for _, entries in reports for k in entries))
    lines = ["axis,value," + ",".join(keys)]
    for value, entries in reports:
        lines.append(f"{axis},{value}," + ",".join(str(entries.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tag, axis, span", EXACT_SWEEPS,
                         ids=[f"{tag}-{axis}" for tag, axis, _ in EXACT_SWEEPS])
def test_sweep_matches_a_per_value_reference(tmp_path, write_scenario, tag, axis, span):
    path = write_scenario(*EXACT_NETWORKS[tag], **FAST_MC)
    out = tmp_path / "s.csv"
    lo, hi = span
    argv = ["sweep", "--scenario", path, "--axis", axis, "--range", f"{lo}:{hi}", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text(encoding="utf-8") == reference_sweep_csv(path, axis, lo, hi)


def test_sweep_evaluates_its_span_in_one_pass(tmp_path, write_scenario, monkeypatch):
    calls = []
    report = cli.formula_report

    def counted(sc):
        calls.append(sc)
        return report(sc)

    monkeypatch.setattr(cli, "formula_report", counted)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--scenario", write_scenario(*AU_222, **FAST_MC), "--axis", "n_eve",
            "--range", "0:24", "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 25
    assert len(calls) == 1


@pytest.mark.parametrize("span", ["0:1000000000", f"0:{cli.SWEEP_MAX_VALUES}"])
def test_sweep_refuses_a_huge_range_at_once(tmp_path, write_scenario, monkeypatch, capsys,
                                            span):
    def validated(*args):
        raise AssertionError("a swept value was validated")

    monkeypatch.setattr(cli, "_sweep_network", validated)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--scenario", write_scenario(*AU_222, **FAST_MC), "--axis", "n_eve",
            "--range", span, "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--range" in err and f"at most {cli.SWEEP_MAX_VALUES}" in err
    assert not out.exists()


def read_matrices(path):
    """The matrices of a ``pilots.write_matrix_text`` file, in order, as complex arrays."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    matrices = []
    while lines:
        rows, cols = map(int, lines.pop(0).split())
        body = [np.array(lines.pop(0).split(), dtype=float).view(complex) for _ in range(rows)]
        matrices.append(np.array(body).reshape(rows, cols))
    return matrices


def read_matrix(path):
    """The one matrix of a ``pilots.write_matrix_text`` file."""
    (matrix,) = read_matrices(path)
    return matrix


def pairwise_blocks(seed, antennas, k1):
    """The per-user blocks that `pilots` draws for a pair-wise scenario of ``seed``."""
    rng = numkernel.substream(seed, "pilots-pairwise")
    return [numkernel.sample_cn(rng, (n, k1)) for n in antennas]


def test_pilots_command_all_user(tmp_path, write_scenario):
    path = write_scenario("all_user", {"antennas": [1, 1, 1], "n_eve": 0, "k2": 1}, **FAST_MC)
    out = tmp_path / "P.txt"
    proc = run_cli("pilots", "--scenario", path, "--out", str(out))
    assert proc.returncode == 0
    assert "rank(P)=2 OK" in proc.stdout
    assert read_matrix(out).shape == (3, 2)

    again = tmp_path / "P2.txt"
    assert run_cli("pilots", "--scenario", path, "--out", str(again)).returncode == 0
    assert out.read_bytes() == again.read_bytes()

    # the emitted matrix is the library's build for the scenario seed
    expected = pilots.build_pilots(NetworkConfig((1, 1, 1), 0, k2=1), 7).stacked
    assert np.allclose(read_matrix(out), expected)


def test_pilots_command_all_user_with_unbalanced_antennas(tmp_path, write_scenario):
    # user 1's 8 rows among 1,008 must get roots spread round the circle: on a
    # short arc its P_(i) is full rank in exact arithmetic only, fails the audit
    # and the command raises
    path = write_scenario("all_user", {"antennas": [8, 1000], "n_eve": 0, "k2": 1}, **FAST_MC)
    out = tmp_path / "P.txt"
    proc = run_cli("pilots", "--scenario", path, "--out", str(out))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"wrote {out}: rank(P)=1000 OK\n  rank(P_1)=8 OK\n  rank(P_2)=1000 OK\n"
    out.unlink()  # 41 MB of text


def test_pilots_command_pairwise(tmp_path, write_scenario):
    # six sessions of K_1 = 4 slots each
    network = {"antennas": [1, 2, 2, 3], "n_eve": 2, "k1": 4, "k2": 1}
    path = write_scenario("pairwise", network, **FAST_MC)
    out = tmp_path / "P.txt"
    proc = run_cli("pilots", "--scenario", path, "--out", str(out))
    assert proc.returncode == 0
    assert "rank(P_pair)=8 OK" in proc.stdout
    assert read_matrix(out).shape == (8, 6 * 4)

    # the emitted matrix is the library's build from the scenario seed's blocks
    blocks = pairwise_blocks(7, network["antennas"], 4)
    assert np.array_equal(read_matrix(out), pilots.build_pairwise_matrix(blocks))

    again = tmp_path / "P2.txt"
    assert run_cli("pilots", "--scenario", path, "--out", str(again)).returncode == 0
    assert out.read_bytes() == again.read_bytes()


def test_pilots_command_modified(tmp_path, write_scenario):
    path = write_scenario(
        "modified_two_user", {"n1": 2, "n2": 3, "k_total": 7, "n_eve": 6}, **FAST_MC
    )
    out = tmp_path / "P.txt"
    proc = run_cli("pilots", "--scenario", path, "--out", str(out))
    assert (proc.returncode, proc.stdout) == (0, f"wrote {out}: rank(P1)=2 OK\n  rank(P2)=3 OK\n")
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".txt"] == ["P.txt"]
    assert [m.shape for m in read_matrices(out)] == [(2, 2), (3, 3)]


# one network per scheme for the pilots and --out tests
PILOT_NETWORKS = {
    "all_user": {"antennas": [1, 2, 3], "n_eve": 1, "k2": 3},
    "pairwise": {"antennas": [1, 2, 2], "n_eve": 1, "k1": 3, "k2": 3},
    "modified_two_user": {"n1": 2, "n2": 3, "k_total": 6, "n_eve": 2},
}


def built_pilots(scheme, seed):
    """The library's pilot matrices for ``PILOT_NETWORKS[scheme]``, as `pilots` orders them."""
    if scheme == "all_user":
        return [pilots.build_pilots(NetworkConfig((1, 2, 3), 1), seed).stacked]
    if scheme == "pairwise":
        return [pilots.build_pairwise_matrix(pairwise_blocks(seed, (1, 2, 2), 3))]
    pp = pilots.build_square_pilots(TwoUserModifiedConfig(2, 3, 6, 2), seed)
    return [pp.p1, pp.p2]


@pytest.mark.parametrize("scheme", PILOT_NETWORKS)
def test_pilots_file_round_trips_every_scheme(tmp_path, write_scenario, scheme):
    # one file holds every pilot matrix of the scheme, the modified one's P1 then P2
    out = tmp_path / "P.txt"
    path = write_scenario(scheme, PILOT_NETWORKS[scheme], **FAST_MC)
    assert run_cli("pilots", "--scenario", path, "--out", str(out)).returncode == 0
    back, expected = read_matrices(out), built_pilots(scheme, FAST_MC["seed"])
    assert [m.shape for m in back] == [m.shape for m in expected]
    assert all(np.array_equal(a, b) for a, b in zip(back, expected))


@pytest.mark.parametrize("command, extra", [
    ("verify", ()), ("compare", ()), ("sweep", ("--axis", "n_eve", "--range", "0:2")),
    ("pilots", ()),
])
@pytest.mark.parametrize("scheme", PILOT_NETWORKS)
def test_each_command_opens_its_out_once(tmp_path, write_scenario, monkeypatch, command, extra,
                                         scheme):
    path = write_scenario(scheme, PILOT_NETWORKS[scheme], mc_samples=100, seed=7)
    out = str(tmp_path / "out.txt")
    opened = []

    def counted(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", counted)
    code = run_cli(command, "--scenario", path, *extra, "--out", out).returncode
    monkeypatch.undo()
    assert (code, opened.count(out)) == (0, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "scenario1.json"]


def test_pilots_command_invalid_config(write_scenario, tmp_path):
    path = write_scenario("all_user", {"antennas": [2], "n_eve": 0, "k1": 1}, **FAST_MC)
    proc = run_cli("pilots", "--scenario", path, "--out", str(tmp_path / "P.txt"))
    assert proc.returncode == 2


def test_compare_command_three_users(write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 2, 2], "n_eve": 7, "k2": 3}, **FAST_MC)
    proc = run_cli("compare", "--scenario", path)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "scheme,phase1_dof,phase2_dof,total_dof,phase1_slots,phase2_slots"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["all_user"][2] == "2"
    assert rows["pairwise"][2] == "0"
    assert rows["all_user"][4] == "4"
    assert rows["pairwise"][4] == "6"


def test_compare_gives_each_scheme_its_shortest_pilot_phase(write_scenario):
    # all-user K_1 = 9 is longer than needed: the row prices N_T - N_min = 4 slots,
    # fewer than the pair-wise schedule's 3 sessions of max N_i = 2
    network = {"antennas": [2, 2, 2], "n_eve": 4, "k1": 9, "k2": 3}
    proc = run_cli("compare", "--scenario", write_scenario("all_user", network, **FAST_MC))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1:] == ["all_user,4,4,8,4,3", "pairwise,4,0,4,6,3"]


def test_compare_command_modified_beats_original(write_scenario):
    path = write_scenario(
        "modified_two_user", {"n1": 2, "n2": 3, "k_total": 7, "n_eve": 6}, **FAST_MC
    )
    proc = run_cli("compare", "--scenario", path)
    assert proc.returncode == 0
    rows = {line.split(",")[0]: line.split(",") for line in proc.stdout.strip().splitlines()[1:]}
    assert int(rows["modified_two_user"][3]) - int(rows["all_user"][3]) == 2


def test_compare_command_equal_antennas_tie(write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 5, "k2": 3}, **FAST_MC)
    proc = run_cli("compare", "--scenario", path)
    rows = {line.split(",")[0]: line.split(",") for line in proc.stdout.strip().splitlines()[1:]}
    assert rows["all_user"][3] == rows["modified_two_user"][3]


@pytest.mark.parametrize("scheme, network, message", [
    ("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 4},
     "phase-2 budget 4 is not divisible by 3 sessions"),
    ("pairwise", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 2**28}, "K_2 > 268435456"),
], ids=["uneven_budget", "budget_cap"])
def test_compare_refusal_names_its_key(write_scenario, scheme, network, message):
    # the pair-wise budget is K_2 per session times the 3 sessions
    proc = run_cli("compare", "--scenario", write_scenario(scheme, network, **FAST_MC))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: network.k2: {message}\n"


def test_module_entry_point_exits_with_the_command_code(write_scenario):
    ok = write_scenario("pairwise", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 1}, **FAST_MC)
    proc = run_module("compare", "--scenario", ok)
    assert proc.returncode == 0
    assert proc.stdout == run_cli("compare", "--scenario", ok).stdout
    refused = write_scenario("all_user", {"antennas": [2, 2, 2], "n_eve": 4, "k2": 4}, **FAST_MC)
    proc = run_module("compare", "--scenario", refused)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: network.k2: ")
    assert "Traceback" not in proc.stderr


def test_seed_override_changes_mc_rows(tmp_path, write_scenario):
    path = write_scenario("all_user", {"antennas": [2, 2], "n_eve": 3, "k2": 1}, **FAST_MC)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("verify", "--scenario", path, "--out", str(a)).returncode == 0
    assert run_cli("verify", "--scenario", path, "--seed", "99", "--out", str(b)).returncode == 0
    assert a.read_bytes() != b.read_bytes()
