"""The benchmark's workloads: scenario files and the CLI operations run on them.

Only the scenario seeds depend on the benchmark's ``--seed``; the networks,
sample counts, grids and the operation list are fixed per workload, so two
seeds cost the same work and differ only in the random draws.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

DEFAULT_GRID = [12, 14, 16, 18, 20, 22, 24]
# 33 points, log2(sigma^2) = 12..44.  verify crashes from 50 (cij, ckey0) and
# 52 (phase 1) on, so the top point stays clear of that fault.
WIDE_GRID = list(range(12, 45))
SWEEP_SPAN = 24


@dataclass(frozen=True)
class Scenario:
    """One scenario file: its tag, its JSON body, and where it was written."""

    tag: str
    body: dict
    path: str

    @property
    def scheme(self) -> str:
        return self.body["scheme"]

    @property
    def network(self) -> dict:
        return self.body["network"]


@dataclass(frozen=True)
class Operation:
    """One ``anece-lab`` invocation; ``out_path`` is set when it writes a file."""

    kind: str  # verify | formula | compare | sweep
    scenario: Scenario
    argv: tuple[str, ...]
    axis: str | None = None
    span: tuple[int, int] | None = None
    out_path: str | None = None

    @property
    def label(self) -> str:
        extra = f"[{self.axis}]" if self.axis else ""
        return f"{self.kind}{extra}:{self.scenario.tag}"


def _all_user(antennas, n_eve, k2):
    return "all_user", {"antennas": list(antennas), "n_eve": n_eve, "k2": k2}


def _pairwise(antennas, n_eve, k2):
    return "pairwise", {"antennas": list(antennas), "n_eve": n_eve, "k2": k2}


def _modified(n1, n2, k_total, n_eve):
    return "modified_two_user", {"n1": n1, "n2": n2, "k_total": k_total, "n_eve": n_eve}


# The four baseline scenarios of the ROADMAP.
BASELINE = {
    "au-222": _all_user((2, 2, 2), 4, 2),
    "au-1234": _all_user((1, 2, 3, 4), 6, 3),
    "mod-2-3": _modified(2, 3, 6, 2),
    "pw-222": _pairwise((2, 2, 2), 4, 2),
}

# All three schemes at M = 2..5.  All-user slot budgets K_2 are multiples of
# M(M-1)/2 so that `compare` can split them over the pair-wise sessions.
EXACT = {
    "au-23": _all_user((2, 3), 2, 3),
    "au-33": _all_user((3, 3), 2, 3),
    "au-222": _all_user((2, 2, 2), 4, 3),
    "au-1234": _all_user((1, 2, 3, 4), 6, 6),
    "au-22222": _all_user((2, 2, 2, 2, 2), 5, 10),
    "pw-222": _pairwise((2, 2, 2), 4, 2),
    "pw-1223": _pairwise((1, 2, 2, 3), 3, 1),
    "mod-2-3": _modified(2, 3, 6, 2),
    "mod-1-3": _modified(1, 3, 7, 3),
}


@dataclass(frozen=True)
class Workload:
    name: str
    networks: dict
    mc_samples: int
    grid: list
    exact: bool  # run every sweep axis and compare on every scenario


WORKLOADS = {
    "mc-standard": Workload("mc-standard", BASELINE, 2000, DEFAULT_GRID, False),
    "mc-wide-grid": Workload(
        "mc-wide-grid",
        {tag: BASELINE[tag] for tag in ("au-222", "au-1234", "mod-2-3")},
        300, WIDE_GRID, False,
    ),
    "exact-checks": Workload("exact-checks", EXACT, 100, DEFAULT_GRID, True),
}


def _compare_is_legal(scheme: str, network: dict) -> bool:
    """`compare` refuses an all-user K_2 that M(M-1)/2 sessions cannot split."""
    if scheme != "all_user":
        return True
    m = len(network["antennas"])
    return m == 2 or network["k2"] % (m * (m - 1) // 2) == 0


def _sweeps(sc: Scenario) -> list[tuple[str, tuple[int, int]]]:
    """Every sweep axis the CLI accepts for this scenario, over a wide range."""
    if sc.scheme == "modified_two_user":
        n2 = sc.network["n2"]
        return [("n_eve", (0, SWEEP_SPAN)), ("k2", (n2, n2 + SWEEP_SPAN))]
    axes = [("n_eve", (0, SWEEP_SPAN)), ("k2", (0, SWEEP_SPAN))]
    if sc.scheme == "all_user" and len(set(sc.network["antennas"])) == 1:
        axes.append(("m", (2, 12)))
    return axes


def build(name: str, seed: int, out_dir: str) -> tuple[list[Scenario], list[Operation]]:
    """Write the workload's scenario files under ``out_dir``; return its operations.

    Every operation of the list is one pass's worth of work.  `verify` and
    `formula` run on every scenario.  The Monte Carlo workloads run `compare`
    where the slot budget allows it; `exact-checks` also sweeps every legal
    axis.
    """
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    scenarios = []
    for tag, (scheme, network) in wl.networks.items():
        body = {
            "schema_version": 1,
            "scheme": scheme,
            "network": network,
            "snr_grid": wl.grid,
            "mc_samples": wl.mc_samples,
            "seed": rng.randrange(2**31),
        }
        path = os.path.join(out_dir, f"{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        scenarios.append(Scenario(tag, body, path))

    ops = []
    for sc in scenarios:
        base = ("--scenario", sc.path)
        ops.append(Operation("verify", sc, ("verify",) + base))
        ops.append(Operation("formula", sc, ("formula",) + base))
        if _compare_is_legal(sc.scheme, sc.network):
            ops.append(Operation("compare", sc, ("compare",) + base))
        if wl.exact:
            for axis, (lo, hi) in _sweeps(sc):
                out = os.path.join(out_dir, f"sweep-{sc.tag}-{axis}.csv")
                argv = ("sweep",) + base + ("--axis", axis, "--range", f"{lo}:{hi}", "--out", out)
                ops.append(Operation("sweep", sc, argv, axis, (lo, hi), out))
    return scenarios, ops
