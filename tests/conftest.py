import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from anece_lab import cli
from anece_lab.numkernel import EVE, ChannelRealization, user_channel_dim, user_realization
from anece_lab.verify import default_grid


@pytest.fixture
def write_scenario(tmp_path):
    """Write a scenario JSON file into the test's temp dir and return its path."""

    counter = {"n": 0}

    def _write(scheme, network, **overrides):
        counter["n"] += 1
        payload = {"schema_version": 1, "scheme": scheme, "network": network}
        payload.update(overrides)
        path = tmp_path / f"scenario{counter['n']}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return _write


def run_cli(*args):
    """Run ``cli.main`` in this process with stdout and stderr captured.

    Returns a completed process like ``subprocess.run`` would, with a usage
    error's ``SystemExit`` mapped to its code.  Monkeypatches reach this
    call, and the parser and identity-row caches persist between calls.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


# the environment of a child interpreter: it imports ``anece_lab`` from where the tests do
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH"))))}


def run_module(*args):
    """Run ``python -m anece_lab.cli`` in a subprocess; returns the completed process."""
    return subprocess.run([sys.executable, "-m", "anece_lab.cli", *args],
                          capture_output=True, text=True, env=CHILD_ENV)


COMPARE_FIELDS = ("scheme", "phase1_dof", "phase2_dof", "total_dof", "phase1_slots",
                  "phase2_slots")


def compare_rows(cfg, scheme="all_user"):
    """``cli.compare_schemes`` on ``cfg``, each row a dict keyed by its CSV column."""
    sc = cli.Scenario(scheme, cfg, default_grid(), 100, 0)
    return {row[0]: dict(zip(COMPARE_FIELDS, row)) for row in cli.compare_schemes(sc)}


def svd_rank(a):
    """``numerical_rank``'s rule, one matrix and one LAPACK SVD at a time."""
    a = np.asarray(a)
    ranks = np.zeros(a.shape[:-2], dtype=int)
    for index in np.ndindex(a.shape[:-2]):
        s = np.linalg.svd(a[index], compute_uv=False)
        ranks[index] = np.sum(s > max(a.shape[-2:]) * 1e-12 * s[0]) if s.size else 0
    return ranks


# --------------------------------------------------------------------------
# the signal-model reference: receptions, and the Jacobians they give
# --------------------------------------------------------------------------


def receive(ch: ChannelRealization, tx):
    """Noiseless unit-power receptions ``(user_rx, eve_rx)`` of the N_j x K blocks ``tx``.

    Full duplex: user i hears Y_i = sum_{j != i} H_ij X_j = H_(i) [X_j]_{j != i}
    and Eve hears H_E [X_1; ...; X_M], whichever phase the blocks X_j belong
    to.  Channels may carry leading batch axes, as ``channel_basis`` gives
    them; the blocks are matrices.
    """
    if [np.shape(x)[0] for x in tx] != list(ch.antennas):
        raise ValueError("each transmit block needs one row per antenna of its user")
    users = range(len(tx))
    user_rx = tuple(ch.link([i]) @ np.vstack([tx[j] for j in users if j != i]) for i in users)
    return user_rx, ch.link([EVE]) @ np.vstack(tx)


def channel_basis(antennas) -> ChannelRealization:
    """D realizations on a leading axis, the e-th with only user-channel entry e at 1.

    Eve has no antennas.  Through a map linear in the user channels, such as
    ``receive``, it gives that map's Jacobian.
    """
    return user_realization(antennas, np.eye(user_channel_dim(antennas)))


def vec_batch(x):
    """Column-major vec of each matrix of a (B, r, c) stack, as a (B, r*c) array."""
    return np.swapaxes(x, -1, -2).reshape(len(x), -1)


def joint_jacobian(ps, i, j):
    """The test reference for the pilot-phase joint factor J of users i and j.

    J is the Jacobian of the pilot receptions [vec(Y_i); vec(Y_j^T)] of
    ``receive`` over ``channel_basis``, less the zero columns of entries
    neither user hears, so that sigma^2 J J^H + I is the pair's joint
    reception covariance at power sigma^2 under unit noise.  On pilots that
    pass the audit each ``eig:joint`` row of ``verify.eig_growth_suite``
    must equal its rank, and on any pilots it may not exceed it.
    """
    rx = receive(channel_basis(ps.antennas), ps.blocks)[0]
    jac = np.concatenate([vec_batch(rx[i]), vec_batch(np.swapaxes(rx[j], 1, 2))], axis=1).T
    return jac[:, np.any(jac != 0, axis=0)]
