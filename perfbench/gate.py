"""Correctness gate and reference comparison for the benchmark workloads.

Everything here reads the files a CLI run wrote, never its stdout.  The gate
applies the acceptance tolerances of the test suite unchanged; the reference
comparison measures how far the numbers moved from the outputs recorded at
the seed commit (`reference/`, written by record_reference.py).
"""

import functools
import hashlib
import json
import lzma
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# acceptance tolerances (tests/test_acceptance.py and simulate.py)
CURVE_GAP_TOL = 1e-2
MU0_PLOT_FLOOR = 1e-8
DETACHMENT_ROWS = 130
ENERGY_DECAY_TOL = 1e-6
STABILITY_TOL = 1e-6
SATURATION_TOL = 1e-12
MIN_LAST_ORDER = 0.8


def _read_table(path, opener=open):
    """Column names and a 2-D float array of a CSV or a '# x ...' .dat file.

    An empty CSV field (the first sweep row has no order) reads as nan.
    """
    with opener(path, "rt") as f:
        header = f.readline()
        lines = f.read().splitlines()
    if header.startswith("#"):
        names, delim = header[1:].split(), None
    else:
        names, delim = header.strip().split(","), ","
    if not lines:
        return names, np.empty((0, len(names)))
    data = np.loadtxt(lines, delimiter=delim, ndmin=2, converters=lambda s: float(s) if s else np.nan)
    return names, data


def _column(names, data, name):
    return data[:, names.index(name)]


def check_detachment(out_dir):
    problems = []
    names, z = _read_table(os.path.join(out_dir, "detachment_z.dat"))
    _, mu = _read_table(os.path.join(out_dir, "detachment_mu0.dat"))
    for label, arr in (("detachment_z.dat", z), ("detachment_mu0.dat", mu)):
        if arr.shape[0] != DETACHMENT_ROWS:
            problems.append(f"{label}: {arr.shape[0]} rows, expected {DETACHMENT_ROWS}")
        if not np.all(np.isfinite(arr)):
            problems.append(f"{label}: non-finite values")
    if problems:
        return problems
    z2, z3 = _column(names, z, "z(t=0.0002)"), _column(names, z, "z(t=0.0003)")
    gap = np.max(np.abs(z3 - z2)) / np.max(np.abs(z3))
    if not gap < CURVE_GAP_TOL:
        problems.append(f"curve gap {gap:.3g} >= {CURVE_GAP_TOL}")
    mu_cols = mu[:, 1:]
    if np.min(mu_cols) < MU0_PLOT_FLOOR or np.max(mu_cols) >= 1.0:
        problems.append(f"mu0 outside [{MU0_PLOT_FLOOR}, 1): [{np.min(mu_cols):.3g}, {np.max(mu_cols):.3g}]")
    return problems


def check_weak_diag(out_dir):
    problems = []
    names, d = _read_table(os.path.join(out_dir, "diagnostics.csv"))
    if d.shape[0] < 2 or not np.all(np.isfinite(d)):
        return [f"diagnostics.csv: {d.shape[0]} rows or non-finite values"]
    E, Q = _column(names, d, "energy"), _column(names, d, "stability")
    worst = np.max(np.diff(E))
    if worst > ENERGY_DECAY_TOL * E[0]:
        problems.append(f"energy rises by {worst:.3g} > {ENERGY_DECAY_TOL} E0")
    rel = np.max(np.diff(Q) / np.maximum(Q[:-1], 1e-300))
    if rel > STABILITY_TOL:
        problems.append(f"stability rises by {rel:.3g} (relative) > {STABILITY_TOL}")
    mu0_max = np.max(_column(names, d, "mu0_max"))
    if not mu0_max < 1.0 - SATURATION_TOL:
        problems.append(f"mu0_max = {mu0_max!r} >= 1 - {SATURATION_TOL}")
    _, traj = _read_table(os.path.join(out_dir, "trajectory.csv"))
    if traj.shape[0] == 0 or not np.all(np.isfinite(traj)):
        problems.append("trajectory.csv: empty or non-finite")
    return problems


def check_sweep(out_dir):
    names, s = _read_table(os.path.join(out_dir, "sweep.csv"))
    errors, orders = _column(names, s, "l2_error"), _column(names, s, "order")
    problems = []
    if len(errors) < 2 or not np.all(np.diff(errors) < 0.0):
        problems.append(f"errors not strictly decreasing: {errors.tolist()}")
    if not orders[-1] >= MIN_LAST_ORDER:
        problems.append(f"last order {orders[-1]!r} < {MIN_LAST_ORDER}")
    return problems


GATES = {"detachment": check_detachment, "weak_diag": check_weak_diag, "sweep": check_sweep}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def reference_digests(workload):
    with open(os.path.join(REFERENCE_DIR, workload, "digests.json")) as f:
        return json.load(f)


def compare_to_reference(workload, out_dir):
    """(digests_match, out_drift) of a run's files against the recorded ones.

    out_drift is the largest, over every numeric column of every output file,
    of max|x - ref| / max|ref|; nan entries must sit where the reference has
    them.  It is inf when a file is missing or its shape or header changed.
    """
    digests = reference_digests(workload)
    match, drift = True, 0.0
    for name, digest in digests.items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            return False, math.inf
        match = match and sha256(path) == digest
        ref_names, ref = _reference_table(workload, name)
        names, got = _read_table(path)
        if names != ref_names or got.shape != ref.shape or np.any(np.isnan(got) != np.isnan(ref)):
            return False, math.inf
        diff = np.where(np.isnan(ref), 0.0, np.abs(got - ref))
        scale = np.nanmax(np.abs(ref), axis=0, initial=0.0)
        col = np.max(diff, axis=0, initial=0.0) / np.where(scale > 0.0, scale, 1.0)
        drift = max(drift, float(np.max(col, initial=0.0)))
    return match, drift


@functools.cache
def _reference_table(workload, name):
    return _read_table(os.path.join(REFERENCE_DIR, workload, name + ".xz"), opener=lzma.open)
