"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import filecmp
import os

import numpy as np
import pytest

from linkages.cli import main

TINY_WEAK = """
[simulation]
epsilon = 0.05
final_time = 0.02
nx = 12
da = 0.01
mode = weak

[rate_model]
zeta_kind = given
zeta = constant(1.0)
beta_kind = given
beta = constant(1.0)

[past_data]
z_p = sin_pi

[initial_density]
rho_I = exp_decay
"""

TINY_COUPLED = """
[simulation]
epsilon = 0.02
final_time = 0.02
nx = 12
da = 0.02
mode = coupled

[rate_model]
zeta_kind = lipschitz
zeta = one_plus_abs
zeta_M = inf
beta_kind = given
beta = constant(1.0)

[past_data]
z_p = zero

[initial_density]
rho_I = exp_decay(0.9)

[source]
S = constant(1.0)
"""


def write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_weak_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, TINY_WEAK)
    out = str(tmp_path / "out")
    code = main(["weak", "--config", cfg, "--out", out, "--cadence", "5", "--dump-density"])
    assert code == 0
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))
    assert os.path.exists(os.path.join(out, "density.csv"))
    header = open(os.path.join(out, "diagnostics.csv")).readline().strip()
    assert header == "t,energy,dissipation,mu0_min,mu0_max,stability,lyapunov,p,gamma2,truncated"


def test_weak_determinism(tmp_path):
    cfg = write(tmp_path, TINY_WEAK)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["weak", "--config", cfg, "--out", out1, "--cadence", "5"]) == 0
    assert main(["weak", "--config", cfg, "--out", out2, "--cadence", "5"]) == 0
    for name in ("trajectory.csv", "diagnostics.csv"):
        assert filecmp.cmp(os.path.join(out1, name), os.path.join(out2, name), shallow=False)


def test_weak_source_subcommand(tmp_path):
    out = str(tmp_path / "out")
    code = main(["weak-source", "--out", out, "--cadence", "50"])
    assert code == 0


def test_limit_subcommand(tmp_path):
    cfg = write(tmp_path, TINY_WEAK)
    out = str(tmp_path / "out")
    assert main(["limit", "--config", cfg, "--out", out, "--cadence", "4"]) == 0
    lines = open(os.path.join(out, "trajectory.csv")).read().splitlines()
    assert lines[0] == "t,x,z"
    assert len(lines) == 1 + 11 * 14  # 11 output times, 14 nodes


def test_coupled_subcommand(tmp_path):
    cfg = write(tmp_path, TINY_COUPLED)
    out = str(tmp_path / "out")
    assert main(["coupled", "--config", cfg, "--out", out, "--cadence", "10"]) == 0
    assert os.path.exists(os.path.join(out, "diagnostics.csv"))


def test_sweep_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, TINY_WEAK)
    out = str(tmp_path / "out")
    code = main([
        "convergence-sweep", "--config", cfg, "--out", out,
        "--epsilons", "0.2,0.1", "--cadence", "1",
    ])
    assert code == 0
    text = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert text[0] == "epsilon,l2_error,order"
    assert len(text) == 3
    captured = capsys.readouterr()
    assert "L2(Q_T) error" in captured.out


def test_detachment_subcommand_small(tmp_path):
    # desk-size variant of the tear-off experiment
    text = """
[simulation]
epsilon = 0.001
final_time = 0.0006
nx = 24
da = 0.01
mode = coupled

[rate_model]
zeta_kind = lipschitz
zeta = one_plus_abs
zeta_M = inf
beta_kind = threshold
beta = threshold(1000)
beta_m = 0.0

[past_data]
z_p = sin_pi

[initial_density]
rho_I = exp_decay

[source]
S = constant(10000.0)
"""
    cfg = write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["detachment", "--config", cfg, "--out", out]) == 0
    z_lines = open(os.path.join(out, "detachment_z.dat")).read().splitlines()
    assert z_lines[0].startswith("# x z(t=0.0001)")
    assert len(z_lines) == 1 + 26
    mu_lines = open(os.path.join(out, "detachment_mu0.dat")).read().splitlines()
    # log-floor clip keeps every population value at or above 1e-8
    floors = np.array([[float(tok) for tok in ln.split()[1:]] for ln in mu_lines[1:]])
    assert floors.min() >= 1e-8


def test_config_error_exit_code(tmp_path):
    bad = write(tmp_path, TINY_WEAK.replace("exp_decay", "exp_decay(2.0)"))
    assert main(["weak", "--config", bad, "--out", str(tmp_path / "o")]) == 1


def test_missing_file_exit_code(tmp_path):
    assert main(["weak", "--config", str(tmp_path / "none.ini"), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("line, bad", [
    ("epsilon = 0.05", "epsilon = nan"),
    ("da = 0.01", "da = nan"),
    ("final_time = 0.02", "final_time = inf"),
])
def test_nonfinite_config_scalar_exit_code(tmp_path, capsys, line, bad):
    cfg = write(tmp_path, TINY_WEAK.replace(line, bad))
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "config error: HypothesisViolation('scale finiteness'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, violation", [
    (["weak", "--cadence", "0"], "output cadence"),
    (["limit", "--cadence", "0"], "output cadence"),
    (["convergence-sweep", "--epsilons", "abc"], "malformed scale list"),
    (["convergence-sweep", "--epsilons", "0.03,0.07"], "final time divisibility"),
    (["convergence-sweep", "--epsilons", "0.05,0.04", "--cadence", "1"], "output grid divisibility"),
])
def test_bad_argument_exit_code(tmp_path, capsys, argv, violation):
    cfg = write(tmp_path, TINY_WEAK)
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"config error: HypothesisViolation({violation!r}" in capsys.readouterr().err


def nan_rate_case(command, base, line, name):
    text = base.replace("[rate_model]\n", f"[rate_model]\n{line}\n")
    return pytest.param(command, text, name, id=name)


@pytest.mark.parametrize("command, text, name", [
    nan_rate_case("weak", TINY_WEAK, "beta_m = nan", "beta_m"),
    nan_rate_case("weak", TINY_WEAK, "beta_M = nan", "beta_M"),
    nan_rate_case("weak", TINY_WEAK, "zeta_m = nan", "zeta_m"),
    nan_rate_case("coupled", TINY_COUPLED.replace("zeta_M = inf\n", ""), "zeta_M = nan", "zeta_M"),
    nan_rate_case("coupled", TINY_COUPLED, "zeta_lip = nan", "zeta_lip"),
    nan_rate_case("coupled", TINY_COUPLED, "zeta_at_zero = nan", "zeta_at_zero"),
    nan_rate_case("coupled", TINY_COUPLED.replace("given\nbeta = constant(1.0)", "threshold\nbeta = threshold(nan)"), "", "zbar"),
])
def test_nan_rate_scalar_exit_code(tmp_path, capsys, command, text, name):
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"config error: HypothesisViolation('rate scalar is NaN' at {name})" in capsys.readouterr().err


@pytest.mark.parametrize("scale, a_max", [("1e-200", "1e-198"), ("1e-160", "1e-158")])
def test_underflowing_time_step_exit_code(tmp_path, capsys, scale, a_max):
    # epsilon*da underflows to 0 (1e-200) or to a denormal whose T/dt overflows (1e-160)
    text = TINY_WEAK.replace("epsilon = 0.05", f"epsilon = {scale}")
    cfg = write(tmp_path, text.replace("da = 0.01", f"da = {scale}\na_max = {a_max}"))
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "config error: HypothesisViolation('time step range'" in capsys.readouterr().err
