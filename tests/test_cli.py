"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import filecmp
import os

import numpy as np
import pytest

from linkages import simulate
from linkages.cli import main
from test_golden_outputs import WEAK

# The mode keys are leftovers that load_config ignores: the subcommand alone
# picks the model.  So are truncation_k, zeta_at_zero and dS_dt.
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


SMALL_DETACHMENT = """
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


def test_limit_stops_at_the_final_time(tmp_path):
    # the CLI defaults: final_time = 0.5 is not a multiple of 7 steps
    # (dt = 5e-4), so the last snapshot is the last whole one before it
    out = tmp_path / "out"
    assert main(["limit", "--out", str(out), "--cadence", "7"]) == 0
    last_t = float((out / "trajectory.csv").read_text().splitlines()[-1].split(",")[0])
    assert last_t <= 0.5


def test_sweep_at_a_cadence_that_does_not_divide_the_final_time(tmp_path):
    # every delay run keeps its n_steps // stride + 1 snapshots, and the
    # limit reference must keep as many
    out = tmp_path / "out"
    assert main(["convergence-sweep", "--out", str(out), "--cadence", "7"]) == 0
    assert (out / "sweep.csv").exists()


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
    cfg = write(tmp_path, SMALL_DETACHMENT)
    out = str(tmp_path / "out")
    assert main(["detachment", "--config", cfg, "--out", out]) == 0
    z_lines = open(os.path.join(out, "detachment_z.dat")).read().splitlines()
    assert z_lines[0].startswith("# x z(t=0.0001)")
    assert len(z_lines) == 1 + 26
    mu_lines = open(os.path.join(out, "detachment_mu0.dat")).read().splitlines()
    # log-floor clip keeps every population value at or above 1e-8
    floors = np.array([[float(tok) for tok in ln.split()[1:]] for ln in mu_lines[1:]])
    assert floors.min() >= 1e-8


def test_detachment_reports_its_flags(tmp_path, capsys, monkeypatch):
    # a soft flag (say the Riccati monitor's) goes to stderr; stdout, the
    # files and the exit code stay those of the run without it
    cfg = write(tmp_path, SMALL_DETACHMENT)
    assert main(["detachment", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr()
    run_detachment = simulate.run_detachment

    def flagged(vcfg):
        res = run_detachment(vcfg)
        res.soft_flags.append("riccati monitor: p=2 > gamma2=1 at t=0.0006")
        return res

    monkeypatch.setattr(simulate, "run_detachment", flagged)
    assert main(["detachment", "--config", cfg, "--out", str(tmp_path / "flagged")]) == 0
    got = capsys.readouterr()
    assert got.out == plain.out
    assert got.err.splitlines() == [*plain.err.splitlines(), "flag: riccati monitor: p=2 > gamma2=1 at t=0.0006"]
    names = sorted(os.listdir(tmp_path / "plain"))
    assert names == sorted(os.listdir(tmp_path / "flagged"))
    assert filecmp.cmpfiles(tmp_path / "plain", tmp_path / "flagged", names, shallow=False)[0] == names


def test_warnings_are_one_plain_line_each(tmp_path, capsys):
    # the message alone: no warning class, no source path of the checkout
    out = str(tmp_path / "out")
    assert main(["detachment", "--config", write(tmp_path, SMALL_DETACHMENT), "--out", out]) == 0
    err = capsys.readouterr().err
    assert any(ln.startswith("warning: threshold on-rate vanishes") for ln in err.splitlines())
    assert "UserWarning" not in err and ".py:" not in err


def test_detachment_ending_before_the_last_snapshot_is_a_config_error(tmp_path, capsys):
    text = SMALL_DETACHMENT.replace("final_time = 0.0006", "final_time = 0.0002").replace("nx = 24", "nx = 8")
    out = tmp_path / "o"
    assert main(["detachment", "--config", write(tmp_path, text), "--out", str(out)]) == 1
    assert "config error: HypothesisViolation('detachment snapshot times'" in capsys.readouterr().err
    assert not out.exists()


def test_detachment_snapshot_times_sharing_a_step(tmp_path):
    # dt = 2e-4: the snapshot times 2e-4 and 3e-4 round to the same level
    text = SMALL_DETACHMENT.replace("epsilon = 0.001", "epsilon = 0.02").replace("final_time = 0.0006", "final_time = 0.0004")
    out = str(tmp_path / "o")
    assert main(["detachment", "--config", write(tmp_path, text), "--out", out]) == 0
    rows = [ln.split() for ln in open(os.path.join(out, "detachment_z.dat")).read().splitlines()[1:]]
    assert all(r[2] == r[3] for r in rows)


@pytest.mark.parametrize("epsilons, sorted_scales", [("0.1,0.1", "0.1,0.1"), ("0.1,0.05,0.1", "0.1,0.1,0.05")])
def test_repeated_scales_are_a_config_error_before_any_run(tmp_path, capsys, monkeypatch, epsilons, sorted_scales):
    # the order estimate of a repeated scale divides by log(eps/eps) = 0
    runs = []
    monkeypatch.setattr(simulate, "run_weak", lambda *args, **kwargs: runs.append(args))
    cfg, out = write(tmp_path, TINY_WEAK), tmp_path / "out"
    assert main(["convergence-sweep", "--config", cfg, "--out", str(out), "--epsilons", epsilons]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("config error:")]
    assert errors == [f"config error: HypothesisViolation('distinct scales' at epsilons {sorted_scales})"]
    assert not (out / "sweep.csv").exists()
    assert runs == []


MALFORMED_INI = {
    "no-section-header": TINY_WEAK.replace("[simulation]\n", "").encode(),
    "repeated-key": TINY_WEAK.replace("nx = 12\n", "nx = 12\nnx = 16\n").encode(),
    "repeated-section": (TINY_WEAK + "\n[simulation]\nnx = 16\n").encode(),
    "indented-line-without-key": TINY_WEAK.replace("[past_data]\n", "[past_data]\n    sin_pi\n").encode(),
    "undecodable-byte": b"\xff" + TINY_WEAK.encode(),
}


@pytest.mark.parametrize("content", MALFORMED_INI.values(), ids=MALFORMED_INI.keys())
def test_malformed_ini_is_a_config_error(tmp_path, capsys, content):
    path = tmp_path / "run.ini"
    path.write_bytes(content)
    assert main(["weak", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if ln.startswith("config error:")]
    assert len(errors) == 1 and errors[0].startswith("config error: HypothesisViolation('malformed config'")


BOND_FREE_COUPLED = (
    TINY_COUPLED.replace("epsilon = 0.02", "epsilon = 0.05").replace("final_time = 0.02", "final_time = 0.05")
    .replace("nx = 12", "nx = 8").replace("da = 0.02", "da = 0.01\na_max = 1").replace("exp_decay(0.9)", "zero")
)


@pytest.mark.parametrize("command, text", [
    ("weak", TINY_WEAK.replace("rho_I = exp_decay", "rho_I = zero")),
    ("coupled", BOND_FREE_COUPLED),
], ids=["weak", "coupled"])
def test_bond_free_start_warns_once_and_is_no_extinction(tmp_path, capsys, command, text):
    # the population is zero only at level 0: the renewal refills it at the
    # first step, so the start is one warning and no extinction flag
    assert main([command, "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [ln for ln in err if ln.startswith("warning: initial bond population")] == [
        "warning: initial bond population vanishes somewhere"
    ]
    assert not any(ln.startswith("flag: extinction") for ln in err)


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
    # dt_out = 251 * 0.2 * 0.01 = 0.502 reaches past final_time = 0.02: no snapshot after t = 0
    (["convergence-sweep", "--cadence", "251"], "output grid"),
])
def test_bad_argument_exit_code(tmp_path, capsys, argv, violation):
    cfg = write(tmp_path, TINY_WEAK)
    assert main([*argv, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"config error: HypothesisViolation({violation!r}" in err
    assert [ln.startswith("config error:") for ln in err.splitlines()] == [True]
    assert not os.path.exists(tmp_path / "o" / "sweep.csv")


def nan_rate_case(command, base, line, name):
    text = base.replace("[rate_model]\n", f"[rate_model]\n{line}\n")
    return pytest.param(command, text, name, id=name)


@pytest.mark.parametrize("command, text, name", [
    nan_rate_case("weak", TINY_WEAK, "beta_m = nan", "beta_m"),
    nan_rate_case("weak", TINY_WEAK, "beta_M = nan", "beta_M"),
    nan_rate_case("weak", TINY_WEAK, "zeta_m = nan", "zeta_m"),
    nan_rate_case("coupled", TINY_COUPLED.replace("zeta_M = inf\n", ""), "zeta_M = nan", "zeta_M"),
    nan_rate_case("coupled", TINY_COUPLED, "zeta_lip = nan", "zeta_lip"),
    nan_rate_case("coupled", TINY_COUPLED.replace("given\nbeta = constant(1.0)", "threshold\nbeta = threshold(nan)"), "", "zbar"),
])
def test_nan_rate_scalar_exit_code(tmp_path, capsys, command, text, name):
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"config error: HypothesisViolation('rate scalar is NaN' at {name})" in capsys.readouterr().err


@pytest.mark.parametrize("scale, a_max", [("1e-200", "1e-198"), ("1e-160", "1e-158"), ("1e-100", "1e-98")])
def test_underflowing_time_step_exit_code(tmp_path, capsys, scale, a_max):
    # epsilon*da underflows to 0 (1e-200), to a denormal whose T/dt overflows
    # (1e-160), or leaves about 2e198 steps, far past 2**53 (1e-100)
    text = TINY_WEAK.replace("epsilon = 0.05", f"epsilon = {scale}")
    cfg = write(tmp_path, text.replace("da = 0.01", f"da = {scale}\na_max = {a_max}"))
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "config error: HypothesisViolation('time step range'" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [("nx = 12", "nx = 1000000000000"), ("da = 0.01", "da = 1e-13")],
                         ids=["nx-1e12", "da-1e-13"])
def test_absurd_grid_is_a_config_error_before_any_allocation(tmp_path, capsys, old, new):
    # the golden weak INI with 1e12 space nodes or 1e14 age cells: the space
    # grid alone (7.28 TiB) or the age grid (728 TiB) used to end in a
    # numpy memory error traceback, exit 1 and no config error line
    cfg = write(tmp_path, WEAK.replace(old, new))
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "config error: HypothesisViolation('grid size' at (nx+2) x (na+1) = " in err and "Traceback" not in err


def weak_rate_case(old, new, name, id):
    return pytest.param(TINY_WEAK.replace(old, new), name, id=id)


@pytest.mark.parametrize("text, name", [
    weak_rate_case("zeta = constant(1.0)", "zeta = constant(nan)", "off-rate finiteness", "zeta-nan"),
    weak_rate_case("zeta = constant(1.0)", "zeta = constant(inf)\nzeta_M = inf", "off-rate finiteness", "zeta-inf"),
    weak_rate_case("beta = constant(1.0)", "beta = constant(nan)", "on-rate finiteness", "beta-nan"),
    weak_rate_case("beta = constant(1.0)", "beta = constant(inf)\nbeta_M = inf", "on-rate finiteness", "beta-inf"),
    # a threshold on-rate needs zeta(u)
    weak_rate_case("beta_kind = given", "beta_kind = threshold", "rate model kind", "threshold"),
])
def test_bad_rate_field_exit_code(tmp_path, capsys, text, name):
    cfg = write(tmp_path, text)
    assert main(["weak", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert f"config error: HypothesisViolation({name!r} at " in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    pytest.param(command, base + "\n[source]\nS = " + load + "\n", id=f"{command}-{load}")
    for command, base in (("coupled", TINY_COUPLED.replace("\n[source]\nS = constant(1.0)\n", "")), ("weak", TINY_WEAK))
    for load in ("constant(nan)", "constant(inf)")
])
def test_nonfinite_load_is_a_config_error(tmp_path, capsys, command, text):
    # the source consistency check compares with >, which is false for NaN:
    # such a load used to validate and end the run in "error: non-finite z"
    out = tmp_path / "o"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: HypothesisViolation('source finiteness' at t=0)" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["constant(5)", "sin_pi", "threshold(1, 2)"])
def test_threshold_on_rate_takes_only_a_threshold_spec(tmp_path, capsys, spec):
    # beta_kind = threshold reads zbar from threshold(zbar); any other spec is an error
    text = TINY_COUPLED.replace("beta_kind = given\nbeta = constant(1.0)", f"beta_kind = threshold\nbeta = {spec}")
    out = tmp_path / "o"
    assert main(["coupled", "--config", write(tmp_path, text), "--out", str(out)]) == 1
    assert "config error: HypothesisViolation('rate model kind'" in capsys.readouterr().err
    assert not out.exists()


def test_nonpositive_off_rate_floor_of_zeta_u_is_a_config_error(tmp_path, capsys):
    # zeta(u) = -3 + |u| stays above its floor zeta_m = -3, but a negative
    # off-rate makes bonds multiply; zeta_m > 0 holds for both rate kinds
    text = TINY_COUPLED.replace("nx = 12", "nx = 8").replace("zeta = one_plus_abs", "zeta = affine_abs(-3.0, 1.0)\nzeta_m = -3.0")
    out = tmp_path / "o"
    assert main(["coupled", "--config", write(tmp_path, text), "--out", str(out)]) == 1
    assert "config error: HypothesisViolation('off-rate lower bound' at zeta_m)" in capsys.readouterr().err
    assert not out.exists()


def test_retired_keys_are_ignored(tmp_path):
    # values that would fail validation if the keys were still read
    retired = TINY_COUPLED.replace("mode = coupled", "mode = coupled\ntruncation_k = -1")
    retired = retired.replace("zeta_M = inf", "zeta_M = inf\nzeta_at_zero = nan")
    retired = retired.replace("S = constant(1.0)", "S = constant(1.0)\ndS_dt = no_such_preset")
    outs = [str(tmp_path / name) for name in ("plain", "retired")]
    for text, out in zip((TINY_COUPLED, retired), outs):
        assert main(["coupled", "--config", write(tmp_path, text), "--out", out, "--cadence", "1"]) == 0
    name = "diagnostics.csv"
    assert filecmp.cmp(os.path.join(outs[0], name), os.path.join(outs[1], name), shallow=False)


@pytest.mark.parametrize("command, text", [
    pytest.param("coupled", TINY_WEAK, id="coupled"),
    pytest.param("detachment", TINY_WEAK, id="detachment"),
    pytest.param("weak", TINY_COUPLED, id="weak"),
    pytest.param("limit", TINY_COUPLED, id="limit"),
    pytest.param("convergence-sweep", TINY_COUPLED, id="convergence-sweep"),
])
def test_rate_kind_that_does_not_fit_the_subcommand(tmp_path, capsys, command, text):
    # the subcommand picks the model; the config's off-rate kind must fit it
    cfg = write(tmp_path, text)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "config error: HypothesisViolation('rate model kind'" in capsys.readouterr().err
    assert not out.exists()


def test_weak_runs_the_load_of_its_config(tmp_path):
    loaded = write(tmp_path, TINY_WEAK + "\n[source]\nS = sin_forcing\n", "loaded.ini")
    unloaded = write(tmp_path, TINY_WEAK, "unloaded.ini")
    weak, weak_source, plain = (str(tmp_path / f"out{i}") for i in range(3))
    for command, cfg, out in (("weak", loaded, weak), ("weak-source", loaded, weak_source), ("weak", unloaded, plain)):
        assert main([command, "--config", cfg, "--out", out, "--cadence", "5"]) == 0
    assert sorted(os.listdir(weak)) == ["diagnostics.csv", "trajectory.csv"]
    for name in os.listdir(weak):
        assert filecmp.cmp(os.path.join(weak, name), os.path.join(weak_source, name), shallow=False)
    traj = "trajectory.csv"
    assert not filecmp.cmp(os.path.join(weak, traj), os.path.join(plain, traj), shallow=False)


def test_sweep_of_a_zero_solution_leaves_its_orders_blank(tmp_path, capsys):
    # z_p = 0 and no load: every run and the limit stay at z = 0, so every
    # error is 0 and has no log; a sweep that is exactly converged is clean
    cfg = write(tmp_path, TINY_WEAK.replace("z_p = sin_pi", "z_p = zero"))
    out = tmp_path / "out"
    assert main(["convergence-sweep", "--config", cfg, "--out", str(out), "--epsilons", "0.1,0.05"]) == 0
    rows = [ln.split(",") for ln in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [(float(err), order) for _, err, order in rows] == [(0.0, ""), (0.0, "")]
    err = capsys.readouterr().err
    assert err == ""


@pytest.mark.parametrize("argv", [["detachment", "--dump-density"], ["weak", "--bogus"], ["weak", "--cadence", "abc"]])
def test_usage_error_exits_1(tmp_path, capsys, argv):
    # a flag the subcommand does not read is refused; argparse's message
    # goes to stderr, and exit 2 stays reserved for invariant violations
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


BUG_SIMULATION = """
[simulation]
epsilon = 0.05
final_time = 0.02
nx = 8
da = 0.01
"""


def test_an_off_rate_of_u_that_overflows_is_a_config_error(tmp_path, capsys):
    # zeta(u) = 1 + 1e308 |u| is inf on most u samples; validation used to
    # pass it (the slope check is false for NaN) and the run ended in
    # "non-finite z/g at t=0" with exit 2
    rate = "\n[rate_model]\nzeta_kind = lipschitz\nzeta = affine_abs(1, 1e308)\nzeta_M = inf\n"
    cfg = write(tmp_path, BUG_SIMULATION + rate + "\n[source]\nS = constant(1.0)\n")
    out = tmp_path / "o"
    assert main(["coupled", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error: HypothesisViolation('off-rate finiteness' at zeta(u))" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command, text, where", [
    ("weak", BUG_SIMULATION + "\n[source]\nS = constant(1e308)\n", "energy/dissipation at t=0"),
    ("coupled", TINY_COUPLED.replace("S = constant(1.0)", "S = constant(1e110)"), "dissipation at t=0"),
], ids=["weak", "coupled"])
def test_a_record_that_is_not_finite_ends_the_run(tmp_path, capsys, command, text, where):
    # the load overflows the energy or the dissipation of the first record
    # while z and g stay finite; such a run used to write NaN and inf rows
    # and exit 0
    out = tmp_path / "o"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out), "--cadence", "1"]) == 2
    err = capsys.readouterr().err
    assert f"error: non-finite {where}" in err.splitlines()[-1]
    assert not (out / "diagnostics.csv").exists()
