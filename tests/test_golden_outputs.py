"""Golden output digests: every CLI subcommand on a small config.

Each case runs one subcommand into a fresh directory and compares its exit
code and the SHA-256 of every written file with recorded values.  A change
that keeps the arithmetic keeps these digests; a change that reorders
floating-point operations must re-record them and state the drift.

The digests pin exact bits, so they hold for one numpy/BLAS build; they
were recorded with numpy 2.4, scipy 1.17 and OpenBLAS 0.3.31 on x86-64.
"""

import hashlib

import pytest

from linkages.cli import main

WEAK = """
[simulation]
epsilon = 0.05
final_time = 0.02
nx = 12
da = 0.01
mode = weak

[rate_model]
zeta = one_plus_age_ramp(0.5)
zeta_M = 1.5
beta = linear_in_t(1.0, 1.0)
beta_M = 1.1

[past_data]
z_p = sin_pi

[initial_density]
rho_I = exp_decay(0.8)
"""

WEAK_SOURCE = """
[simulation]
epsilon = 0.05
final_time = 0.02
nx = 12
da = 0.01
mode = weak_with_source

[past_data]
z_p = sin_pi

[initial_density]
rho_I = exp_decay

[source]
S = sin_forcing
"""

COUPLED = """
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

[past_data]
z_p = zero

[initial_density]
rho_I = exp_decay(0.9)

[source]
S = linear_in_t(1.0, 5.0)
"""

DETACHMENT = """
[simulation]
epsilon = 0.001
final_time = 0.0006
nx = 24
da = 0.01
mode = coupled

[rate_model]
zeta_kind = lipschitz
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

CASES = {
    "weak": (WEAK, ["weak", "--cadence", "1", "--dump-density"]),
    "weak-source": (WEAK_SOURCE, ["weak-source", "--cadence", "1"]),
    "limit": (WEAK, ["limit", "--cadence", "1"]),
    "coupled": (COUPLED, ["coupled", "--cadence", "1", "--dump-density"]),
    "convergence-sweep": (WEAK, ["convergence-sweep", "--epsilons", "0.2,0.1", "--cadence", "1"]),
    "detachment": (DETACHMENT, ["detachment"]),
}

# name -> (exit code, {file name: sha256})
GOLDEN = {
    "convergence-sweep": (0, {
        "sweep.csv": "cb19a39006db7d4d01161a302374a8e1a294f169b46fbd6ff01487e4e22a2693",
    }),
    "coupled": (0, {
        "density.csv": "44ec73d9cc0fa2ee4bb4a45fb7b6017f3c7a67a8816d456c2b02ded92e508e83",
        "diagnostics.csv": "3206b5a25abd5459cdb0dc9bf3cf22f1db9820bc2053fad6a3d6f8c5d9ba8680",
    }),
    "detachment": (0, {
        "detachment_mu0.dat": "ff9fc9bd3e37518273085092524ee4194328f8ae3d4090c3c024807d481f83ed",
        "detachment_z.dat": "3974b719e230345005c9759bc1cd25cde37b066ce961d75639a4ee234923b629",
    }),
    "limit": (0, {
        "trajectory.csv": "13fc295c3738c74ba69ba0f6427e5dd1f354eeeeb01ea54f54fd8c56efc9908f",
    }),
    "weak": (0, {
        "density.csv": "7459474881a53831525c7fbb373d6397f307aff74b6a5317ff5f66c9110d6fed",
        "diagnostics.csv": "200b4aa9855ea15759a8ccbe51f571bc75cb2719ccd242660523ba04ab20a62b",
        "trajectory.csv": "0d768e5e313a94f5bafc33b68d958ca731581692af1a8b2923a42a553b886524",
    }),
    "weak-source": (0, {
        "diagnostics.csv": "ba7ecc69d2b2eea1d312246fca82113fd7c4262e13a0d78c305dfa34455c7a53",
        "trajectory.csv": "8c297ae34120840daa578e3cb7bee07115471c2e57f153e3d83284399f3601ea",
    }),
}


def run_case(name, tmp_path):
    """Run one case; return its exit code and the digest of each output file."""
    text, argv = CASES[name]
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    code = main([*argv, "--config", str(cfg), "--out", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return code, digests


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(tmp_path, name):
    assert run_case(name, tmp_path) == GOLDEN[name]
