"""Golden output digests: every CLI subcommand on a small config.

Each case runs one subcommand into a fresh directory and compares its exit
code and the SHA-256 of every written file with recorded values.  A change
that keeps the arithmetic keeps these digests; a change that reorders
floating-point operations must re-record them and state the drift.  Run
this file as a script (PYTHONPATH=src python tests/test_golden_outputs.py)
to print the GOLDEN table of the current code.

The digests pin exact bits, so they hold for one numpy/BLAS build; they
were recorded with numpy 2.4, scipy 1.17 and OpenBLAS 0.3.31 on x86-64.
"""

import contextlib
import hashlib
import io
import pathlib
import tempfile
import warnings

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
    # one interior node: the tridiagonal solve has no off-diagonals
    "weak-nx1": (WEAK.replace("nx = 12", "nx = 1"), ["weak", "--cadence", "1"]),
    "weak-source": (WEAK_SOURCE, ["weak-source", "--cadence", "1"]),
    # C_j = exp(-0.8 j) underflows, so birth_ring refuses the data: the cohort ring
    "weak-fallback": (
        WEAK.replace("zeta = one_plus_age_ramp(0.5)\nzeta_M = 1.5", "zeta = constant(80)\nzeta_m = 80\nzeta_M = 80"),
        ["weak", "--cadence", "1", "--dump-density"],
    ),
    "limit": (WEAK, ["limit", "--cadence", "1"]),
    "coupled": (COUPLED, ["coupled", "--cadence", "1", "--dump-density"]),
    "convergence-sweep": (WEAK, ["convergence-sweep", "--epsilons", "0.2,0.1", "--cadence", "1"]),
    "detachment": (DETACHMENT, ["detachment"]),
}

# name -> (exit code, {file name: sha256})
GOLDEN = {
    "convergence-sweep": (0, {
        "sweep.csv": "b90a5cee314cc7c39745d7de260027e0354e86ee5a0d30341aa448e12663c649",
    }),
    "coupled": (0, {
        "density.csv": "07c77e3b2d1c5eca0e4a767840fa0442e79be3fde77d3dc8372e858865c4955e",
        "diagnostics.csv": "2bbe8d3a7fd789ecb357c1d3c7866942561b5465d9e7c321468958dc54ff8ffa",
    }),
    "detachment": (0, {
        "detachment_mu0.dat": "88d2565d1b64818404f0e711b5b9eb38302bdf233336c121d3c5088c61e7d005",
        "detachment_z.dat": "168b677544866797d245318c6590dcac7ecd02bdfb56a37a920f41aeeb0d5df8",
    }),
    "limit": (0, {
        "trajectory.csv": "13fc295c3738c74ba69ba0f6427e5dd1f354eeeeb01ea54f54fd8c56efc9908f",
    }),
    "weak": (0, {
        "density.csv": "166cf6cedaaccbcf81bb191754ae65b01eafb9aa27b56a28fbfc2e5dceea53ca",
        "diagnostics.csv": "39966ab9e827672654cdce9e7948b82c7a3b156a7c5bf81b0c1dcd52507482ca",
        "trajectory.csv": "3ed3a978c0f792582558b255f50779b22fc74acc780606be877fde04219ac09b",
    }),
    "weak-fallback": (0, {
        "density.csv": "0dde8aad2602e4675030bf94298e85318459b741b907604975e00e4118fd1143",
        "diagnostics.csv": "25cfad5f80a54bd1db94697bee6f51426046ba512c856e33018b5b2b144bfed6",
        "trajectory.csv": "564ebc523742617d88dbc2f81737f1ffac339099ec5def97262c86859e5c1aa1",
    }),
    "weak-nx1": (0, {
        "diagnostics.csv": "323ac96b61ea7df70c1ba9d1d4de3111e3a9f974e9a3eb3b054b52fcd1b4ce78",
        "trajectory.csv": "947ef44bfb708f0ab97496eab411cb5fd53664debfc4f9e1b67fdab2fa69f984",
    }),
    "weak-source": (0, {
        "diagnostics.csv": "a0fc029310dbc129dc41912ea7246f38a34de9cea930d639c731a8f6228f4d7f",
        "trajectory.csv": "5281cb7d1a860080b8ffacd63cc8b3dc7bfb5e56e7a1df29f4eabf3f5d367c17",
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


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            code, digests = run_case(name, pathlib.Path(tmp))
        print(f'    "{name}": ({code}, {{')
        for file, digest in digests.items():
            print(f'        "{file}": "{digest}",')
        print("    }),")
    print("}")
