"""Grid construction, hypothesis validation and config-file parsing."""

import numpy as np
import pytest

from conftest import make_config

from linkages.config import RateModel, load_config, validate_config
from linkages.errors import ConfigError, RateKindMismatch
from linkages.grids import AgeGrid, SpaceGrid, build_grids
from linkages import presets


def test_space_grid_nodes():
    g = SpaceGrid(nx=3)
    assert g.dx == 0.25
    np.testing.assert_allclose(g.x, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_age_grid_weights():
    g = AgeGrid(da=0.01, a_max=10.0)
    assert g.na == 1000
    assert g.w[0] == 0.005 and g.w[-1] == 0.005
    # trapezoid weights reproduce the measure of the age interval exactly
    assert abs(g.w.sum() - 10.0) < 1e-12


def test_age_grid_rejects_nonmultiple():
    with pytest.raises(ValueError):
        AgeGrid(da=0.03, a_max=10.0)


def test_build_grids_step_count():
    vcfg = validate_config(make_config(epsilon=0.1, da=0.01, final_time=1.0))
    sg, ag, ts = build_grids(vcfg)
    assert ts.n_steps == 1000
    assert abs(ts.dt - 1e-3) < 1e-15
    # history alignment: dt * na = eps * a_max
    assert abs(ts.dt * ag.na - vcfg.epsilon * vcfg.a_max) < 1e-12


def test_validate_accepts_reference():
    vcfg = validate_config(make_config())
    assert vcfg.mode == "weak"
    assert vcfg.dt == pytest.approx(5e-4)


def test_validate_accepts_tiny_dt():
    vcfg = validate_config(make_config(epsilon=1e-3, da=1e-2, final_time=1e-3))
    assert vcfg.dt == pytest.approx(1e-5)


def test_validate_rejects_heavy_initial_population():
    cfg = make_config(initial_density=presets.initial_density_fn("exp_decay(2.0)"))
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert any(v.name == "total initial population" for v in err.value.violations)


def test_validate_rejects_negative_density():
    import warnings

    cfg = make_config(initial_density=lambda x, a: 0.0 * x - 1.0 + 0.0 * a)
    with pytest.raises(ConfigError) as err, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the negative field also has mass <= 0
        validate_config(cfg)
    assert any(v.name == "initial density positivity" for v in err.value.violations)


def test_validate_rejects_bad_final_time():
    with pytest.raises(ConfigError) as err:
        validate_config(make_config(final_time=0.10007))
    assert any(v.name == "final time divisibility" for v in err.value.violations)


def test_validate_rejects_off_rate_out_of_bounds():
    rate = RateModel(zeta=presets.given_zeta_fn("constant(3.0)"), zeta_m=1.0, zeta_M=2.0)
    with pytest.raises(ConfigError) as err:
        validate_config(make_config(rate_model=rate))
    assert any(v.name == "off-rate bounds" for v in err.value.violations)


def test_validate_rejects_nonvanishing_past_data():
    cfg = make_config(past_data=__import__("linkages.config", fromlist=["PastData"]).PastData(
        fn=lambda x, t: np.ones_like(np.asarray(x, dtype=float))
    ))
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert any(v.name == "past data boundary" for v in err.value.violations)


def test_validate_warns_on_zero_beta_floor_in_coupled(recwarn):
    import warnings

    from linkages.config import PastData, SourceModel

    fn, dfn = presets.source_fns("constant(1.0)")
    cfg = make_config(
        mode="coupled",
        rate_model=RateModel(zeta_kind="lipschitz", zeta_M=np.inf, beta_m=0.0),
        past_data=PastData(fn=presets.past_data_fn("zero")),
        source=SourceModel(fn=fn, dfn=dfn),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate_config(cfg)
    assert any("beta_m = 0" in str(w.message) for w in caught)


def test_validate_rejects_inconsistent_source():
    from linkages.config import SourceModel

    src = SourceModel(
        fn=lambda x, t: np.full_like(np.asarray(x, dtype=float), 1.0 + 3.0 * t),
        dfn=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),  # wrong slope
    )
    with pytest.raises(ConfigError) as err:
        validate_config(make_config(mode="weak_with_source", source=src))
    assert any(v.name == "source consistency" for v in err.value.violations)


def test_rate_kind_mismatch_raises():
    # a typed error, not an assert, so the guard survives python -O
    x, a = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4)
    with pytest.raises(RateKindMismatch):
        RateModel(zeta_kind="lipschitz").zeta_field(x, a, 0.0)
    with pytest.raises(RateKindMismatch):
        RateModel().zeta_of_u(np.zeros(3))


def test_threshold_beta_switch():
    rate = RateModel(beta_kind="threshold", zbar=100.0)
    z = np.array([0.0, 50.0, 100.0, 150.0, -1.0])
    np.testing.assert_allclose(rate.beta_values(None, 0.0, z=z), [0, 1, 0, 0, 0])


CONFIG_TEXT = """
[simulation]
epsilon = 0.05
final_time = 0.1
nx = 15
da = 0.01
a_max = 10
mode = weak_with_source

[rate_model]
zeta_kind = given
zeta = constant(1.0)
zeta_m = 1.0
zeta_M = 1.0
beta_kind = given
beta = constant(1.0)
beta_m = 1.0
beta_M = 1.0

[past_data]
z_p = sin_pi

[initial_density]
rho_I = exp_decay(0.5)

[source]
S = sin_forcing
"""


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(path)
    vcfg = validate_config(cfg)
    assert vcfg.mode == "weak_with_source"
    assert vcfg.nx == 15
    x = np.array([0.5])
    assert vcfg.past_data(x, -1.0)[0] == pytest.approx(np.sin(np.pi * 0.5) / np.pi)
    assert vcfg.initial_density(x, np.array([0.0]))[0] == pytest.approx(0.5)
    assert vcfg.source(x, 0.0)[0] == pytest.approx(np.pi**2)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_preset_parse_errors():
    with pytest.raises(ValueError):
        presets.parse_spec("not a preset (")
    with pytest.raises(ValueError):
        presets.past_data_fn("unknown_thing")
