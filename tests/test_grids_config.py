"""Grid construction, hypothesis validation and config-file parsing."""

from dataclasses import dataclass

import numpy as np
import pytest

from conftest import make_config

from linkages import config
from linkages.config import RateModel, SimulationConfig, load_config, validate_config
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
        validate_config(make_config(source=src))
    assert any(v.name == "source consistency" for v in err.value.violations)


def test_validate_rejects_a_slope_for_a_load_that_ignores_t():
    # the calm coupled step does not read such a load's dS/dt, so even one
    # far below the centered difference's tolerance is refused
    from linkages.config import SourceModel

    fn = presets.source_fns("constant(1.0)")[0]
    src = SourceModel(fn=fn, dfn=lambda x, t: np.full_like(np.asarray(x, dtype=float), 1e-12))
    with pytest.raises(ConfigError) as err:
        validate_config(make_config(source=src))
    assert [v.name for v in err.value.violations] == ["source consistency"]


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
    assert vcfg.nx == 15
    x = np.array([0.5])
    assert vcfg.past_data(x, -1.0)[0] == pytest.approx(np.sin(np.pi * 0.5) / np.pi)
    assert vcfg.initial_density(x, np.array([0.0]))[0] == pytest.approx(0.5)
    assert vcfg.source(x, 0.0)[0] == pytest.approx(np.pi**2)


SIMULATION_ONLY = """
[simulation]
epsilon = 0.05
final_time = 0.1
nx = 15
da = 0.01
"""


def test_simulation_only_config_takes_the_dataclass_defaults(tmp_path, monkeypatch):
    path = tmp_path / "run.ini"
    path.write_text(SIMULATION_ONLY)
    cfg, ref = load_config(path), RateModel()
    for name in ("zeta_kind", "beta_kind", "zeta_m", "zeta_M", "zeta_lip", "beta_m", "beta_M", "zbar"):
        assert getattr(cfg.rate_model, name) == getattr(ref, name), name
    assert (cfg.rate_model.zeta.spec, cfg.rate_model.beta.spec) == (ref.zeta.spec, ref.beta.spec)
    assert cfg.a_max == SimulationConfig.a_max

    # the defaults are declared once: changed in the dataclasses, they are
    # what the loader gives
    @dataclass
    class OtherRate(RateModel):
        zeta_m: float = 0.5
        zeta_M: float = 2.0
        zeta_lip: float = 3.0
        beta_m: float = 0.25
        beta_M: float = 4.0

    @dataclass(frozen=True)
    class OtherConfig(SimulationConfig):
        a_max: float = 5.0

    monkeypatch.setattr(config, "RateModel", OtherRate)
    monkeypatch.setattr(config, "SimulationConfig", OtherConfig)
    cfg, ref = load_config(path), OtherRate()
    for name in ("zeta_m", "zeta_M", "zeta_lip", "beta_m", "beta_M"):
        assert getattr(cfg.rate_model, name) == getattr(ref, name), name
    assert cfg.a_max == 5.0


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_preset_parse_errors():
    with pytest.raises(ValueError):
        presets.parse_spec("not a preset (")
    with pytest.raises(ValueError):
        presets.past_data_fn("unknown_thing")


@pytest.mark.parametrize("make, spec", [
    *[(presets.given_zeta_fn, s) for s in ("constant(2.0)", "one_plus_age_ramp(0.5)")],
    *[(presets.given_beta_fn, s) for s in (
        "zero", "constant(0.5)", "sin_pi", "sin_pi_growing(1.0)", "sin_forcing", "linear_in_t(1.0, 1.0)")],
])
def test_given_rate_preset_declares_its_time_dependence(make, spec):
    rate = make(spec)
    x, a = np.linspace(0.0, 1.0, 9)[:, None], np.linspace(0.0, 2.0, 5)[None, :]
    args = (x, a) if make is presets.given_zeta_fn else (x[:, 0],)
    same = np.array_equal(rate(*args, 0.0), rate(*args, 0.37))
    assert rate.spec == spec and rate.time_invariant == same
    assert presets.is_time_invariant(rate) == same and not presets.is_time_invariant(lambda x, t: rate(x, t))


@pytest.mark.parametrize("plain, calls", [(False, 1), (True, 5)], ids=["preset", "plain-callable"])
def test_validation_samples_a_given_off_rate_that_ignores_t_once(plain, calls):
    # a Preset that declares it ignores t is one field at every sample time,
    # as _WeakRun takes it; a plain callable is sampled at all five
    fn, times = presets.given_zeta_fn("one_plus_age_ramp"), []

    def count(x, a, t):
        times.append(t)
        return fn(x, a, t)

    zeta = count if plain else presets.Preset("one_plus_age_ramp", count, True)
    validate_config(make_config(rate_model=RateModel(zeta=zeta, zeta_M=1.5)))
    assert len(times) == calls and times[0] == 0.0
