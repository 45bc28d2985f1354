"""The external load: a preset that ignores t is sampled once per grid.

presets.source_fns returns the load as a Preset that says whether it
ignores t.  SourceModel samples such a load and its dS/dt once per grid and
hands back the same read-only pair at every t; a plain callable is sampled
at each call.  Both give the same bytes in every driver.  Validation refuses
a load that is not finite at a sample time.
"""

import warnings
from dataclasses import astuple

import numpy as np
import pytest

from conftest import make_config

from linkages import presets
from linkages.cli import coupled_config, detachment_config
from linkages.config import SourceModel, validate_config
from linkages.errors import ConfigError
from linkages.grids import SpaceGrid
from linkages.simulate import run_coupled, run_detachment, run_limit, run_weak


def validate_quiet(cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_config(cfg)


def bits(values):
    return np.ascontiguousarray(np.asarray(values, dtype=float)).view(np.int64)


def plain(src):
    """The same load as a plain callable, which counts as depending on t."""
    return SourceModel(fn=lambda x, t: src.fn(x, t), dfn=src.dfn)


def records(res):
    return [astuple(rec) for rec in res.records]


def weak_outputs(cfg):
    res = run_weak(validate_quiet(cfg), output_stride=1, diag_stride=1)  # a record at every step
    return [res.trajectory, res.final_rho, records(res), [res.mu0_min, res.mu0_max]], res.violations


def coupled_outputs(res):
    st = res.final
    snaps = [np.concatenate(res.snapshots[t]) for t in sorted(res.snapshots)]
    fields = [st.z, st.g, st.mu0, st.rho, st.u, records(res), snaps, [res.u_min, res.gamma2, res.mu0_min, res.mu0_max]]
    return fields, (res.violations, res.soft_flags, res.ever_truncated)


def detachment_outputs(cfg):
    res = run_detachment(validate_quiet(cfg))
    fields, flags = coupled_outputs(res)
    return fields + [res.flank_mask, res.dead_mask], flags


def limit_outputs(cfg):
    vcfg = validate_quiet(cfg)
    return [run_limit(vcfg, 10 * vcfg.dt, 20).trajectory], ()


DRIVERS = {
    "run_weak": (lambda src: weak_outputs(make_config(final_time=0.02, source=src)), 1.0),
    "run_coupled": (lambda src: coupled_outputs(run_coupled(validate_quiet(coupled_config(nx=12, final_time=0.02, source=src)),
                                                            diag_stride=1, snapshot_times=(0.01,))), 1.0),
    "run_detachment": (lambda src: detachment_outputs(detachment_config(nx=24, final_time=4e-4, source=src)), 1e4),
    "run_limit": (lambda src: limit_outputs(make_config(final_time=0.02, source=src)), 1.0),
}


@pytest.mark.parametrize("load", ["constant", "sin_forcing", "linear_in_t"])
@pytest.mark.parametrize("driver", DRIVERS)
def test_a_load_sampled_once_gives_the_bytes_of_one_sampled_at_every_step(driver, load):
    # each load as its preset and as a plain callable: the first samples a
    # load that ignores t once per grid, the second at every t
    run, size = DRIVERS[driver]
    spec = {"constant": f"constant({size})", "sin_forcing": "sin_forcing",
            "linear_in_t": f"linear_in_t({size}, {100 * size})"}[load]
    src = SourceModel(*presets.source_fns(spec))
    assert src.time_invariant == (load != "linear_in_t") and not plain(src).time_invariant
    (got, got_flags), (want, want_flags) = run(src), run(plain(src))
    assert got_flags == want_flags
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(bits(a), bits(b))


def counted(spec):
    """The preset load of spec with its fn and dfn counted: (source, the t of each call of each)."""
    fn, dfn = presets.source_fns(spec)
    calls = {"S": [], "dS/dt": []}

    def count(f, name):
        return lambda x, t: calls[name].append(t) or f(x, t)

    return SourceModel(presets.Preset(spec, count(fn, "S"), fn.time_invariant), count(dfn, "dS/dt")), calls


def run_counted(driver, spec, final_time):
    """The calls a run of driver over final_time makes, after validation, and the t of every stepped level."""
    src, calls = counted(spec)
    make = {"run_weak": make_config, "run_coupled": coupled_config}[driver]
    vcfg = validate_quiet(make(nx=8, final_time=final_time, source=src))
    for ts in calls.values():
        ts.clear()
    levels = []
    {"run_weak": run_weak, "run_coupled": run_coupled}[driver](vcfg, diag_stride=0, observers=[
        lambda n, st: levels.append(st.t) if n else None])
    return calls, levels


@pytest.mark.parametrize("driver", ["run_weak", "run_coupled"])
def test_a_load_that_ignores_t_is_not_called_per_step(driver):
    short, _ = run_counted(driver, "constant(1.0)", 0.02)
    long, _ = run_counted(driver, "constant(1.0)", 0.04)
    assert {k: len(v) for k, v in short.items()} == {k: len(v) for k, v in long.items()}
    assert 1 <= len(short["S"]) <= 2


@pytest.mark.parametrize("driver", ["run_weak", "run_coupled"])
def test_a_load_that_depends_on_t_is_called_at_every_step_at_its_own_t(driver):
    calls, levels = run_counted(driver, "linear_in_t(1.0, 5.0)", 0.02)
    assert len(levels) > 10 and set(levels) <= set(calls["S"])
    if driver == "run_coupled":  # the velocity reads dS/dt; the weak step does not
        assert set(levels) <= set(calls["dS/dt"])


def test_the_shared_sample_is_read_only_and_belongs_to_its_grid():
    src = SourceModel(*presets.source_fns("sin_forcing"))
    x, other = SpaceGrid(nx=7).x, SpaceGrid(nx=7).x
    S, dS = src(x, 0.0), src.ddt(x, 0.0)
    assert src(x, 0.3) is S and src.ddt(x, 1.7) is dS
    for a in (S, dS):
        with pytest.raises(ValueError):
            a[1] = 1.0
    assert src(other, 0.0) is not S and np.array_equal(src(other, 0.0), S)  # another grid samples afresh
    fresh = plain(src)
    assert fresh(x, 0.0) is not fresh(x, 0.0) and fresh(x, 0.0).flags.writeable


@pytest.mark.parametrize("src, t", [
    (SourceModel(*presets.source_fns("constant(nan)")), "0"),
    (SourceModel(*presets.source_fns("constant(inf)")), "0"),
    (SourceModel(fn=lambda x, t: np.full_like(x, np.nan if t >= 0.3 else 1.0), dfn=lambda x, t: np.zeros_like(x)), "0.3"),
    (SourceModel(fn=lambda x, t: np.ones_like(x), dfn=lambda x, t: np.full_like(x, np.inf if t >= 0.2 else 0.0)), "0.2"),
], ids=["nan", "inf", "nan-from-0.3", "dS/dt-inf-from-0.2"])
def test_a_load_that_is_not_finite_at_a_sample_time_is_a_config_error(src, t):
    # the consistency check compares with >, which is false for NaN
    with pytest.raises(ConfigError) as err:
        validate_config(make_config(final_time=0.4, source=src))
    assert [(v.name, v.location) for v in err.value.violations] == [("source finiteness", f"t={t}")]

