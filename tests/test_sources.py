"""The external load: a preset that ignores t is sampled once per run.

presets.source_fns returns the load as a Preset that says whether it
ignores t.  config.Inputs samples such a load and its dS/dt, and an on-rate
that ignores t, once and hands back the same read-only arrays at every t; a
plain callable is sampled at each level.  Both give the same bytes in every
driver.  Validation refuses a load that is not finite at a sample time.
"""

import warnings
from dataclasses import astuple

import numpy as np
import pytest

from conftest import make_config

from linkages import presets
from linkages.cli import coupled_config, detachment_config, source_config
from linkages.config import Inputs, RateModel, SourceModel, validate_config
from linkages.elliptic import Operator
from linkages.errors import ConfigError
from linkages.grids import AgeGrid, SpaceGrid, build_grids
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


def reads(inputs, t):
    """Every array inputs gives at t: beta, 1 + beta*w0, eps*S, S and dS/dt."""
    return [*inputs.at(t), inputs.load(t), inputs.ddt(t)]


def plain_rate(fn):
    """The same on-rate as a plain callable, which counts as depending on t."""
    return lambda x, t: fn(x, t)


def test_the_shared_sample_is_read_only_and_belongs_to_its_grid():
    sg, ag, eps = SpaceGrid(nx=7), AgeGrid(da=0.1, a_max=1.0), 0.05
    rate, load = RateModel(beta=presets.given_beta_fn("sin_pi")), SourceModel(*presets.source_fns("sin_forcing"))
    inputs = Inputs(rate, load, eps, sg, ag)
    fixed = reads(inputs, 0.0)
    beta, S = rate.beta_values(sg.x, 0.0), load(sg.x, 0.0)
    for got, want in zip(fixed, (beta, 1.0 + beta * ag.w[0], eps * S, S, np.zeros(sg.n_nodes))):
        assert np.array_equal(bits(got), bits(want))
    for t in (0.3, 1.7):  # the same objects at every t
        assert all(a is b for a, b in zip(reads(inputs, t), fixed))
    for a in fixed:
        with pytest.raises(ValueError):
            a[1] = 1.0
    # another load (the same spec), eps or grid forms its own arrays
    others = [Inputs(rate, SourceModel(*presets.source_fns("sin_forcing")), eps, sg, ag),
              Inputs(rate, load, 2 * eps, sg, ag), Inputs(rate, load, eps, SpaceGrid(nx=7), ag)]
    for other in others:
        assert not any(np.shares_memory(a, b) for a in reads(other, 0.0) for b in fixed)
    assert np.array_equal(others[1].at(0.0)[2], 2 * eps * S)
    # data that depend on t are formed at each read, at each row's own t for a column of scales
    varying = Inputs(RateModel(beta=plain_rate(rate.beta)), plain(load), np.array([[eps], [2 * eps]]), sg, ag)
    once, again = reads(varying, [0.1, 0.2]), reads(varying, [0.1, 0.2])
    assert all(a is not b and a.flags.writeable for a, b in zip(once[:3], again[:3]))
    for row, (t, e) in enumerate(((0.1, eps), (0.2, 2 * eps))):
        assert np.array_equal(once[0][row], rate.beta_values(sg.x, t)) and np.array_equal(once[2][row], e * S)


def test_a_weak_run_hands_every_position_solve_one_read_only_load_term(monkeypatch):
    # weak-source's load ignores t: eps*S is formed once, and every step's
    # position solve reads that one read-only array; the run's operator
    # solves the start-up position first, on an eps*S of its own
    terms, solve = [], Operator.solve
    monkeypatch.setattr(Operator, "solve", lambda op, c, b, f=None, **kw: terms.append(f) or solve(op, c, b, f, **kw))
    vcfg = validate_quiet(source_config(final_time=0.02))
    sg, _, ts = build_grids(vcfg)
    run_weak(vcfg, diag_stride=0)
    start, steps = terms[0], terms[1:]
    assert len(steps) == ts.n_steps and all(term is steps[0] for term in steps)
    assert not steps[0].flags.writeable
    for term in (start, steps[0]):
        assert np.array_equal(bits(term), bits(vcfg.epsilon * vcfg.source(sg.x, 0.0)))


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

