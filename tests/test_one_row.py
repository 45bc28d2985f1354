"""An off-rate the same at every x: the rings hold its survival factor on one row.

Each ring built from the one-row factor is checked, bit for bit, against the
same ring built from the full-row field of equal rows it broadcasts to: the
birth ring in its c form and in its full-read form, and the cohort ring that
takes the data birth_ring refuses.  The c form's re-read forms B z a block
of rows at a time, with the bits of a pass over the whole ring.  The row is
one age field fewer, and the block another, which the field budgets of a
weak run and of the CLI sweep show.
"""

import contextlib
import io
import tracemalloc
import warnings
from dataclasses import astuple

import numpy as np
import pytest

from linkages import presets, simulate
from linkages.cli import main, reference_config
from linkages.config import RateModel, validate_config
from linkages.grids import AgeGrid, build_grids
from linkages.kinetics import BirthRing, CohortRing, birth_ring
from linkages.position import PositionHistory

NODES, NA = 4, 5
# an off-rate that depends on age but not on x: its birth ring reads in full
AGE_RAMP = presets.Preset("age_ramp", lambda x, a, t: 1.0 + 0.5 * a / (1.0 + a) + 0.0 * x, True)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def weights(ring):
    """The one-row or full-row array a ring holds: its weights wC, or a cohort ring's survival factor."""
    return ring.wC if isinstance(ring, BirthRing) else ring.surv


def build(kind, surv, rho, buf):
    """The ring of kind over copies of rho and of the history buf, from the survival factor surv."""
    hist = PositionHistory(buf[:, 0].copy(), buf.copy())
    if kind == "cohort":
        return CohortRing(rho.copy(), surv, hist, AgeGrid(da=0.5, a_max=0.5 * NA))
    return birth_ring(rho.copy(), surv, hist, AgeGrid(da=0.5, a_max=0.5 * NA))


@pytest.mark.parametrize("kind", ["c", "full-read", "cohort"])
def test_a_one_row_ring_steps_bit_for_bit_as_its_full_row_field(kind):
    # m and q, the density and the cohort ring at every head over two ring
    # periods, so the sums cross two re-reads at head 0; each level pushes
    # the same births and z onto both rings
    rng = np.random.default_rng(len(kind))
    row = np.full((1, NA), 0.8) if kind == "c" else rng.uniform(0.5, 1.0, (1, NA))
    rho, buf = rng.uniform(0.0, 0.2, (NODES, NA + 1)), rng.random((NODES, NA + 1))
    one, ref = build(kind, row.copy(), rho, buf), build(kind, np.repeat(row, NODES, axis=0), rho, buf)
    assert weights(one).shape == (1, NA) and weights(ref).shape == (NODES, NA)
    if kind != "cohort":
        assert (one.c is None) == (ref.c is None) == (kind == "full-read")
    heads = []
    for _ in range(2 * (NA + 1) + 1):
        heads.append(one.hist.head)
        for got, want in zip(one.sums(), ref.sums()):
            assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(one.density()), bits(ref.density()))
        out = np.empty((NODES, NA + 1)), np.empty((NODES, NA + 1))
        assert np.array_equal(bits(one.cohorts(out[0])), bits(ref.cohorts(out[1])))
        births, z = rng.random(NODES), rng.random(NODES)
        one.push(births, z)
        ref.push(births.copy(), z.copy())
    assert heads == [0, *range(NA, 0, -1)] * 2 + [0]


def c_ring(c, nodes, na, rng):
    """A birth ring in c form on nodes lanes and na+1 ages, from the per-age factor c: a (1, 1) or (nodes, 1) column."""
    buf = rng.random((nodes, na + 1))
    hist = PositionHistory(buf[:, 0].copy(), buf)
    surv = np.repeat(c, na, axis=1)
    ring = birth_ring(rng.uniform(0.0, 0.2 / (na + 1), (nodes, na + 1)), surv, hist, AgeGrid(da=1.0 / na, a_max=1.0))
    assert ring.c is not None and ring.wC.shape == (c.shape[0], na)
    return ring


def full_pass(ring):
    """T of both rings read in one pass over whole fields, B z formed as one field: the bits a block re-read must keep."""
    return np.stack(ring._read(ring.wC[:, :-1], (ring.births, ring.births * ring.hist.buf)))


@pytest.mark.parametrize("lanes", ["one row", "a row per lane"])
def test_a_block_re_read_has_the_bits_of_a_full_pass(lanes):
    # 19 lanes: two blocks of eight and a partial one of three.  The c of
    # a row per lane is an off-rate the same at every age that differs in
    # x, which no preset makes; two ring periods cross three re-reads,
    # the first when the ring is built
    rng = np.random.default_rng(19)
    c = np.full((1, 1), 0.9) if lanes == "one row" else rng.uniform(0.8, 1.0, (19, 1))
    ring, heads = c_ring(c, 19, NA, rng), []
    assert np.array_equal(bits(ring.acc[0]), bits(full_pass(ring)))
    reread = ring._reread

    def checked():
        reread()
        heads.append(ring.hist.head)
        assert np.array_equal(bits(ring.acc[0]), bits(full_pass(ring)))

    ring._reread = checked
    for _ in range(2 * (NA + 1)):
        ring.push(rng.random(19), rng.random(19))
    assert heads == [0, 0]


def test_a_re_read_at_the_reference_size_allocates_less_than_half_a_field():
    # a block of eight rows is 64 kB of the 529 kB field at (66, 1001)
    ring = c_ring(np.full((1, 1), 0.999), 66, 1000, np.random.default_rng(66))
    assert traced_peak(ring._reread) < 0.5 * 8 * 66 * 1001


def weak_run(vcfg, rows, monkeypatch):
    """run_weak(vcfg) with a record every level, and each level's density and cohort ring.

    rows is the number of rows of the survival factor a ring must be
    given: with rows = nx+2 its one row is repeated over the lanes, as a
    reference.
    """
    with monkeypatch.context() as m:
        form = simulate.survival
        m.setattr(simulate, "survival", lambda zeta, agrid: np.repeat(form(zeta, agrid), rows // zeta.shape[0], axis=0))
        levels = []

        def observe(n, st):
            assert weights(st.ring).shape[0] == rows
            levels.append((st.rho.copy(), st.ring.cohorts(np.empty_like(st.rho)).copy()))

        return simulate.run_weak(vcfg, observers=[observe]), levels


@pytest.mark.parametrize("zeta, bound, a_max, ring", [
    (presets.given_zeta_fn("constant(2.0)"), (2.0, 2.0), 0.5, "c"),
    (AGE_RAMP, (1.0, 1.5), 0.5, "full-read"),
    (presets.given_zeta_fn("constant(80)"), (80.0, 80.0), 10.0, "cohort"),
], ids=["constant(2.0)", "age-ramp", "constant(80)"])
def test_a_weak_run_on_one_row_has_the_bits_of_the_full_row_field(zeta, bound, a_max, ring, monkeypatch):
    # on 50 ages the 100 levels cross head 0 twice; constant(80)'s C_j
    # underflows on 1000 ages, so birth_ring refuses it for the cohort ring
    rate = RateModel(zeta=zeta, zeta_m=bound[0], zeta_M=bound[1])
    vcfg = validate_config(reference_config(nx=16, a_max=a_max, final_time=0.05, rate_model=rate))
    sg, _, _ = build_grids(vcfg)
    (one, one_levels), (ref, ref_levels) = (weak_run(vcfg, rows, monkeypatch) for rows in (1, sg.n_nodes))
    kinds = {"c": lambda r: isinstance(r, BirthRing) and r.c is not None,
             "full-read": lambda r: isinstance(r, BirthRing) and r.c is None,
             "cohort": lambda r: isinstance(r, CohortRing)}
    assert kinds[ring](simulate._WeakRun(vcfg, 1).ring)
    assert len(one_levels) == len(ref_levels) == 101
    for got, want in zip(one_levels, ref_levels):
        assert all(np.array_equal(bits(g), bits(w)) for g, w in zip(got, want))
    assert [repr(astuple(r)) for r in one.records] == [repr(astuple(r)) for r in ref.records]
    for f in ("trajectory", "final_z", "final_rho"):
        assert np.array_equal(bits(getattr(one, f)), bits(getattr(ref, f))), f
    assert one.violations == ref.violations


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_field():
    """The bytes of one (nx+2, na+1) age field of the reference configuration."""
    sg, ag, _ = build_grids(validate_config(reference_config()))
    return 8 * sg.n_nodes * ag.n_nodes


def test_a_weak_run_of_a_constant_off_rate_holds_at_most_five_fields():
    # the density (the births), the history, zeta and the final density
    # with the start-up's temporaries; a re-read forms B z a block of rows
    # at a time.  A full-row weights field took the peak to 6.7 fields and
    # a field-sized re-read buffer to 5.7
    vcfg = validate_config(reference_config(final_time=0.05))
    assert traced_peak(lambda: simulate.run_weak(vcfg, diag_stride=0)) <= 5 * reference_field()


def test_a_weak_run_holds_its_trajectory_once():
    # each kept level is written into one (n_steps // stride + 1, nx+2)
    # array: keeping all 1,001 levels costs one reference field over keeping
    # two.  Row copies in a list, stacked at the end, cost 2.2 fields
    vcfg = validate_config(reference_config())
    sparse, dense = (traced_peak(simulate.run_weak, vcfg, stride, 0) for stride in (1000, 1))
    assert dense - sparse <= 1.1 * reference_field()


def test_the_cli_sweep_holds_at_most_seven_fields(tmp_path):
    # two lanes' rings and histories, each lane's run with its own zeta and
    # no full-read buffer (a re-read forms B z a block of rows at a time);
    # each run's full-row weights took the peak to 7.5 fields
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        peak = traced_peak(main, ["convergence-sweep", "--out", str(tmp_path)])
    assert (tmp_path / "sweep.csv").exists()
    assert peak <= 7 * reference_field()
