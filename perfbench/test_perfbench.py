"""Tests of the benchmark itself: tracer, transparency and failure accounting.

    python3 -m pytest perfbench/test_perfbench.py -q

They write only under .perfbench_out/test/ in the checkout.  The
transparency test runs detachment and weak_diag twice each (about half a
minute on two cores).
"""

import lzma
import os
import shutil
import sys
import threading
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import ID, NAME, PARENT, THREAD, Tracer, self_times  # noqa: E402

sys.path.insert(0, run.SRC)

import linkages  # noqa: E402
from linkages import cli  # noqa: E402

SCRATCH = os.path.join(run.OUT, "test")


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def span(sid, parent, start, end, thread=1):
    return (sid, parent, thread, f"x.s{sid}", start, end, False, 0)


def test_self_time_of_nested_spans():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),
        span(3, 2, 1.5, 2.5),
        span(4, 1, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx({1: 7.0, 2: 1.0, 3: 1.0, 4: 1.0})


def test_self_time_counts_overlapping_pooled_children_once():
    # two worker threads overlap on [2, 4]; the last child outlives its parent
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0, thread=2),
        span(3, 1, 2.0, 6.0, thread=3),
        span(4, 1, 8.0, 12.0, thread=2),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 2.0)


def test_pool_workers_are_parented_to_the_submitting_span():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.01), "x.inner")
    pool_class = tracer._pool_class()

    def outer_body():
        with pool_class(max_workers=2) as pool:
            list(pool.map(lambda _: inner(), range(2)))
        inner()

    tracer.wrap(outer_body, "x.outer")()
    outer = next(s for s in tracer.spans if s[NAME] == "x.outer")
    inners = [s for s in tracer.spans if s[NAME] == "x.inner"]
    assert len(inners) == 3 and all(s[PARENT] == outer[ID] for s in inners)
    assert {s[THREAD] for s in inners} - {threading.get_ident()}, "pooled calls ran on workers"
    assert tracer.current() is None


def test_install_rebinds_every_import_site_and_uninstall_restores():
    original = linkages.kinetics.step_density
    with Tracer() as tracer:
        tracer.install(linkages)
        wrapped = linkages.kinetics.step_density
        assert wrapped is not original and wrapped.__wrapped__ is original
        for owner in (linkages, linkages.simulate, linkages.coupled):
            assert owner.step_density is wrapped
        assert linkages.config.RateModel.zeta_of_u.__wrapped__ is not None
    assert linkages.simulate.step_density is original
    assert not hasattr(linkages.config.RateModel.zeta_of_u, "__wrapped__")


@pytest.mark.parametrize("name", ["detachment", "weak_diag"])
def test_traced_and_untraced_runs_write_identical_files(scratch, name):
    plain_dir, traced_dir = os.path.join(scratch, "plain"), os.path.join(scratch, "traced")
    plain = run.run_op(cli, name, plain_dir)
    with Tracer() as tracer:
        tracer.install(linkages)
        traced = run.run_op(cli, name, traced_dir)
    assert plain.error is None and traced.error is None
    assert tracer.spans, "the traced run recorded no spans"
    files = sorted(os.listdir(plain_dir))
    assert files == sorted(os.listdir(traced_dir))
    for fname in files:
        assert gate.sha256(os.path.join(plain_dir, fname)) == gate.sha256(os.path.join(traced_dir, fname))
    assert plain.digests_match and plain.out_drift == 0.0


def test_seed_copy_writes_the_reference_outputs(scratch):
    # run_rel and cpu_rel divide by the seed copy's times; it must still be the seed's code
    op = run.run_op(run.load_seed_cli(), "weak_diag", os.path.join(scratch, "out"))
    assert op.error is None and op.digests_match and op.out_drift == 0.0


def test_exception_in_the_cli_is_a_failed_operation(scratch):
    ini = os.path.join(scratch, "nan.ini")
    with open(ini, "w") as f:
        f.write("[simulation]\nepsilon = nan\nfinal_time = 0.5\nnx = 8\nda = 0.01\n")
    op = run.run_op(cli, "weak_diag", os.path.join(scratch, "out"), extra_argv=("--config", ini))
    assert op.error.startswith("ValueError: cannot convert float NaN to integer")
    assert "Traceback" in op.detail


def test_gate_and_drift_catch_a_changed_energy_row(scratch):
    for fname in gate.reference_digests("weak_diag"):
        with lzma.open(os.path.join(gate.REFERENCE_DIR, "weak_diag", fname + ".xz"), "rb") as src, \
                open(os.path.join(scratch, fname), "wb") as dst:
            shutil.copyfileobj(src, dst)
    assert gate.check_weak_diag(scratch) == []
    assert gate.compare_to_reference("weak_diag", scratch) == (True, 0.0)

    path = os.path.join(scratch, "diagnostics.csv")
    with open(path) as f:
        lines = f.readlines()
    fields = lines[5].split(",")
    fields[1] = repr(float(fields[1]) * 1.01)  # energy rises at this step
    lines[5] = ",".join(fields)
    with open(path, "w") as f:
        f.writelines(lines)
    assert any("energy rises" in p for p in gate.check_weak_diag(scratch))
    match, drift = gate.compare_to_reference("weak_diag", scratch)
    assert not match and drift > 0.0
