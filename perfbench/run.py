"""End-to-end and per-layer benchmark of the three CLI experiments.

    python3 perfbench/run.py --workload detachment --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all

A single caller runs a closed loop in this process: each operation is one
call of the user's entry point, ``linkages.cli.main(argv)``, with ``--out`` in
a scratch directory under ``.perfbench_out/``; the next one starts when the
previous one has finished, until the next would end after ``--seconds``.
Every operation's output files pass the workload's correctness gate (see
gate.py) or count as failed, and are compared with the outputs recorded at
the seed commit.

With ``--trace 0`` the end-to-end metrics are taken with tracing off: set-up
time in fresh processes, and the median wall time, CPU time and peak memory
of the operations.  The process's first operation also grows the heap (on
weak_diag, seconds of page faults every CLI invocation pays), so it runs
before the clock starts: it is gated and counted, and its wall time is
recorded as ``first_op_s`` but is not a sample.  Each later operation is
paired with one of the same workload run by ``seed/linkages``, a copy of the
package as it was at the seed commit, in alternating order.  ``run_rel`` and
``cpu_rel`` are the median over the pairs of this code's wall and CPU time
divided by the copy's: the host's speed changes by up to a factor of two
within minutes, and a pair run back to back sees the same speed, so these
ratios hold still where ``run_s`` and ``cpu_s`` do not.  With ``--trace 1`` traced and
untraced operations alternate after it; the traced ones wrap every layer
module (tracer.py) and give the per-layer metrics, and their wall time
against the untraced ones gives the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics listed in BENCHMARK.json; the full
record (environment, every operation, every traced function) is written to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.  No input depends on the
seed yet: every workload is a deterministic CLI default, and the seed is
recorded.
"""

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
# src/linkages as it was at the seed commit, the speed reference of run_rel and cpu_rel
SEED_PKG = os.path.join(HERE, "seed", "linkages")
sys.path.insert(0, HERE)

import gate  # noqa: E402
from tracer import BYTES, END, FAILED, ID, NAME, PARENT, START, Tracer, self_times  # noqa: E402

# the CLI default --epsilons of convergence-sweep; used only to count steps
SWEEP_EPSILONS = (0.2, 0.1, 0.05, 0.025)
LAYERS = ("cli", "simulate", "config", "grids", "kinetics", "position", "coupled",
          "elliptic", "limit", "diagnostics")
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    argv: tuple
    config: str  # name of the cli function that makes the run's configuration
    epsilons: tuple = ()  # one weak run per scale (the sweep); () for a single run


# Each workload is a CLI subcommand on its defaults; why each is here is in
# BENCHMARK.json.  weak_diag (diagnostics every step, 3.9 MB of CSV) is the
# workload where diagnostics, limit_density and the CSV writers carry much of
# the work; it is not in BENCHMARK.json, because three workloads leave too
# little time per run for steady pairs with the seed copy (BASELINE.md).
WORKLOADS = {
    "detachment": Workload(("detachment",), "detachment_config"),
    "weak_diag": Workload(("weak", "--cadence", "1"), "reference_config"),
    "sweep": Workload(("convergence-sweep",), "reference_config", SWEEP_EPSILONS),
}

SETUP_CODE = """\
import time, warnings
t0 = time.perf_counter()
import linkages
from linkages import cli
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    linkages.validate_config(cli.{factory}())
print(time.perf_counter() - t0)
"""


@dataclass
class Op:
    traced: bool
    wall_s: float
    cpu_s: float  # user + system time of the whole process, all threads
    sys_s: float  # the system-time part of cpu_s
    error: Optional[str] = None
    detail: Optional[str] = None
    digests_match: Optional[bool] = None
    out_drift: Optional[float] = None


def run_op(cli, name, out_dir, extra_argv=()):
    """One call of cli.main on workload name; never raises for a failed run."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [*WORKLOADS[name].argv, *extra_argv, "--out", out_dir]
    captured = io.StringIO()
    error = detail = None
    r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}"
    except SystemExit as exc:  # argparse rejects its arguments this way
        error = f"exit code {exc.code}"
    except Exception as exc:  # a failed operation, recorded and counted
        error = f"{type(exc).__name__}: {exc}"
        detail = traceback.format_exc()
    wall, r1 = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
    sys_s = r1.ru_stime - r0.ru_stime
    op = Op(traced=False, wall_s=wall, cpu_s=r1.ru_utime - r0.ru_utime + sys_s, sys_s=sys_s,
            error=error, detail=detail or (captured.getvalue()[-2000:] if error else None))
    if error is None:
        try:
            problems = gate.GATES[name](out_dir)
            op.digests_match, op.out_drift = gate.compare_to_reference(name, out_dir)
        except (OSError, ValueError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            op.error = "gate: " + "; ".join(problems)
    return op


def load_seed_cli():
    """The cli module of the seed copy, imported as package linkages_seed."""
    spec = importlib.util.spec_from_file_location(
        "linkages_seed", os.path.join(SEED_PKG, "__init__.py"), submodule_search_locations=[SEED_PKG])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module("linkages_seed.cli")


def n_steps(linkages, cli, name):
    """Time steps one operation of the workload marches (summed over a sweep)."""
    from linkages.grids import build_grids

    wl = WORKLOADS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vcfg = linkages.validate_config(getattr(cli, wl.config)())
        if wl.epsilons:
            return sum(build_grids(linkages.with_overrides(vcfg, epsilon=e))[2].n_steps
                       for e in wl.epsilons)
        return build_grids(vcfg)[2].n_steps


def measure_setup(name):
    """Import linkages, build and validate the workload's config: fresh processes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = SETUP_CODE.format(factory=WORKLOADS[name].config)
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def function_table(spans, steps):
    """Per traced name: self time, calls, calls per step, computed bytes, failures."""
    selfs = self_times(spans)
    table = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "bytes": 0, "failed": 0})
    for s in spans:
        row = table[s[NAME]]
        row["self_s"] += selfs[s[ID]]
        row["calls"] += 1
        row["bytes"] += s[BYTES]
        row["failed"] += s[FAILED]
    for row in table.values():
        row["calls_per_step"] = row["calls"] / steps
    return dict(table)


def layer_metrics(spans, table, wall, rows):
    """The per-layer metrics of one traced operation, name -> (value, unit)."""
    m = {}

    def total(names, key):
        return sum(table[n][key] for n in names)

    for layer in LAYERS:
        names = [n for n in table if n.split(".", 1)[0] == layer]
        m[f"{layer}.self_s"] = (total(names, "self_s"), "s")
        m[f"{layer}.calls"] = (total(names, "calls"), "count")
    units = {"self_s": "s", "calls": "count", "calls_per_step": "1/step", "bytes": "B",
             "failed": "count"}
    for fn, keys in (
        ("kinetics.step_density", ("self_s", "calls", "bytes")),
        ("kinetics.limit_density", ("self_s", "calls_per_step")),
        ("config.zeta_of_u", ("self_s", "calls_per_step")),
        ("config.zeta_field", ("self_s", "calls_per_step")),
        ("position.matrix", ("self_s", "calls_per_step", "bytes")),
        ("position.step_position", ("self_s",)),
        ("coupled.step_elongation", ("self_s", "bytes")),
        ("coupled.solve_velocity", ("self_s",)),
        ("elliptic.solve", ("self_s", "calls_per_step", "failed")),
        ("elliptic.assemble", ("self_s",)),
        ("diagnostics.energy", ("self_s",)),
        ("diagnostics.elongation_from_history", ("self_s",)),
    ):
        row = table.get(fn, {"self_s": 0.0, "calls": 0, "calls_per_step": 0.0, "bytes": 0, "failed": 0})
        for key in keys:
            m[f"{fn}.{key}"] = (row[key], units[key])
    writers = [n for n in table if n.startswith("simulate.write_")]
    m["simulate.writers.self_s"] = (total(writers, "self_s"), "s")
    m["simulate.writers.rows"] = (rows, "count")
    m["simulate.writers.bytes"] = (total(writers, "bytes"), "B")
    runners = [n for n in table if n.startswith("simulate.run_")]
    m["simulate.driver.self_s"] = (total(runners, "self_s"), "s")

    # per-epsilon runs that run_convergence_sweep handed to its thread pool
    by_id = {s[ID]: s for s in spans}
    pooled = [s for s in spans if s[NAME] == "simulate.run_weak" and s[PARENT] in by_id
              and by_id[s[PARENT]][NAME] == "simulate.run_convergence_sweep"]
    serial = sum(s[END] - s[START] for s in pooled)
    pool_wall = max((s[END] for s in pooled), default=0.0) - min((s[START] for s in pooled), default=0.0)
    m["simulate.sweep.serial_s"] = (serial, "s")
    m["simulate.sweep.pool_overlap"] = (serial / pool_wall if pool_wall > 0 else 0.0, "ratio")
    m["trace.coverage"] = (sum(m[f"{layer}.self_s"][0] for layer in LAYERS) / wall, "ratio")
    return m


def output_rows(out_dir):
    """Data rows (lines after the header) in the files a run wrote."""
    rows = 0
    for entry in os.scandir(out_dir):
        with open(entry.path) as f:
            rows += sum(1 for _ in f) - 1
    return rows


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas():
    """Version and thread count of every OpenBLAS library loaded in this process."""
    found = []
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                entry["config"], entry["threads"] = config().decode(), threads()
                break
        found.append(entry)
    return found


def _git_commit():
    """HEAD of the checkout, read from .git without leaving it; None if not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "linkages")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            h.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace):
    import linkages
    from linkages import cli

    env = environment(seed)
    env["loadavg_start"] = os.getloadavg()
    steps = n_steps(linkages, cli, name)
    setup = [] if trace else measure_setup(name)
    out_dir = os.path.join(OUT, "work", name)
    ops = [run_op(cli, name, out_dir)]
    # read before the seed copy runs, so that only this code's operations count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seed_cli = None if trace else load_seed_cli()
    seed_dir = os.path.join(OUT, "work", name + "-seedcopy")
    seed_ops = []  # seed_ops[i] is paired with ops[i + 1]
    traced_metrics, tables, all_spans = [], [], []
    t_start = time.perf_counter()
    while True:
        t_op = time.perf_counter()
        if trace and len(ops) % 2 == 1:
            with Tracer() as tracer:
                tracer.install(linkages)
                op = run_op(cli, name, out_dir)
            op.traced = True
            if op.error is None:
                table = function_table(tracer.spans, steps)
                tables.append(table)
                traced_metrics.append(layer_metrics(tracer.spans, table, op.wall_s, output_rows(out_dir)))
                all_spans.append(tracer.spans)
        elif trace:
            op = run_op(cli, name, out_dir)
        else:
            # a pair with the seed copy, in alternating order so that a drift cancels
            seed_first = len(seed_ops) % 2 == 1
            if seed_first:
                seed_ops.append(run_op(seed_cli, name, seed_dir))
            op = run_op(cli, name, out_dir)
            if not seed_first:
                seed_ops.append(run_op(seed_cli, name, seed_dir))
        ops.append(op)
        elapsed = time.perf_counter() - t_start
        if len(ops) >= (3 if trace else 2) and elapsed + (time.perf_counter() - t_op) > seconds:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(seed_dir, ignore_errors=True)
    for op in seed_ops:
        if op.error:
            raise RuntimeError(f"the seed copy failed on {name}: {op.error}")
    env["loadavg_end"] = os.getloadavg()

    ok = [op for op in ops if op.error is None]
    untraced = [op for op in ok if not op.traced and op is not ops[0]]
    metrics = {}
    if trace:
        for key in (traced_metrics[0] if traced_metrics else {}):
            values = [m[key][0] for m in traced_metrics]
            metrics[key] = {"value": median(values), "unit": traced_metrics[0][key][1],
                            "samples": len(values)}
        t_wall = median([op.wall_s for op in ok if op.traced])
        u_wall = median([op.wall_s for op in untraced])
        metrics["trace.overhead_frac"] = {
            "value": t_wall / u_wall - 1.0 if u_wall else 0.0, "unit": "ratio",
            "samples": len([op for op in ok if op.traced])}
    else:
        metrics["setup_s"] = {"value": median(setup), "unit": "s", "samples": len(setup)}
        metrics["run_s"] = {"value": median([op.wall_s for op in untraced]), "unit": "s",
                            "samples": len(untraced)}
        metrics["cpu_s"] = {"value": median([op.cpu_s for op in untraced]), "unit": "s",
                            "samples": len(untraced)}
        pairs = [(op, ref) for op, ref in zip(ops[1:], seed_ops) if op.error is None]
        for key, attr in (("run_rel", "wall_s"), ("cpu_rel", "cpu_s")):
            metrics[key] = {"value": median([getattr(op, attr) / getattr(ref, attr) for op, ref in pairs]),
                            "unit": "ratio", "samples": len(pairs)}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "samples": 1}
    failed = len(ops) - len(ok)
    drifts = [op.out_drift for op in ok]
    summary = {
        "fail_frac": {"value": failed / len(ops), "unit": "ratio", "samples": len(ops)},
        "out_drift": {"value": max(drifts) if drifts else None, "unit": "ratio",
                      "samples": len(drifts)},
        "digests_match": all(op.digests_match for op in ok) if ok else None,
    }
    record = {
        "workload": name, "argv": list(WORKLOADS[name].argv), "steps": steps, "seed": seed,
        "seconds": seconds, "trace": trace, "environment": env, "setup_samples_s": setup,
        "first_op_s": ops[0].wall_s, "seed_copy_ops": [asdict(op) for op in seed_ops],
        "ops": [asdict(op) for op in ops], "metrics": metrics, **summary,
    }
    if trace:
        record["per_function"] = {k: {key: median([t[k][key] for t in tables if k in t])
                                      for key in tables[0][k]} for k in tables[0]} if tables else {}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)
    if all_spans:
        with open(stem + "-spans.jsonl", "w") as f:
            for i, spans in enumerate(all_spans):
                for s in spans:
                    f.write(json.dumps([i, *s]) + "\n")
    return record


def print_record(record):
    print(f"workload {record['workload']}: seed {record['seed']}, trace {int(record['trace'])}, "
          f"{len(record['ops'])} operations of {record['steps']} steps")
    for op in record["ops"]:
        if op["error"]:
            print(f"  FAILED operation: {op['error']}")
    rows = dict(record["metrics"])
    rows["fail_frac"] = record["fail_frac"]
    rows["out_drift"] = record["out_drift"]
    for key, m in rows.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {key:<44} {value:>14} {m['unit']:<7} n={m['samples']}")
    print(f"  {'digests_match':<44} {str(record['digests_match']):>14}")
    print(f"  {'first_op_s (warm-up, not a sample)':<44} {record['first_op_s']:>14.6g} s")


def result_line(record, wanted):
    ops = record["ops"]
    failed = sum(1 for op in ops if op["error"])
    # a metric is missing only when every operation that measures it failed
    metrics = {m["name"]: {"value": record["metrics"].get(m["name"], {}).get("value"), "unit": m["unit"]}
               for m in wanted}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name}: benchmark exited with code {proc.returncode}")
            return 1
        print(proc.stdout.rsplit("\n", 2)[0])
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        line["correct"] = line["correct"] and child["correct"]
        line["attempted"] += child["attempted"]
        line["failed"] += child["failed"]
        for key, m in child["metrics"].items():
            line["metrics"][f"{name}.{key}"] = m
    print(json.dumps(line))
    return 0


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "linkages", "__init__.py")):
        print(f"benchmark: no linkages package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print(json.dumps(result_line(record, spec["per_layer" if args.trace else "end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
