"""Command-line entry point: one subcommand per experiment preset.

The subcommand picks the model: weak, weak-source, limit and
convergence-sweep need a prescribed off-rate zeta(x, a, t), coupled and
detachment an elongation-dependent zeta(u).  main loads the --config file
(or builds the subcommand's default) and validates it once.

Exit codes: 0 clean, 1 usage, configuration or I/O error (a config whose
off-rate kind does not fit the subcommand included), 2 hard invariant
violation during a run.  Warnings go to stderr as one "warning: <message>" line each.
"""

import argparse
import os
import sys
import warnings

import numpy as np

from . import presets, simulate
from .config import (
    PastData,
    RateModel,
    SimulationConfig,
    SourceModel,
    load_config,
    validate_config,
)
from .errors import ConfigError, HypothesisViolation, LinkagesError
from .grids import build_grids


def reference_config(**overrides):
    """Constant-rate weak configuration (beta = zeta = 1, sine past data)."""
    base = dict(
        epsilon=0.05,
        final_time=0.5,
        nx=64,
        da=0.01,
        a_max=10.0,
        rate_model=RateModel(),
        past_data=PastData(fn=presets.past_data_fn("sin_pi")),
        initial_density=presets.initial_density_fn("exp_decay"),
    )
    base.update(overrides)
    return SimulationConfig(**base)


def source_config(**overrides):
    """Reference configuration plus the steady sine load pi^2 sin(pi x)."""
    fn, dfn = presets.source_fns("sin_forcing")
    return reference_config(source=SourceModel(fn=fn, dfn=dfn), **overrides)


def coupled_config(**overrides):
    """Steady-adhesion coupled configuration (beta = 1, unit constant load)."""
    fn, dfn = presets.source_fns("constant(1.0)")
    base = dict(
        epsilon=0.02,
        final_time=1.0,
        nx=64,
        da=0.02,
        a_max=10.0,
        rate_model=RateModel(zeta_kind="lipschitz", zeta_M=np.inf),
        past_data=PastData(fn=presets.past_data_fn("zero")),
        initial_density=presets.initial_density_fn("exp_decay"),
        source=SourceModel(fn=fn, dfn=dfn),
    )
    base.update(overrides)
    return SimulationConfig(**base)


def detachment_config(**overrides):
    """Tear-off experiment: threshold on-rate, load 1e4, eps = 1e-3."""
    fn, dfn = presets.source_fns("constant(10000.0)")
    base = dict(
        epsilon=1e-3,
        final_time=8e-3,
        nx=128,
        da=1e-2,
        a_max=10.0,
        rate_model=RateModel(
            zeta_kind="lipschitz", zeta_M=np.inf, beta_kind="threshold", zbar=1000.0, beta_m=0.0
        ),
        past_data=PastData(fn=presets.past_data_fn("sin_pi")),
        initial_density=presets.initial_density_fn("exp_decay"),
        source=SourceModel(fn=fn, dfn=dfn),
    )
    base.update(overrides)
    return SimulationConfig(**base)


def _out(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _report(violations, flags=()):
    """Print a run's violations and soft flags to stderr; return its exit code."""
    for v in violations:
        print(f"invariant violation: {v}", file=sys.stderr)
    for f in flags:
        print(f"flag: {f}", file=sys.stderr)
    return 2 if violations else 0


def cmd_weak(args, vcfg):
    sgrid, agrid, _ = build_grids(vcfg)
    res = simulate.run_weak(vcfg, output_stride=args.cadence, diag_stride=args.cadence)
    simulate.write_grid_csv(_out(args, "trajectory.csv"), "t,x,z", res.times, sgrid.x, res.trajectory)
    simulate.write_diagnostics_csv(_out(args, "diagnostics.csv"), res.records)
    if args.dump_density:
        simulate.write_grid_csv(_out(args, "density.csv"), "x,a,rho", sgrid.x, agrid.a, res.final_rho)
    code = _report(res.violations)
    print(f"weak run: {len(res.times)} outputs, mu0 in [{res.mu0_min:.6g}, {res.mu0_max:.6g}]")
    return code


def cmd_limit(args, vcfg):
    sgrid, _, ts = build_grids(vcfg)
    # the snapshots of a delay run at this cadence: none past final_time
    res = simulate.run_limit(vcfg, vcfg.dt * args.cadence, ts.n_steps // args.cadence)
    simulate.write_grid_csv(_out(args, "trajectory.csv"), "t,x,z", res.times, sgrid.x, res.trajectory)
    print(f"limit run: {len(res.times)} outputs")
    return 0


def cmd_coupled(args, vcfg):
    sgrid, agrid, _ = build_grids(vcfg)
    res = simulate.run_coupled(vcfg, diag_stride=args.cadence)
    simulate.write_diagnostics_csv(_out(args, "diagnostics.csv"), res.records)
    if args.dump_density:
        simulate.write_grid_csv(_out(args, "density.csv"), "x,a,rho", sgrid.x, agrid.a, res.final.rho)
    code = _report(res.violations, res.soft_flags)
    print(
        f"coupled run: t = {res.final.t:g}, min u = {res.u_min:.3g}, "
        f"mu0 in [{res.mu0_min:.6g}, {res.mu0_max:.6g}], "
        f"truncated = {res.ever_truncated}"
    )
    return code


def cmd_sweep(args, vcfg):
    try:
        eps_list = [float(tok) for tok in args.epsilons.split(",")]
    except ValueError as exc:
        bad = HypothesisViolation("malformed scale list", f"--epsilons {args.epsilons}")
        raise ConfigError([bad]) from exc
    # snapshots every --cadence steps of the coarsest run
    dt_out = args.cadence * max(eps_list) * vcfg.da
    sweep = simulate.run_convergence_sweep(vcfg, eps_list, dt_out)
    simulate.write_sweep_csv(_out(args, "sweep.csv"), sweep)
    print(f"{'epsilon':>10} {'L2(Q_T) error':>16} {'order':>8}")
    for row in sweep.rows:
        order = "" if row.order is None else f"{row.order:8.3f}"
        print(f"{row.epsilon:10.4g} {row.error:16.8g} {order}")
    if not sweep.monotone:
        print("errors are not monotone in epsilon", file=sys.stderr)
        return 2
    return 0


def cmd_detachment(args, vcfg):
    sgrid, _, _ = build_grids(vcfg)
    res = simulate.run_detachment(vcfg)
    zcols, mcols = {}, {}
    for t in simulate.DETACHMENT_TIMES:
        z, mu0 = res.snapshots[t]
        zcols[f"z(t={t:g})"] = z
        mcols[f"mu0(t={t:g})"] = np.maximum(mu0, simulate.MU0_PLOT_FLOOR)
    simulate.write_profile_columns(_out(args, "detachment_z.dat"), sgrid.x, zcols)
    simulate.write_profile_columns(_out(args, "detachment_mu0.dat"), sgrid.x, mcols)
    mu = res.final.mu0
    n_flank, n_dead = int(res.flank_mask.sum()), int(res.dead_mask.sum())
    print(f"detachment run to t = {res.final.t:g}: {n_flank} live nodes, {n_dead} detached nodes")
    if n_dead:
        print(f"  detached region: max mu0 = {np.max(mu[res.dead_mask]):.3g}")
    if n_flank:
        print(f"  live flanks:     mu0 within {np.max(np.abs(mu[res.flank_mask] - 0.5)):.3g} of 1/2")
    return _report(res.violations, res.soft_flags)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="linkages",
        description="Adhesion-bond kinetics coupled to an elastic position field",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", default=None, help="INI configuration file")
    files.add_argument("--out", default="out", help="output directory")
    cadence = argparse.ArgumentParser(add_help=False)
    cadence.add_argument("--cadence", type=int, default=10, help="output every N steps")
    dump = argparse.ArgumentParser(add_help=False)
    dump.add_argument("--dump-density", action="store_true", help="write the final density CSV")
    stepped, full = [files, cadence], [files, cadence, dump]

    # the subcommand picks the model and takes only the flags it reads;
    # default is the config run without --config
    sub.add_parser("weak", parents=full).set_defaults(fn=cmd_weak, default=reference_config)
    sub.add_parser("weak-source", parents=full).set_defaults(fn=cmd_weak, default=source_config)
    sub.add_parser("limit", parents=stepped).set_defaults(fn=cmd_limit, default=reference_config)
    sub.add_parser("coupled", parents=full).set_defaults(fn=cmd_coupled, default=coupled_config)
    p = sub.add_parser("convergence-sweep", parents=stepped)
    p.add_argument("--epsilons", default="0.2,0.1,0.05,0.025", help="comma-separated scale list")
    p.set_defaults(fn=cmd_sweep, default=reference_config)
    sub.add_parser("detachment", parents=[files]).set_defaults(fn=cmd_detachment, default=detachment_config)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error: argparse exits 2, which is kept for invariant violations
        raise SystemExit(1 if exc.code == 2 else exc.code)
    try:
        if getattr(args, "cadence", 1) < 1:
            raise ConfigError([HypothesisViolation("output cadence", f"--cadence {args.cadence} < 1")])
        cfg = load_config(args.config) if args.config else args.default()
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.fn(args, validate_config(cfg))
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v!r}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except LinkagesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
