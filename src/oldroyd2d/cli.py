"""Command-line interface.

Subcommands:
    run <config>                      integrate an experiment
    check [--quick]                   run the invariant battery
    sweep <config> --param X --values a,b,c
    norms <snapshot> [--norm names]   print norms of a snapshot

Exit codes: 0 ok, 1 run or check failure, 2 configuration error,
130 interrupted (SIGINT), 143 terminated (SIGTERM).
"""

from __future__ import annotations

import argparse
import signal
import sys

from . import besov
from . import checks as checks_mod
from . import diagnostics as diag
from .config import load_config
from .errors import ConfigError, SnapshotError, Terminated
from .runner import run as run_experiment
from .runner import sweep as run_sweep
from .snapshots import load_snapshot

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, by the shell convention
EXIT_TERMINATED = 143  # 128 + SIGTERM


def _cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config)
    if not result.ok:
        print(f"run failed: {result.error}", file=sys.stderr)
        print(f"partial output preserved in {result.out_dir}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    print(f"wrote {len(result.records)} records to {result.out_dir}")
    for key in ("bkm_integral", "final_n_value", "max_omega_linf", "max_gamma_b0inf1"):
        print(f"  {key} = {result.summary.get(key)}")
    fit = result.summary.get("decay_grad_u_l2")
    if fit:
        print(f"  decay(grad u): rate {fit['rate']:.4f}, R^2 {fit['r_squared']:.4f}")
    return EXIT_OK


def _cmd_check(args) -> int:
    results = checks_mod.run_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_RUN_FAILURE


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    ok, csv_path = run_sweep(config, args.param, values)
    print(f"sweep summary written to {csv_path}")
    return EXIT_OK if ok else EXIT_RUN_FAILURE


DEFAULT_NORMS = (
    "u_l2", "tau_l2", "omega_l2", "omega_linf", "gamma_linf",
    "gamma_b0inf1", "tau_bepsinf1", "tau_h2", "energy_weighted",
)

NORMS = {  # the names a diagnostics record lacks, of a diag.Observation
    "gamma_l2": lambda o: o.gamma.l2(),
    "omega_b0inf1": lambda o: besov.besov_norm(o.state.omega, 0.0),
    "tau_h1": lambda o: besov.sobolev_norm(o.state.tau, 1.0),
    "u_h1": lambda o: besov.sobolev_norm(o.state.u, 1.0),
    "u_h2": lambda o: besov.sobolev_norm(o.state.u, 2.0),
}


def _cmd_norms(args) -> int:
    opts = diag.DiagnosticsOptions(eps=args.eps)
    state, params = load_snapshot(args.snapshot)
    names = (
        [n.strip() for n in args.norm.split(",") if n.strip()]
        if args.norm
        else list(DEFAULT_NORMS)
    )
    known = {**diag.RECORD, **NORMS}
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ConfigError(
            [f"unknown norm name {n!r} (known: {', '.join(sorted(known))})" for n in unknown]
        )
    obs = diag.Observation(state, params, opts)
    print(f"t = {state.t:.6g}, n = {state.grid.n}, L = {state.grid.length:.6g}")
    width = max(len(n) for n in names)
    for name in names:
        print(f"{name:<{width}}  {known[name](obs)!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oldroyd2d",
        description="2D Oldroyd-B type viscoelastic flow, pseudospectral",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate an experiment config")
    p_run.add_argument("config")
    p_run.set_defaults(fn=_cmd_run)

    p_check = sub.add_parser("check", help="run the invariant battery")
    p_check.add_argument("--quick", action="store_true", help="reduced ensembles")
    p_check.set_defaults(fn=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="run one experiment per parameter value")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="e.g. initial.delta or model.mu")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_norms = sub.add_parser("norms", help="print norms of a snapshot file")
    p_norms.add_argument("snapshot")
    p_norms.add_argument("--norm", default=None, help="comma-separated norm names")
    p_norms.add_argument("--eps", type=float, default=diag.DiagnosticsOptions.eps,
                         help="regularity for the tau Besov norm")
    p_norms.set_defaults(fn=_cmd_norms)
    return parser


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (SnapshotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Terminated:
        print("terminated", file=sys.stderr)
        return EXIT_TERMINATED
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
