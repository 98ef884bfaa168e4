"""Command-line interface for the experiment harness.

Subcommands: table, surface, sweep, constants, samples.  Every run is a
pure function of the config file and the seed; rank-deficient draws are
reported in the outputs and only fail the run under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (
    ConfigError,
    constants_report,
    emit_surface,
    load_config,
    probability_sweep,
    row_seed,
    run_table,
)
from .reconstruction import RankDeficientError, build_sample_matrix, solve
from .mixed_space import LatticeSpline
from .sampling import draw_samples

CSV_DOC = """\
output column orders (CSV, UTF-8, '.' decimal, one header row after the
'# config_sha256=... seed=...' comment line):
  table:   n,m,sup_error,l1_error,l2_error,rank,rank_deficient,residual,row_seed,
           sigma_min,condition_number
           (error fields are empty on rank-deficient rows; sigma_min and
           condition_number of the sample matrix are on every row)
  surface: x,y,value
  samples: j,k,x,y1..yd
sweep and constants write JSON with the same embedded hash and seed.
"""


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgsamp",
        description="random average sampling and reconstruction experiments",
        epilog=CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="reproduce a reconstruction-error table")
    _add_common(p_table)
    p_table.add_argument("--strict", action="store_true",
                         help="exit nonzero when any row is rank deficient")

    p_surface = sub.add_parser("surface", help="emit gridded values of f and its reconstruction")
    _add_common(p_surface)
    p_surface.add_argument("--grid", default="101x101", help="grid resolution NXxNY")
    p_surface.add_argument("--which", choices=["f", "recon", "both"], default="both")
    p_surface.add_argument("--n", type=int, default=None, help="rows of the sample draw")
    p_surface.add_argument("--m", type=int, default=None, help="columns of the sample draw")
    p_surface.add_argument("--format", choices=["csv", "json"], default="csv")

    p_sweep = sub.add_parser("sweep", help="Monte Carlo success probability versus sample size")
    _add_common(p_sweep)
    p_sweep.add_argument("--nm", default=None, help="comma list of sizes, e.g. 5x5,7x7,10x10")
    p_sweep.add_argument("--trials", type=int, default=200)
    p_sweep.add_argument("--theorem", choices=["recovery", "omega", "mu"], default="recovery")

    p_const = sub.add_parser("constants", help="print every constant of one probability bound")
    _add_common(p_const)
    p_const.add_argument("--theorem", required=True,
                         choices=["omega", "mu", "concentrated", "reconstruction"])
    for name in ("gamma", "omega", "mu", "eta", "delta", "eps", "beta-tilde"):
        p_const.add_argument(f"--{name}", type=float, default=None, dest=name.replace("-", "_"))
    p_const.add_argument("--n", type=int, default=None)
    p_const.add_argument("--m", type=int, default=None)

    p_samples = sub.add_parser("samples", help="draw and save a sample set")
    _add_common(p_samples)
    p_samples.add_argument("--n", type=int, default=None)
    p_samples.add_argument("--m", type=int, default=None)
    p_samples.add_argument("--mode", choices=["joint", "separable"], default=None)

    return parser


def _cmd_table(args) -> int:
    exp = load_config(args.config, args.seed)
    table = run_table(exp)
    out = args.out or "table.csv"
    table.to_csv(out)
    deficient = [r for r in table.rows if r.rank_deficient]
    for r in table.rows:
        status = f"rank-deficient (rank {r.rank})" if r.rank_deficient else (
            f"sup={r.sup_error:.3e} l1={r.l1_error:.3e} l2={r.l2_error:.3e}")
        print(f"n={r.n} m={r.m}: {status}")
    print(f"wrote {out}")
    return 1 if (deficient and args.strict) else 0


def _cmd_surface(args) -> int:
    exp = load_config(args.config, args.seed)
    nx, ny = _size_pair(args.grid, "--grid", "NXxNY")
    box = exp.cuboid.box
    grid_spec = {"x": [box[0][0], box[0][1], nx], "y": [box[1][0], box[1][1], ny]}
    # draw and solve first, so that a run that fails leaves no partial output
    surfaces = {"f": exp.f} if args.which in ("f", "both") else {}
    code = 0
    if args.which in ("recon", "both"):
        n = exp.sample_sizes[0][0] if args.n is None else args.n
        m = exp.sample_sizes[0][1] if args.m is None else args.m
        samples = draw_samples(exp.density, n, m, row_seed(exp.seed, n, m), exp.mode)
        S = build_sample_matrix(exp.phi, exp.kernel, samples, exp.N)
        try:
            res = solve(S, S.entries @ exp.signal.flatten())
            surfaces["recon"] = LatticeSpline(exp.phi, res.grid)
        except RankDeficientError as exc:
            print(f"reconstruction skipped: {exc}", file=sys.stderr)
            code = 1
    stem = args.out or "surface"
    for name, func in surfaces.items():
        path = f"{stem}.{name}.{args.format}"
        emit_surface(func, grid_spec, path, exp, args.format)
        print(f"wrote {path}")
    return code


def _size_pair(text: str, flag: str, form: str) -> tuple[int, int]:
    try:
        a, b = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"{flag} takes {form}, got {text!r}") from None
    return a, b


def _cmd_sweep(args) -> int:
    exp = load_config(args.config, args.seed)
    nm_list = ([_size_pair(c, "--nm", "a comma list of NxM") for c in args.nm.split(",")] if args.nm
               else exp.sample_sizes)
    records = probability_sweep(exp, nm_list, args.trials, args.theorem)
    out = args.out or "sweep.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
    for rec in records:
        print(f"n={rec['n']} m={rec['m']}: fraction={rec['fraction']:.3f} "
              f"[{rec['wilson_low']:.3f}, {rec['wilson_high']:.3f}] "
              f"theoretical={rec['probability']:.3g}")
    print(f"wrote {out}")
    return 0


def _cmd_constants(args) -> int:
    exp = load_config(args.config, args.seed)
    rep = constants_report(
        exp, args.theorem, gamma=args.gamma, omega=args.omega, mu=args.mu,
        eta=args.eta, delta=args.delta, eps=args.eps, beta_tilde=args.beta_tilde,
        n=args.n, m=args.m,
    )
    doc = rep.to_dict()
    doc["config_sha256"] = exp.hash
    doc["seed"] = exp.seed
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_samples(args) -> int:
    exp = load_config(args.config, args.seed)
    n = exp.sample_sizes[0][0] if args.n is None else args.n
    m = exp.sample_sizes[0][1] if args.m is None else args.m
    mode = args.mode or exp.mode
    samples = draw_samples(exp.density, n, m, exp.seed, mode)
    out = args.out or "samples.csv"
    samples.to_csv(out, header_comment=exp.file_header())
    print(f"wrote {out} ({n * m} points)")
    return 0


_COMMANDS = {
    "table": _cmd_table,
    "surface": _cmd_surface,
    "sweep": _cmd_sweep,
    "constants": _cmd_constants,
    "samples": _cmd_samples,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
