"""Command-line driver: every computation is a subcommand writing CSV/JSON
artifacts into a run directory (config echo + manifest + data files).
The library does the computing; this module parses arguments, calls it and
writes files.

Exit codes: 0 success, 1 error, 2 validation-threshold failure, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bose_hubbard import (BoseHubbardParams, EffectiveCouplings, effective_couplings,
                           validate_perturbation)
from .correlations import two_point_connected
from .free_fermion import MIN_POINTS, czz_analytic
from .localizable import (
    AnnealConfig,
    branch_average,
    cluster_scheme_plan,
    length_sweep,
    lower_bound_plan,
    optimize_plan,
)
from .spin_core import (
    GAP_LEVELS,
    GROUND_SITE_CAP,
    _gap_above_ground,
    cluster_hamiltonian,
    dense_spectrum,
    ground_state,
    lowest_eigenvalues,
    triangle_chain_hamiltonian,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2
EXIT_USAGE = 64

_ANNEAL_OPTIONS = ("anneal_temps", "anneal_proposals", "anneal_restarts")
#: Options a run does not read, by subcommand: the test on the parsed
#: arguments that marks such a run, the choice that reads them, and their
#: destinations.  Any of them away from its default is a usage error.
_UNREAD_OPTIONS = {
    "spectrum": (lambda a: a.model == "cluster", "--model triangle",
                 ("bx", "by", "lambda1", "lambda2", "lambda3", "lambda4")),
    "corr": (lambda a: a.channel == "analytic", "--channel ed", ("n",)),
    "locent": (lambda a: a.scheme != "anneal", "--scheme anneal", _ANNEAL_OPTIONS),
    "figure2": (lambda a: a.no_anneal, "runs without --no-anneal", _ANNEAL_OPTIONS),
}

#: ``spectrum`` takes the dense path up to this many sites, else Lanczos.
#: At n = 13 the dense path is the faster: all levels of the cluster ring in
#: 0.23-0.34 s against 2.4 s for the default 64 by Lanczos, and of the
#: complex triangle model in 1.3-2.0 s against 43 s.
_DENSE_SITE_MAX = 13

#: figure2 tables per channel: summary file and its length column, detail
#: file and its value columns.
_FIGURE2_TABLES = {
    "correlation": ("correlation_length", "xi", "czz_series", ("value",)),
    "entanglement": ("entanglement_length", "xi_E", "e_loc_series", ("E_loc", "xi_flag")),
}


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional 64 exit code for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        if np.isinf(x):
            return "inf"
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}; expected start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValueError(f"bad grid {text!r}")
    # floor never passes stop; the guard keeps a stop that rounding leaves
    # just short of a whole number of steps
    count = math.floor((stop - start) / step + 1e-9) + 1
    return [round(start + i * step, 10) for i in range(count)]


def _couplings_from_args(args) -> tuple:
    """``(ja, jb, uaa, ubb, uab)``, each per-species flag or else the shared
    --j / --u; None where neither is given."""
    shared = {"ja": args.j, "jb": args.j, "uaa": args.u, "ubb": args.u, "uab": args.u}
    return tuple(shared[k] if getattr(args, k) is None else getattr(args, k) for k in shared)


def _anneal_config(args) -> AnnealConfig:
    return AnnealConfig(
        n_temps=args.anneal_temps,
        proposals_per_temp=args.anneal_proposals,
        restarts=args.anneal_restarts,
        seed=args.seed,
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _threshold(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return value


def _figure2_ring(text: str) -> int:
    """``figure2 --n``: the separations 2..n//2 must give the length fit its
    ``MIN_POINTS`` points, so n >= 2 (MIN_POINTS + 1), and the ring's ground
    state must be within ``GROUND_SITE_CAP``."""
    value = int(text)
    smallest = 2 * (MIN_POINTS + 1)
    if value < smallest:
        raise argparse.ArgumentTypeError(
            f"must be at least {smallest}, so that separations 2..n//2 give the "
            f"length fit its {MIN_POINTS} points; got {value}"
        )
    if value > GROUND_SITE_CAP:
        raise argparse.ArgumentTypeError(f"must be at most {GROUND_SITE_CAP}; got {value}")
    return value


def _add_bh_flags(p) -> None:
    p.add_argument("--j", type=_finite_float, default=None, help="tunneling for both species")
    p.add_argument("--ja", type=_finite_float, default=None)
    p.add_argument("--jb", type=_finite_float, default=None)
    p.add_argument("--u", type=_finite_float, default=None, help="all three collisional couplings")
    p.add_argument("--uaa", type=_finite_float, default=None)
    p.add_argument("--ubb", type=_finite_float, default=None)
    p.add_argument("--uab", type=_finite_float, default=None)


# --- subcommands -----------------------------------------------------------------

def _cmd_couplings(args, out: Path, timings: dict) -> int:
    params = BoseHubbardParams(*_couplings_from_args(args))
    coup = effective_couplings(params)
    payload = dataclasses.asdict(coup)
    payload["perturbative_ratio"] = params.perturbative_ratio
    payload["perturbative_ok"] = params.perturbative_ok
    _write_json(out / "couplings.json", payload)
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_validate(args, out: Path, timings: dict) -> int:
    params = BoseHubbardParams(*_couplings_from_args(args))
    report = validate_perturbation(params)
    _write_json(out / "validation.json", dataclasses.asdict(report))
    print(f"max relative deviation: {report.max_rel_dev:.6g} (threshold {args.max_rel_dev})")
    return EXIT_OK if report.max_rel_dev <= args.max_rel_dev else EXIT_VALIDATION


def _cmd_spectrum(args, out: Path, timings: dict) -> int:
    if args.model == "cluster":
        spec = cluster_hamiltonian(args.n, args.b)
    else:
        coup = EffectiveCouplings(args.lambda1, args.lambda2, args.lambda3, args.lambda4, 0.0)
        spec = triangle_chain_hamiltonian(coup, (args.bx, args.by, args.b), args.n)
    dense = args.n <= _DENSE_SITE_MAX
    if dense:
        energies = dense_spectrum(spec)
    else:
        # the gap reads at least GAP_LEVELS levels whatever --max-levels asks
        energies = lowest_eigenvalues(spec, k=min(max(args.max_levels, GAP_LEVELS), 2**args.n))
    e0 = float(energies[0])
    gap = _gap_above_ground(energies)
    _write_json(
        out / "spectrum.json",
        {
            "model": args.model,
            "n": args.n,
            "b": args.b,
            "ground_energy": e0,
            "gap": gap,
            "dense": dense,
            "energies": [float(e) for e in energies[: args.max_levels]],
        },
    )
    print(f"ground energy {e0:.12g}, min gap {gap:.12g}")
    return EXIT_OK


def _cmd_corr(args, out: Path, timings: dict) -> int:
    lengths = range(args.l_min, args.l_max + 1)
    if args.channel == "analytic":
        values = czz_analytic(args.b, lengths).tolist()
    else:
        _, gs = ground_state(cluster_hamiltonian(args.n, args.b))
        values = [two_point_connected(gs, args.alpha, args.beta, 0, L - 1) for L in lengths]
    rows = [[args.b, L, args.alpha, args.beta, v] for L, v in zip(lengths, values)]
    _write_csv(out / "corr.csv", ["B", "L", "alpha", "beta", "value"], rows)
    print(f"wrote {len(rows)} correlator rows to {out / 'corr.csv'}")
    return EXIT_OK


def _cmd_locent(args, out: Path, timings: dict) -> int:
    p, q = (int(tok) for tok in args.pair.split(","))
    _, gs = ground_state(cluster_hamiltonian(args.n, args.b), seed=args.seed)
    if args.scheme == "cluster":
        result = branch_average(gs, cluster_scheme_plan(args.n, (p, q)))
    elif args.scheme == "lower-bound":
        result = branch_average(gs, lower_bound_plan(args.n, q + 1))
    else:
        result = optimize_plan(gs, (p, q), _anneal_config(args))
    plan = result.plan
    _write_json(
        out / "locent.json",
        {
            "B": args.b,
            "n": plan.n_sites,
            "pair": list(plan.target_pair),
            "value": result.value,
            "plan": {str(site): list(angles) for site, angles in plan.angles.items()},
            "branches": result.branch_count,
        },
    )
    print(f"E_loc = {result.value:.12g} over {result.branch_count} branches")
    return EXIT_OK


def _cmd_figure2(args, out: Path, timings: dict) -> int:
    grid = _parse_grid(args.b_grid)
    anneal = None if args.no_anneal else _anneal_config(args)
    channels, failures = length_sweep(grid, args.n, args.seed, anneal)
    for channel, (summary, xi, detail, columns) in _FIGURE2_TABLES.items():
        rows, series, timings[channel] = channels[channel]
        _write_csv(out / f"{summary}.csv", ["B", xi, "model", "diverges"], rows)
        # czz_series has no flag column
        _write_csv(out / f"{detail}.csv", ["B", "L", *columns],
                   [r[: 2 + len(columns)] for r in series])
    if failures:
        (out / "failures.log").write_text("\n".join(failures) + "\n")
        for msg in failures:
            print(f"warning: {msg}", file=sys.stderr)
    print(
        f"figure2 grid of {len(grid)} fields done in {sum(timings.values()):.1f}s "
        f"({len(failures)} partial failures); outputs in {out}"
    )
    return EXIT_OK


# --- parser ----------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="trispin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"trispin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    p = sub.add_parser("couplings", parents=[], help="effective couplings from Bose-Hubbard parameters")
    _add_bh_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_couplings)

    p = sub.add_parser("validate", help="third-order truncation check against the full triangle")
    _add_bh_flags(p)
    p.add_argument("--max-rel-dev", type=_threshold, default=0.08)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("spectrum", help="exact spectrum / gap of a chain model")
    p.add_argument("--model", choices=("cluster", "triangle"), default="cluster")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--b", type=_finite_float, default=0.0)
    p.add_argument("--bx", type=_finite_float, default=0.0)
    p.add_argument("--by", type=_finite_float, default=0.0)
    p.add_argument("--lambda1", type=_finite_float, default=0.0)
    p.add_argument("--lambda2", type=_finite_float, default=0.0)
    p.add_argument("--lambda3", type=_finite_float, default=0.0)
    p.add_argument("--lambda4", type=_finite_float, default=0.0)
    p.add_argument("--max-levels", type=_positive_int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("corr", help="connected two-point correlator sweep")
    p.add_argument("--b", type=_finite_float, required=True)
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--alpha", choices=("x", "y", "z"), default="z")
    p.add_argument("--beta", choices=("x", "y", "z"), default="z")
    p.add_argument("--l-min", type=int, default=3)
    p.add_argument("--l-max", type=int, default=8)
    p.add_argument("--channel", choices=("ed", "analytic"), default="ed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_corr)

    p = sub.add_parser("locent", help="localizable entanglement of one pair")
    p.add_argument("--b", type=_finite_float, required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--pair", default="0,4", help="comma-separated 0-based sites")
    p.add_argument("--scheme", choices=("cluster", "lower-bound", "anneal"), default="cluster")
    p.add_argument("--anneal-temps", type=_positive_int, default=200)
    p.add_argument("--anneal-proposals", type=_positive_int, default=50)
    p.add_argument("--anneal-restarts", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_locent)

    p = sub.add_parser("figure2", help="correlation vs entanglement length over a field grid")
    p.add_argument("--b-grid", default="0:2:0.1", help="start:stop:step")
    p.add_argument("--n", type=_figure2_ring, default=13,
                   help="ring for the entanglement channel (odd recommended, at "
                   f"least {2 * (MIN_POINTS + 1)})")
    p.add_argument("--large", action="store_true", help="use the large ring (n=17)")
    p.add_argument("--no-anneal", action="store_true",
                   help="scheme ensemble only (skip basis annealing)")
    p.add_argument("--anneal-temps", type=_positive_int, default=50)
    p.add_argument("--anneal-proposals", type=_positive_int, default=16)
    p.add_argument("--anneal-restarts", type=_positive_int, default=1)
    p.add_argument("--threads", type=int, choices=(1,), default=1,
                   help="accepted for existing command lines; the sweep is serial")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_figure2)

    return parser


def main(argv=None) -> int:
    """Parse ``argv``, make the run directory with its ``config.json``, run
    the subcommand and, once it returns, write ``manifest.json``.

    Each subcommand writes its data files into the run directory and may
    add the seconds of its phases to the manifest's timings.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    on_chain = args.command in ("spectrum", "locent") or (
        args.command == "corr" and args.channel == "ed")
    if on_chain and args.n < 3:
        parser.error(f"--n {args.n} is below 3, the smallest chain")
    if on_chain and args.n > GROUND_SITE_CAP:
        parser.error(f"--n {args.n} exceeds {GROUND_SITE_CAP}, the largest chain solved")
    if args.command == "corr":
        if args.l_min < 2:
            parser.error(f"--l-min {args.l_min} is below 2")
        if args.l_min > args.l_max:
            parser.error(f"--l-min {args.l_min} exceeds --l-max {args.l_max}")
        if args.channel == "ed" and args.l_max > args.n:
            parser.error(f"--l-max {args.l_max} exceeds the ring of --n {args.n} sites")
        if args.channel == "analytic" and (args.alpha, args.beta) != ("z", "z"):
            parser.error("the analytic channel provides zz correlators only")
    if args.command in _UNREAD_OPTIONS:
        unread, reader, names = _UNREAD_OPTIONS[args.command]
        subparser = parser.subcommands[args.command]
        changed = [name for name in names if getattr(args, name) != subparser.get_default(name)]
        if unread(args) and changed:
            parser.error(f"--{changed[0].replace('_', '-')} applies to {reader} only")
    if args.command in ("couplings", "validate") and None in _couplings_from_args(args):
        parser.error("tunneling/collision couplings missing (use --j/--u or per-species flags)")
    if args.command == "locent":
        try:
            p, q = (int(tok) for tok in args.pair.split(","))
        except ValueError:
            parser.error(f"--pair {args.pair!r} is not two comma-separated integers")
        if p == q or not (0 <= p < args.n and 0 <= q < args.n):
            parser.error(f"--pair {args.pair} is not two distinct sites of the --n {args.n} ring")
        if args.scheme == "lower-bound" and (p != 0 or q < 2 or q % 2):
            parser.error("--scheme lower-bound needs --pair 0,L-1 with L odd and at least 3")
    if args.command == "figure2":
        try:
            _parse_grid(args.b_grid)
        except ValueError as exc:
            parser.error(f"--b-grid: {exc}")
        if args.large:
            args.n = 17  # --large overrides --n
    out = Path(args.out or f"{args.command}_out")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", {k: v for k, v in vars(args).items() if k != "func"})
    timings: dict[str, float] = {}
    t0 = time.time()
    try:
        code = args.func(args, out, timings)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    timings["total"] = time.time() - t0
    _write_json(
        out / "manifest.json",
        {
            "package": "trispin",
            "version": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "timings_s": {k: round(v, 3) for k, v in timings.items()},
        },
    )
    return code


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
