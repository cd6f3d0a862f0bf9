"""Command line interface.

    plap eigen|solve|sweep|critval|picone-check|nonuniformity
         --config <path> [--out <dir>] [--seed <u64>]

Exit codes: 0 success, 2 invalid config or parse error, 3 no convergence,
4 output I/O failure, 5 a sweep recorded a consistency counterexample.
--out (or the PLAP_OUT environment variable) overrides the output directory;
--seed overrides the config seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .bvp import ProblemSpec, SolveOptions, solve
from .config import MODES, SOLVE_OPTIONS, build_mesh, parse_config
from .critical import EtaStarOptions, discrete_picone_check, eta_star, picone_polynomial_check
from .eigen import EigenOptions, _principal, principal_eigenpair, principal_eigenpair_negative, subdomain_eigenvalue
from .errors import (
    EmptyAdmissibleSet,
    InvalidConfig,
    IoError,
    NonConvergence,
    ParseError,
    ResonantParameter,
    SingularJacobian,
)
from .functions import DiscreteFunction, Weight
from .mesh import boundary_strip
from .regions import RegionMap, nonuniformity_experiment, sweep
from .report import write_csv, write_report

__all__ = ["main"]


def _solve_options(mp, seed):
    """The SolveOptions of a multi-start mode's mode_params."""
    return SolveOptions(seed=seed, **{k: mp[k] for k in SOLVE_OPTIONS})


def _run_eigen(cfg, mesh, seed, out_dir):
    mp = cfg.mode_params
    opts = EigenOptions(tol=mp["tol"], max_outer=mp["max_outer"], seed=seed, init=mp["init"])
    m = cfg.weights["m"]
    sub = mp["subdomain"]
    if sub is not None:
        try:
            mask = boundary_strip(mesh, sub["rho"])
        except InvalidConfig as exc:  # rho at or beyond half the diameter, which the mesh knows
            raise InvalidConfig(f"mode_params.subdomain.rho: {exc}") from exc
        if sub["part"] == "complement":
            mask = mask.complement()
        return subdomain_eigenvalue(mask, m, cfg.p, opts)
    if mp["negative"]:
        return principal_eigenpair_negative(mesh, m, cfg.p, opts)
    return principal_eigenpair(mesh, m, cfg.p, opts)


def _run_solve(cfg, mesh, seed, out_dir):
    mp = cfg.mode_params
    spec = ProblemSpec(
        mesh, cfg.p, cfg.q, mp["lam"], mp["eta"], cfg.weights["m"], cfg.weights["a"], cfg.weights["f"]
    )
    return solve(spec, mp["init"], _solve_options(mp, seed))


def _run_sweep(cfg, mesh, seed, out_dir):
    mp = cfg.mode_params
    template = ProblemSpec(
        mesh, cfg.p, cfg.q, 0.0, 0.0, cfg.weights["m"], cfg.weights["a"], cfg.weights["f"]
    )
    lam_grid = mp["lam_grid"]
    eta_grid = mp["eta_grid"]
    if lam_grid is None or eta_grid is None:
        lam1 = _principal(mesh, cfg.weights["m"], cfg.p).lam
        if lam_grid is None:
            lam_grid = np.linspace(0.0, 2.0 * lam1, mp["n_lam"]).tolist()
        if eta_grid is None:
            est = eta_star(
                mesh, cfg.weights["m"], cfg.weights["a"], cfg.weights["f"], cfg.p, cfg.q,
                0.5 * lam1,
                EtaStarOptions(seed=seed, n_starts=mp["eta_star_starts"]),
            )
            eta_bar = est.value if math.isfinite(est.value) else 1.0
            eta_grid = np.linspace(-eta_bar, eta_bar, mp["n_eta"]).tolist()
    region_map = sweep(template, lam_grid, eta_grid, _solve_options(mp, seed))
    write_csv(region_map, os.path.join(out_dir, cfg.output["csv"]))
    return region_map


def _run_critval(cfg, mesh, seed, out_dir):
    mp = cfg.mode_params
    if np.any(cfg.weights["f"].values(mesh) < 0):
        raise InvalidConfig("weights.f: must be nonnegative at every vertex for the critical value")
    opts = EtaStarOptions(n_starts=mp["n_starts"], max_iter=mp["max_iter"], seed=seed)
    lam, field = mp["lam"], "mode_params.lam"
    if lam is None:
        lam, field = mp["lam_frac"] * _principal(mesh, cfg.weights["m"], cfg.p).lam, "mode_params.lam_frac"
    try:
        return eta_star(mesh, cfg.weights["m"], cfg.weights["a"], cfg.weights["f"], cfg.p, cfg.q, lam, opts)
    except InvalidConfig as exc:  # exponents and f are checked already, so lam lies outside [0, lam1]
        raise InvalidConfig(f"{field}: {exc}") from exc


def _run_picone(cfg, mesh, seed, out_dir):
    mp = cfg.mode_params
    poly = picone_polynomial_check(cfg.p, cfg.q)
    report = {"polynomial": poly, "q_scan": [], "discrete": None}
    for qv in mp["q_grid"]:
        chk = picone_polynomial_check(cfg.p, qv)
        report["q_scan"].append({"q": qv, "holds": chk.holds, "min_value": chk.min_value})
    trials = mp["discrete_trials"]
    if trials > 0:
        rng = np.random.default_rng(seed)
        violations = 0
        for _ in range(trials):
            uv = np.zeros(mesh.n_vertices)
            uv[mesh.interior_vertices] = rng.random(len(mesh.interior_vertices))
            pv = np.zeros(mesh.n_vertices)
            pv[mesh.interior_vertices] = rng.standard_normal(len(mesh.interior_vertices))
            for eps in mp["eps"]:
                chk = discrete_picone_check(
                    DiscreteFunction(mesh, uv), DiscreteFunction(mesh, pv), cfg.p, eps
                )
                if not chk.holds:
                    violations += 1
        report["discrete"] = {"trials": trials, "eps": mp["eps"], "violations": violations}
    return report


def _run_nonuniformity(cfg, mesh, seed, out_dir):
    mp = cfg.mode_params
    family = [
        (f"bump(c={c:g},r={r:g})", Weight.expression(f"bump({c!r}, {r!r})"))
        for c, r in ((item["center"], item["radius"]) for item in mp["family"])
    ]
    return nonuniformity_experiment(
        mesh,
        cfg.p,
        cfg.q,
        cfg.weights["m"],
        cfg.weights["a"],
        mp["eps_lambda"],
        family,
        eta_small=mp["eta_small"],
        n_lam=mp["n_lam"],
        delta_span=mp["delta_span"],
        opts=_solve_options(mp, seed),
    )


_RUNNERS = {
    "eigen": _run_eigen,
    "solve": _run_solve,
    "sweep": _run_sweep,
    "critval": _run_critval,
    "picone-check": _run_picone,
    "nonuniformity": _run_nonuniformity,
}


@functools.cache
def _parser():
    """The argument parser, built on first use: most of its cost is argparse's gettext lookups."""
    parser = argparse.ArgumentParser(prog="plap", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        mode_parser = sub.add_parser(mode)
        mode_parser.add_argument("--config", required=True)
        mode_parser.add_argument("--out", default=None)
        mode_parser.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        try:
            with open(args.config, "rb") as handle:
                text = handle.read()
        except OSError as exc:
            raise InvalidConfig(f"could not read config {args.config!r}: {exc}")
        cfg = parse_config(text, base_dir=os.path.dirname(os.path.abspath(args.config)))
        if cfg.mode != args.mode:
            raise InvalidConfig(f"mode: config says {cfg.mode!r} but the subcommand is {args.mode!r}")
        if args.seed is not None and args.seed < 0:
            raise InvalidConfig(f"--seed: must be >= 0, got {args.seed}")
        seed = args.seed if args.seed is not None else cfg.seed
        cfg.echo["seed"] = seed
        out_dir = args.out or os.environ.get("PLAP_OUT") or cfg.output["dir"]
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise IoError(f"could not create output directory {out_dir!r}: {exc}")
        mesh = build_mesh(cfg)
        result = _RUNNERS[cfg.mode](cfg, mesh, seed, out_dir)
        write_report(result, os.path.join(out_dir, cfg.output["report"]), cfg.echo)
        # a sweep that recorded a consistency counterexample exits 5
        return 5 if isinstance(result, RegionMap) and result.counterexamples else 0
    except (InvalidConfig, ParseError, EmptyAdmissibleSet) as exc:
        print(f"plap: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, ResonantParameter, SingularJacobian) as exc:
        print(f"plap: {exc}", file=sys.stderr)
        return 3
    except IoError as exc:
        print(f"plap: {exc}", file=sys.stderr)
        return 4
