"""Command-line entry point.

Every experiment in the package is exposed as a subcommand with explicit
seeding; outputs are CSV reports plus a human-readable summary on
stdout.  Worker count is a wall-clock knob only: batch substreams make
every number independent of how work is scheduled, so reports are
byte-identical across worker counts.

Config files hold ``key = value`` lines (``#`` comments allowed) with
the same names as the long flags; flags override file values; unknown
keys are rejected.

Exit codes: 0 success, 2 invalid configuration/arguments (a malformed
spec or number list included) or an unusable path (a missing
``--config`` file, or an output directory that does not exist), 3
runtime or model error (explosion guard, zero acceptances, horizon cap,
a lane kernel that cannot be built).
"""

import argparse
import math
import os
import sys

import numpy as np

from . import diagnostics, lattice
from .densities import importance_estimate
from .errors import InvalidArgument, RarePathError
from .jumps import (IntensityFn, MarkDistribution, simulate_cpp_thinning,
                    simulate_cpp_time_change)
from .passage import (OuQuery, PathFunctional, conditional_samples,
                      estimate_conditional, oracle_rejection,
                      scaling_report)
from .reporting import (default_outdir, format_cell, jump_path_to_csv_rows,
                        kv_lines, profile_to_csv_rows, write_csv,
                        write_csv_columns)
from .rng import RngStream

__all__ = ["main"]


def _parse_spec(what: str, spec: str, makers: dict):
    """``makers[KIND](*FIELDS)`` for a ``KIND:FIELD:...`` spec; an unknown
    kind, or fields its maker rejects, is an :class:`InvalidArgument`."""
    kind, *fields = spec.split(":")
    if kind not in makers:
        raise InvalidArgument(f"unknown {what} {kind!r}")
    try:
        return makers[kind](*fields)
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"bad {what} spec {spec!r}: {exc}") from exc


_FUNCTIONALS = {
    "capped-duration": lambda cap: PathFunctional.capped_duration(float(cap)),
    "occupation-above": lambda level, cap: PathFunctional.occupation_above(
        float(level), float(cap)),
    "indicator": PathFunctional.indicator,
}


def _parse_list(s: str, kind):
    try:
        return [kind(x) for x in s.split(",") if x.strip()]
    except ValueError as exc:
        raise InvalidArgument(f"bad {kind.__name__} list {s!r}") from exc


def _load_config(path: str, known: set) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidArgument(f"config line {raw!r} is not key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise InvalidArgument(f"unknown config key {key!r}")
            values[key] = val
    return values


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse ``argv``; a ``--config`` file's values become the subcommand's
    defaults, so a flag given under any of its names overrides them."""
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)).choices[args.command]
        dests = {a.dest.replace("_", "-"): a.dest for a in sub._actions
                 if a.dest not in ("help", "config")}
        file_vals = _load_config(args.config, set(dests))
        # argparse applies each option's type to string defaults
        sub.set_defaults(**{dests[key]: val for key, val in file_vals.items()})
        args = parser.parse_args(argv)
    return args


def _out_path(args, default_name: str) -> str:
    if getattr(args, "out", None):
        return args.out
    return os.path.join(default_outdir(), default_name)


def _emit(path, header, rows, summary_pairs):
    write_csv(path, header, rows)
    sys.stdout.write(kv_lines(summary_pairs))
    sys.stdout.write(f"report={path}\n")


def _report_rows(fields):
    return [[k, format_cell(v)] for k, v in fields]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ou_estimate(args):
    query = OuQuery(level=args.level,
                    functional=_parse_spec("functional", args.functional, _FUNCTIONALS),
                    replicas=args.replicas, step=args.step, seed=args.seed,
                    detection=args.detection)
    if args.dump:
        table = conditional_samples(query, workers=args.workers)
        write_csv_columns(args.dump,
                          ["replica_id", "hit_time", "integral_sq", "log_weight",
                           "payoff"],
                          table.columns())
        rep = importance_estimate(payoffs=table.payoffs,
                                  log_weights=table.log_weights)
    else:
        rep = estimate_conditional(query, workers=args.workers)
    fields = [
        ("estimate", rep.estimate), ("stderr", rep.stderr), ("ess", rep.ess),
        ("replicas", args.replicas), ("step", args.step), ("seed", args.seed),
        ("max_log_weight", rep.extras["max_log_weight"]),
        ("top1_weight_share", rep.extras["top1_weight_share"]),
    ]
    _emit(_out_path(args, "ou_estimate.csv"), ["field", "value"],
          _report_rows(fields), fields)
    return 0


def _cmd_ou_oracle(args):
    query = OuQuery(level=args.level,
                    functional=_parse_spec("functional", args.functional, _FUNCTIONALS),
                    replicas=args.attempts, step=args.step, seed=args.seed,
                    detection=args.detection)
    rep = oracle_rejection(query, workers=args.workers)
    fields = [
        ("estimate", rep.estimate), ("stderr", rep.stderr),
        ("n_accepted", rep.n_samples), ("attempts", args.attempts),
        ("acceptance_rate", rep.extras["acceptance_rate"]),
        ("quadrature_acceptance", rep.extras["quadrature_acceptance"]),
        ("total_time_units", rep.extras["total_time_units"]),
        ("step", args.step), ("seed", args.seed),
    ]
    _emit(_out_path(args, "ou_oracle.csv"), ["field", "value"],
          _report_rows(fields), fields)
    return 0


def _cmd_ou_scaling(args):
    rep = scaling_report(_parse_list(args.levels, int), args.step, args.replicas,
                         args.seed, workers=args.workers)
    rows = [[r.level, r.is_cost_per_effective, r.rejection_cost_per_effective,
             r.ratio] for r in rep.rows]
    summary = [("levels", args.levels),
               ("is_exponent", rep.is_exponent),
               ("rejection_exponent", rep.rejection_exponent)]
    _emit(_out_path(args, "ou_scaling.csv"),
          ["N", "is_cost", "rejection_cost_per_effective", "ratio"], rows, summary)
    return 0


def _finite(field: str) -> float:
    val = float(field)
    if not math.isfinite(val):
        raise ValueError(f"{field!r} is not finite")
    return val


def _const_intensity(rate: str):
    lam = _finite(rate)
    return (lambda y: lam), lam


def _affine_intensity(a: str, b: str):
    a, b = _finite(a), _finite(b)
    return (lambda y: a + b * abs(y)), None


# intensities map to (rate of the state, the constant rate or None)
_INTENSITIES = {"const": _const_intensity, "affine": _affine_intensity}
_MARKS = {
    "point": lambda *z: MarkDistribution.point_mass([float(x) for x in z]),
    "gauss": lambda mean, sd: MarkDistribution.gaussian_shifted(float(mean), float(sd)),
    "table": lambda *pairs: MarkDistribution.discrete_table(
        [[float(v)] for v in pairs[0::2]], [float(p) for p in pairs[1::2]]),
}


def _cmd_cpp_simulate(args):
    mark = _parse_spec("mark", args.mark, _MARKS)
    if args.intensity.split(":")[0] == "affine" and mark.dim != 1:
        raise InvalidArgument(f"the affine intensity needs a 1-d mark, not dim {mark.dim}")
    g_state, const_rate = _parse_spec("intensity", args.intensity, _INTENSITIES)
    if not math.isfinite(args.bound):
        raise InvalidArgument(f"--bound must be finite, not {args.bound!r}")
    stream = RngStream(args.seed)
    if args.method == "time-change":
        path = simulate_cpp_time_change(stream, g_state, mark, args.x0, args.horizon)
    else:
        bound = args.bound if args.bound > 0 else const_rate
        if not bound:
            raise InvalidArgument("thinning needs --bound (or a constant intensity)")
        path = simulate_cpp_thinning(stream, IntensityFn.state_dependent(g_state),
                                     bound, mark, args.x0, args.horizon)
    out = _out_path(args, "cpp_path.csv")
    write_csv(out, ["jump_index", "time",
                    *[f"mark_{i}" for i in range(mark.dim)]],
              jump_path_to_csv_rows(path))
    sys.stdout.write(kv_lines([
        ("method", args.method), ("jumps", len(path.jump_times)),
        ("horizon", args.horizon), ("seed", args.seed), ("report", out)]))
    return 0


def _cmd_measure_check(args):
    if args.replicas < 2:
        raise InvalidArgument("--replicas must be at least 2 for a standard error")
    if not 0.0 < args.t < math.inf:
        raise InvalidArgument("--t must be finite and positive")
    t, n = args.t, args.replicas
    gens = [RngStream(args.seed).generator(sub) for sub in (1, 2, 3)]
    m_jump = np.exp(gens[2].poisson(t, size=n) * math.log(2.0) - t)
    checks = [
        # drift exponential with constant unit drift: value from terminal point
        ("exponential-unit-drift", "-",
         np.exp(math.sqrt(t) * gens[0].standard_normal(n) - 0.5 * t)),
        # counting density at u = 0.5 on a unit-rate counting process
        ("counting-u-0.5", "-",
         np.exp(-0.5 * gens[1].poisson(t, size=n) - (math.exp(-0.5) - 1.0) * t)),
        # intensity-change density 1 -> 2, both modes
        ("intensity-1-to-2", "jump", m_jump),
        ("intensity-1-to-2", "compensated", m_jump * math.exp(-math.log(2.0) * t)),
    ]
    rows = [(name, mode, float(m.mean()), float(m.std(ddof=1) / math.sqrt(n)))
            for name, mode, m in checks]
    table = [[name, mode, mean, se, (mean - 1.0) / se if se else math.inf,
              n] for name, mode, mean, se in rows]
    out = _out_path(args, "measure_check.csv")
    write_csv(out, ["density", "mode", "mean", "stderr", "z_vs_one", "replicas"], table)
    sys.stdout.write(kv_lines(
        [(f"{name}[{mode}]", f"{mean:.6f}+-{se:.6f}") for name, mode, mean, se in rows]
        + [("report", out)]))
    return 0


_FAMILIES = {
    "constant": lambda step, grids: diagnostics.constant_family(**grids),
    "bounded-drift": lambda step, grids: diagnostics.clamped_drift_family(
        mu=lambda t, w, wstar: np.cos(w[:, :1]), step=step, dim=1, **grids),
    "inverse-bessel": lambda step, grids: diagnostics.inverse_bessel_family(
        step=step, **grids),
}


def _cmd_tightness(args):
    if args.family not in _FAMILIES:
        raise InvalidArgument(f"unknown family {args.family!r}")
    if args.n_grid is None:
        args.n_grid = {"inverse-bessel": "8,16,32"}.get(args.family, "1,2,4")
    family = _FAMILIES[args.family](args.step, {
        "n_grid": tuple(_parse_list(args.n_grid, int)),
        "t_grid": tuple(_parse_list(args.t, float))})
    profile = diagnostics.q_tail_profile(family, _parse_list(args.kappas, float),
                                         args.replicas, args.seed,
                                         floor_threshold=args.floor_threshold,
                                         workers=args.workers)
    rows = list(profile_to_csv_rows(profile))
    v = profile.verdict
    rows.append(["verdict", str(v), "", "", ""])
    out = _out_path(args, "tightness.csv")
    write_csv(out, ["n", "t", "kappa", "estimate", "stderr"], rows)
    sys.stdout.write(kv_lines([
        ("family", args.family), ("verdict", str(v)), ("report", out)]))
    return 0


def _cmd_chain_demo(args):
    if args.samples < 1:
        raise InvalidArgument("--samples must be at least 1")
    spec = lattice.LatticeSpec(n=args.lattice_n)
    level = args.level
    k_top = spec.index_of(float(level))
    kern_cond = lattice.h_transform_kernel(spec, level)
    # harmonic-split residual of (level - y)/level on interior states
    res = 0.0
    for k in range(1, k_top):
        y = spec.value(k)
        lhs = (level - y) / level
        rhs = 0.5 * (level - spec.value(k + 1)) / level \
            + 0.5 * (level - spec.value(k - 1)) / level
        res = max(res, abs(lhs - rhs))
    # exhaustive weighted path sum against the two ruin probabilities
    kern_ou = lattice.ou_chain_kernel(spec)
    w_sum = lattice.weighted_ruin_sum(
        kern_cond, lambda k, d: 1.0 - lattice.tilt(spec, k) * d, k_top, k_top)
    kern_sym = lattice.BirthDeathKernel(lambda k: 1.0 if k == 0 else 0.5, spec)
    p_ou = lattice.first_return_ruin(kern_ou, k_top)
    p_sym = lattice.first_return_ruin(kern_sym, k_top)
    identity_gap = abs(w_sum - p_ou / p_sym)
    rows = [
        ["harmonic_residual", res],
        ["weighted_path_sum", w_sum],
        ["ruin_ratio", p_ou / p_sym],
        ["identity_gap", identity_gap],
    ]
    # conditioned sampler vs enumeration, on walks small enough to enumerate
    chain = lattice.birth_death_chain(kern_sym, k_top)
    if chain.size <= lattice.MAX_ENUM_STATES:
        enum = lattice.enumerate_conditioned(chain, lambda s: s, k_top, 1, 0, 18)
        paths = lattice.conv_sample_many(chain, lambda s: s, k_top, 1, 0,
                                         RngStream(args.seed, 1), args.samples)
        rows.append(["sampler_chi2_p", _chi_square_paths(enum, paths, args.samples)])
    rows += [
        ["samples", args.samples],
        ["lattice_n", args.lattice_n],
        ["level", level],
        ["seed", args.seed],
    ]
    out = _out_path(args, "chain_demo.csv")
    write_csv(out, ["check", "value"], rows)
    sys.stdout.write(kv_lines([(r[0], r[1]) for r in rows] + [("report", out)]))
    return 0


def _chi_square_paths(enum, paths, n_samples):
    from scipy import stats as sstats
    counts = {}
    for p in paths:
        counts[tuple(int(s) for s in p.states)] = counts.get(
            tuple(int(s) for s in p.states), 0) + 1
    expected, observed = [], []
    other_expected = 1.0
    for path, prob in sorted(enum.probs.items()):
        exp_count = prob * n_samples
        if exp_count < 5.0:
            continue
        expected.append(exp_count)
        observed.append(counts.get(path, 0))
        other_expected -= prob
    expected.append(max(other_expected, 1e-12) * n_samples)
    observed.append(n_samples - sum(observed))
    expected = np.asarray(expected) * (sum(observed) / sum(expected))
    stat, p_val = sstats.chisquare(observed, expected)
    return float(p_val)


# ---------------------------------------------------------------------------
# parser


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=None,
                    help="master seed (mandatory: no wall-clock seeding)")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker threads; never changes the numbers, only wall-clock")
    sp.add_argument("--out", type=str, default=None,
                    help=f"output CSV path (default under ${'{'}RAREPATH_OUTDIR{'}'} or .)")
    sp.add_argument("--config", type=str, default=None,
                    help="key = value config file; flags override file values")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rarepath",
        description="Rare-event Monte Carlo for diffusions and jump processes "
                    "via explicit changes of measure, with empirical "
                    "martingale/tightness diagnostics.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "ou-estimate",
        help="conditional expectation of a mean-reverting path given it reaches "
             "a high level before 0, by reweighted time-reversed radial-Brownian "
             "excursions (checks: self-normalized identity E[f|rare] = "
             "E[f.M]/E[M]; every draw is used, no rejection)")
    sp.add_argument("--level", "--N", dest="level", type=int, default=None)
    sp.add_argument("--replicas", type=int, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--functional", type=str, default="capped-duration:50",
                    help="capped-duration:CAP | occupation-above:LEVEL:CAP | "
                         "indicator")
    sp.add_argument("--detection", choices=("grid", "bridge"), default="bridge")
    sp.add_argument("--dump", type=str, default=None,
                    help="also write the per-replica sample table (replica_id, hit_time, integral_sq, log_weight, payoff) to this CSV")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_ou_estimate, _required=("level", "replicas", "step", "seed"))

    sp = sub.add_parser(
        "ou-oracle",
        help="same conditional expectation by naive rejection over Euler paths "
             "(the brute-force oracle the reweighted estimator is checked against)")
    sp.add_argument("--level", "--N", dest="level", type=int, default=None)
    sp.add_argument("--attempts", "--replicas", dest="attempts", type=int, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--functional", type=str, default="capped-duration:50")
    sp.add_argument("--detection", choices=("grid", "bridge"), default="bridge")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_ou_oracle, _required=("level", "attempts", "step", "seed"))

    sp = sub.add_parser(
        "ou-scaling",
        help="cost-per-effective-sample comparison of the two routes as the "
             "level grows (records fitted log-log slopes, asserts nothing)")
    sp.add_argument("--levels", "--N-list", dest="levels", type=str, default="2,3,4,6,8")
    sp.add_argument("--replicas", type=int, default=20000)
    sp.add_argument("--step", type=float, default=1e-3)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_ou_scaling, _required=('seed',))

    sp = sub.add_parser(
        "cpp-simulate",
        help="simulate a compound Poisson path with state-dependent intensity "
             "by the additive clock change or by thinning (the two laws agree; "
             "see the acceptance suite)")
    sp.add_argument("--method", choices=("time-change", "thinning"), default="time-change")
    sp.add_argument("--intensity", type=str, default="affine:1:1",
                    help="const:RATE | affine:A:B for A + B|y|")
    sp.add_argument("--bound", type=float, default=0.0,
                    help="dominating rate for thinning (required unless constant)")
    sp.add_argument("--mark", type=str, default="point:1",
                    help="point:Z[:Z2...] | gauss:MEAN:SD | table:V1:P1:V2:P2...")
    sp.add_argument("--x0", type=float, default=0.0)
    sp.add_argument("--horizon", type=float, default=1.0)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_cpp_simulate, _required=('seed',))

    sp = sub.add_parser(
        "measure-check",
        help="Monte Carlo unit-mean checks of the three density families "
             "(drift exponential; counting-process density; intensity-change "
             "density in both integrator conventions)")
    sp.add_argument("--replicas", type=int, default=100000)
    sp.add_argument("--t", type=float, default=1.0)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_measure_check, _required=('seed',))

    sp = sub.add_parser(
        "tightness",
        help="reweighted tail profiles over an approximating family with a "
             "tightness verdict (tails vanishing in kappa uniformly over the "
             "family indicate the limit keeps unit mass; a persistent floor "
             "witnesses escaping mass)")
    sp.add_argument("--family", type=str, default=None,
                    choices=sorted(_FAMILIES))
    sp.add_argument("--t", type=str, default="1.0", help="comma-separated times")
    sp.add_argument("--kappas", type=str, default="2,4,8")
    sp.add_argument("--n-grid", dest="n_grid", type=str, default=None)
    sp.add_argument("--replicas", type=int, default=200000)
    sp.add_argument("--step", type=float, default=1.0 / 512)
    sp.add_argument("--floor-threshold", dest="floor_threshold", type=float, default=0.05)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_tightness, _required=('family', 'seed'))

    sp = sub.add_parser(
        "chain-demo",
        help="lattice-walk identities at desk scale: harmonic splitting of the "
             "conditioning function, the exhaustive weighted-path-sum identity "
             "linking the tilted and symmetric walks, and the reversed-chain "
             "conditioned sampler against exact enumeration")
    sp.add_argument("--lattice-n", dest="lattice_n", type=int, default=1)
    sp.add_argument("--level", type=int, default=2)
    sp.add_argument("--samples", type=int, default=20000)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_chain_demo, _required=('seed',))

    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        missing = [name for name in getattr(args, "_required", ())
                   if getattr(args, name) is None]
        if missing:
            raise InvalidArgument(
                "missing required option(s): "
                + ", ".join("--" + m.replace("_", "-") for m in missing))
        if args.workers < 1:
            raise InvalidArgument("--workers must be at least 1")
        return args.fn(args)
    except RarePathError as exc:
        sys.stderr.write(f"error: code={exc.code} msg={exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error: code=unusable-path msg={exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
