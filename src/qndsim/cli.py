"""Command-line surface: deterministic analysis runs and file outputs.

Every subcommand reads a JSON config whose frequency-like keys are plain
Hz (the /2pi convention used in lab reporting); conversion to angular
rates happens at this boundary only. Outputs carry a manifest comment (or
JSON record) hashing the run configuration, floats are printed with 17
significant digits, and files are written atomically, so identical runs
produce byte-identical artifacts.

Exit codes: 0 success (and feasibility pass), 2 feasibility failure,
1 invalid input of any kind.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, _io
from ._kernels import BACKENDS
from .constants import TWO_PI
from .coupling import classify_symmetry, g2_coefficient, read_field_csv
from .fock import diagonal_state, fock_state, suggest_dim, thermal_state
from .lindblad import evolve, reduced_generator
from .rates import (
    CHECK_NAMES,
    channel_coefficients,
    feasibility,
    ground_state_rates,
    measurement_rate,
    rate_table,
)
from .system import (
    ANGULAR_RATES,
    CONFIG_KEYS,
    REQUIRED_KEYS,
    SystemParams,
    params_from_mapping,
    read_config,
)
from .trajectories import ensemble, write_events_csv, write_staircase_csv
from .twomode import (
    TwoModeParams,
    backscatter_occupancy,
    mim_effective_g2,
    mim_frequencies,
    single_mode_mapping,
)


class _UsageError(argparse.ArgumentTypeError, ValueError):
    # argparse reports an ArgumentTypeError's own message; main() catches
    # it as a ValueError wherever a command body parses a number itself.
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # feasibility failure here, so route them through the error path.
    def error(self, message):
        raise _UsageError(message)


def _number(name: str, positive: bool = False):
    """argparse type for a finite float flag, also > 0 when ``positive``."""
    need = "positive and finite" if positive else "a finite number"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or (positive and value <= 0):
            raise _UsageError("%s must be %s (got %r)" % (name, need, text))
        return value

    return parse


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_params(path: str):
    return params_from_mapping(_load_json(path))


def _meta(command: str, params=None, **extra) -> dict:
    meta = {"tool": "qndsim", "version": __version__, "command": command}
    if params is not None:
        for name in ANGULAR_RATES:
            meta["cfg_" + name] = getattr(params, name + "_hz")
        meta["cfg_nbar_th"] = params.nbar_th
        meta["cfg_nbar_photon"] = params.nbar_photon
    for key, value in extra.items():
        if value is not None:
            meta[key] = value
    return meta


def _emit_csv(out, header, columns, meta) -> None:
    if out:
        _io.write_csv(out, header, columns, meta=meta)
    else:
        sys.stdout.write(_io.render_csv(header, columns, meta=meta))


def _emit_json(out, obj, meta) -> None:
    if out:
        _io.write_json(out, obj, meta=meta)
    else:
        sys.stdout.write(_io.render_json(obj, meta=meta))


# ------------------------------------------------------------ subcommands


def cmd_rates(args) -> int:
    params = _load_params(args.config)
    header, rows = rate_table(params, args.n_top)
    meta = _meta("rates", params, n_top=args.n_top)
    if args.format == "json":
        obj = {
            "normalization": "gamma_th0",
            "columns": header,
            "rows": rows,
        }
        _emit_json(args.out, obj, meta)
    else:
        _emit_csv(args.out, header, list(zip(*rows)), meta)
    return 0


def cmd_feasibility(args) -> int:
    params = _load_params(args.config)
    report = feasibility(params, args.n, dominance=args.dominance)
    gs = ground_state_rates(params)
    obj = {
        "n": report.n,
        "dominance": report.dominance,
        "n_max": report.n_max,
        "n_max_floor": report.n_max_floor,
        "ratios": dict(report.ratios),
        "checks": dict(report.checks),
        "linear_limit_margin": report.ratios["linear_limit"],
        "sideband_margin": report.ratios["sideband_resolution"],
        "ok": report.ok,
        "gamma_th0_hz": gs.gamma_th0 / TWO_PI,
        "gamma_1_hz": gs.gamma_1 / TWO_PI,
        "gamma_2_hz": gs.gamma_2 / TWO_PI,
    }
    meta = _meta("feasibility", params, n=args.n, dominance=args.dominance)
    _emit_json(args.out, obj, meta)
    return 0 if report.ok else 2


# Largest dimension evolve picks without --dim. evolve reduces its grid
# states 16 at a time, so its memory grows with d^2, not with the grid:
# about 1.7 KB * d^2 of RSS (24 MB at d = 120, 64 MB at d = 200), which is
# 1.8 GB at this bound.
MAX_PICKED_DIM = 1024


def _picked_dim(dim: int) -> int:
    """A dimension chosen without --dim, refused above ``MAX_PICKED_DIM``."""
    if dim > MAX_PICKED_DIM:
        raise ValueError(
            "initial state would need dimension %d, more than the %d picked "
            "without --dim (about 1.8 GB of memory for evolve); pass --dim to "
            "choose the size" % (dim, MAX_PICKED_DIM)
        )
    return dim


def _parse_initial(spec: str, dim_arg):
    kind, _, rest = spec.partition(":")
    if kind == "fock" and rest:
        k = int(rest)
        dim = _picked_dim(max(k + 5, 12)) if dim_arg is None else dim_arg
        return fock_state(dim, k), dim
    if kind == "thermal" and rest:
        nbar = _number("thermal occupancy")(rest)
        if dim_arg is None:
            dim_arg = _picked_dim(max(suggest_dim(nbar) + 4, 12))
        return thermal_state(dim_arg, nbar), dim_arg
    if kind == "diag" and rest:
        probs = list(map(_number("diag probability"), rest.split(",")))
        dim = _picked_dim(max(len(probs) + 4, 12)) if dim_arg is None else dim_arg
        if dim < len(probs):
            raise ValueError("--dim smaller than the diag probability list")
        padded = probs + [0.0] * (dim - len(probs))
        return diagonal_state(padded), dim
    raise ValueError(
        "initial state must be 'fock:k', 'thermal:nbar' or 'diag:p0,p1,...'"
    )


def cmd_evolve(args) -> int:
    params = _load_params(args.config)
    rho0, dim = _parse_initial(args.initial, args.dim)
    gen = reduced_generator(params, dim)
    result = evolve(gen, rho0, args.t_final, grid=args.grid)
    meta = _meta(
        "evolve",
        params,
        initial=args.initial,
        t_final_s=args.t_final,
        grid=args.grid,
        dim=dim,
    )
    if args.format == "json":
        _emit_json(args.out, result.to_json_dict(), meta)
    else:
        header, columns = result.csv_header_columns()
        _emit_csv(args.out, header, columns, meta)
    if result.failed:
        print(
            "warning: integration diagnostics failed (min eigenvalue %.3g)"
            % result.min_eigenvalue,
            file=sys.stderr,
        )
    return 0


def cmd_traject(args) -> int:
    params = _load_params(args.config)
    th0 = float(channel_coefficients(params)[0])
    t_final = args.t_final
    if t_final is None:
        if th0 <= 0:
            raise ValueError(
                "--t-final is required when the thermal rate is zero"
            )
        t_final = 50.0 / th0
    window = t_final / 200.0 if args.window is None else args.window
    stats, trajs = ensemble(
        params,
        args.n0,
        t_final,
        args.count,
        args.seed,
        n_cap=args.n_cap,
        backend=args.backend,
        return_trajectories=True,
    )
    prefix = args.out or "traject"
    meta = _meta(
        "traject",
        params,
        n0=args.n0,
        t_final_s=t_final,
        count=args.count,
        seed_base=args.seed,
        window_s=window,
    )
    stats_path = prefix + "_stats.json"
    stats.write_json(stats_path, meta=meta)
    written = [stats_path]
    for i, traj in enumerate(trajs):
        tag = "%s_%03d" % (prefix, i)
        write_events_csv(traj, tag + "_events.csv", meta={**meta, "seed": traj.seed})
        write_staircase_csv(
            traj, tag + "_staircase.csv", window, meta={**meta, "seed": traj.seed}
        )
        written.extend([tag + "_events.csv", tag + "_staircase.csv"])
    print(
        "wrote %d files; %d events over %d trajectories, mean occupation %.6g"
        % (
            len(written),
            int(stats.counts.sum()),
            stats.n_trajectories,
            stats.mean_occupation(),
        )
    )
    return 0


def _parse_grid(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "list":
        if rest.strip() == "":
            return []
        return list(map(_number("grid value"), rest.split(",")))
    parts = rest.split(":")
    if kind in ("linear", "log") and len(parts) == 3:
        endpoint = _number("%s grid endpoint" % kind, positive=kind == "log")
        lo, hi, num = endpoint(parts[0]), endpoint(parts[1]), int(parts[2])
        if kind == "linear":
            return [float(v) for v in np.linspace(lo, hi, num)]
        return [float(v) for v in np.geomspace(lo, hi, num)]
    raise ValueError(
        "grid must be 'log:lo:hi:num', 'linear:lo:hi:num' or 'list:v1,v2,...'"
    )


SWEEP_COLUMNS = (
    "gamma_meas_hz",
    "gamma_th0_hz",
    "gamma_1_hz",
    "gamma_2_hz",
    "gamma_1_closed_hz",
    "gamma_2_closed_hz",
    "gamma_meas_over_gamma_th0",
    "n_max",
    "n_max_floor",
    "linear_limit_margin",
    "sideband_margin",
)


def cmd_sweep(args) -> int:
    base = _load_json(args.config)
    if args.axis not in CONFIG_KEYS:
        raise ValueError(
            "unknown sweep axis '%s' (valid keys: %s)"
            % (args.axis, ", ".join(CONFIG_KEYS))
        )
    # checked once, even when the grid is empty; the manifest keeps the raw
    # values
    checked = read_config(
        base, CONFIG_KEYS, [k for k in REQUIRED_KEYS if k != args.axis]
    )
    grid = _parse_grid(args.grid)
    header = (
        [args.axis]
        + list(SWEEP_COLUMNS)
        + ["check_" + name for name in CHECK_NAMES]
        + ["ok"]
    )
    rows = []
    for value in grid:
        params = SystemParams.from_frequencies(**{**checked, args.axis: value})
        gs = ground_state_rates(params)
        report = feasibility(params, args.n, dominance=args.dominance)
        gamma_meas = measurement_rate(params)
        row = [
            value,
            gamma_meas / TWO_PI,
            gs.gamma_th0 / TWO_PI,
            gs.gamma_1 / TWO_PI,
            gs.gamma_2 / TWO_PI,
            gs.gamma_1_closed / TWO_PI,
            gs.gamma_2_closed / TWO_PI,
            report.ratios["meas_over_thermal"],
            report.n_max,
            -1 if report.n_max_floor is None else report.n_max_floor,
            report.ratios["linear_limit"],
            report.ratios["sideband_resolution"],
        ]
        row += [report.checks[name] for name in CHECK_NAMES]
        row.append(report.ok)
        rows.append(row)
    meta = _meta(
        "sweep",
        axis=args.axis,
        grid=args.grid,
        n=args.n,
        dominance=args.dominance,
        **{"cfg_" + key: val for key, val in base.items()},
    )
    _emit_csv(args.out, header, list(zip(*rows)), meta)
    return 0


TWOMODE_KEYS = (
    "omega_0_hz",
    "nu_hz",
    "kappa_hz",
    "delta_hz",
    "G1_a1_hz_per_m",
    "G1_a2_hz_per_m",
    "G2_a1_hz_per_m2",
    "G2_a2_hz_per_m2",
    "nbar_1",
)


def _load_twomode(path: str) -> tuple:
    raw = _load_json(path)
    data = read_config(raw, TWOMODE_KEYS, ("omega_0_hz", "nu_hz"))
    # the reports need degenerate modes, so one frequency serves both
    omega_0 = data["omega_0_hz"] * TWO_PI
    p = TwoModeParams(
        omega_1=omega_0,
        omega_2=omega_0,
        nu=data["nu_hz"] * TWO_PI,
        G1_a1=data.get("G1_a1_hz_per_m", 0.0) * TWO_PI,
        G1_a2=data.get("G1_a2_hz_per_m", 0.0) * TWO_PI,
        G2_a1=data.get("G2_a1_hz_per_m2", 0.0) * TWO_PI,
        G2_a2=data.get("G2_a2_hz_per_m2", 0.0) * TWO_PI,
        kappa=data.get("kappa_hz", 0.0) * TWO_PI,
        delta=data.get("delta_hz", 0.0) * TWO_PI,
    )
    return p, raw.get("nbar_1")  # as written, so the report echoes it


def cmd_twomode(args) -> int:
    p, nbar_1 = _load_twomode(args.config)
    meta = _meta("twomode", config=args.config)
    if args.format == "csv":
        if not args.x_grid:
            raise ValueError("csv output needs --x-grid for the branch sweep")
        grid = _parse_grid(args.x_grid)
        rows = []
        for x in grid:
            w_plus, w_minus = mim_frequencies(p, x)
            rows.append([x, w_plus / TWO_PI, w_minus / TWO_PI])
        meta["x_grid"] = args.x_grid
        header = ["x_m", "omega_plus_hz", "omega_minus_hz"]
        _emit_csv(args.out, header, list(zip(*rows)), meta)
        return 0
    obj = {
        "omega_plus_hz": p.omega_plus / TWO_PI,
        "omega_minus_hz": p.omega_minus / TWO_PI,
        "nu_hz": p.nu / TWO_PI,
        "splitting_hz": 2.0 * p.nu / TWO_PI,
    }
    if p.is_mim_form and p.nu > 0:
        eff = mim_effective_g2(p, x_zpf=args.x_zpf)
        obj["G2_prime_hz_per_m2"] = eff.G2_prime / TWO_PI
        if eff.g2 is not None:
            obj["g2_hz"] = eff.g2 / TWO_PI
    if nbar_1 is not None and p.kappa > 0:
        obj["nbar_1"] = nbar_1
        obj["nbar_2"] = backscatter_occupancy(p.nu, p.delta, p.kappa, nbar_1)
        mapping = single_mode_mapping(p.nu, p.kappa, p.delta, nbar_1)
        obj["mapping"] = {
            "regime": mapping.regime,
            "nbar_effective": mapping.nbar_effective,
            "measurement_factor": mapping.measurement_factor,
            "candidates": [list(c) for c in mapping.candidates],
        }
    _emit_json(args.out, obj, meta)
    return 0


def cmd_coupling(args) -> int:
    mode, pert = read_field_csv(args.field)
    others = []
    for path in args.others or []:
        other_mode, _ = read_field_csv(path)
        others.append(other_mode)
    breakdown = g2_coefficient(mode, others, pert)
    classification = classify_symmetry(mode, pert, others)
    obj = {
        "label": mode.label or "mode",
        "frequency_hz": mode.frequency / TWO_PI,
        "G1_hz_per_m": breakdown.g1 / TWO_PI,
        "G2_hz_per_m2": breakdown.total / TWO_PI,
        "G2_self_hz_per_m2": breakdown.self_term / TWO_PI,
        "G2_cross_hz_per_m2": {
            label: value / TWO_PI for label, value in breakdown.cross_terms
        },
        "truncation_estimate_hz_per_m2": breakdown.truncation_estimate / TWO_PI,
        "classification": classification.value,
    }
    if args.x_zpf is not None:
        obj["x_zpf_m"] = args.x_zpf
        obj["g1_hz"] = breakdown.g1 * args.x_zpf / TWO_PI
        obj["g2_hz"] = breakdown.total * args.x_zpf ** 2 / TWO_PI
    meta = _meta("coupling", field=args.field, others=",".join(args.others or []))
    _emit_json(args.out, obj, meta)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qndsim",
        description=(
            "Phonon-number QND measurement toolkit: rates, feasibility, "
            "master-equation evolution, stochastic trajectories, parameter "
            "sweeps, two-mode reductions and coupling coefficients."
        ),
    )
    parser.add_argument(
        "--version", action="version", version="qndsim " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def output_flags(sp, formats=("csv", "json"), default="csv"):
        sp.add_argument("--out", help="output path (stdout when omitted)")
        if formats:
            sp.add_argument("--format", choices=formats, default=default)

    sp = sub.add_parser("rates", help="rate table over n, normalized by the "
                        "ground-state thermal rate")
    sp.add_argument("--config", required=True)
    sp.add_argument("--n-top", type=int, default=10, dest="n_top")
    output_flags(sp)
    sp.set_defaults(handler=cmd_rates)

    sp = sub.add_parser("feasibility", help="QND hierarchy verdict (exit 2 "
                        "when any check fails)")
    sp.add_argument("--config", required=True)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--dominance", type=_number("dominance"), default=10.0)
    output_flags(sp, formats=())
    sp.set_defaults(handler=cmd_feasibility)

    sp = sub.add_parser("evolve", help="integrate the phonon master equation")
    sp.add_argument("--config", required=True)
    sp.add_argument("--initial", required=True,
                    help="'fock:k', 'thermal:nbar' or 'diag:p0,p1,...'")
    sp.add_argument("--t-final", type=_number("t_final", positive=True),
                    required=True, dest="t_final",
                    help="integration horizon, seconds")
    sp.add_argument("--grid", type=int, default=201)
    sp.add_argument("--dim", type=int, default=None)
    output_flags(sp)
    sp.set_defaults(handler=cmd_evolve)

    sp = sub.add_parser("traject", help="stochastic jump trajectories with "
                        "ensemble statistics and staircase exports")
    sp.add_argument("--config", required=True)
    sp.add_argument("--n0", type=int, default=0)
    sp.add_argument("--t-final", type=_number("t_final", positive=True),
                    default=None, dest="t_final",
                    help="seconds; default 50 thermal lifetimes")
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--n-cap", type=int, default=None, dest="n_cap")
    sp.add_argument("--backend", choices=("auto",) + BACKENDS, default=None)
    sp.add_argument("--window", type=_number("window", positive=True), default=None,
                    help="staircase boxcar width, seconds")
    sp.add_argument("--out", help="output file prefix (default 'traject')")
    sp.set_defaults(handler=cmd_traject)

    sp = sub.add_parser("sweep", help="parameter sweep emitting rates and "
                        "feasibility per grid point")
    sp.add_argument("--config", required=True)
    sp.add_argument("--axis", required=True)
    sp.add_argument("--grid", required=True,
                    help="'log:lo:hi:num', 'linear:lo:hi:num' or 'list:v1,v2'")
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--dominance", type=_number("dominance"), default=10.0)
    output_flags(sp, formats=())
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("twomode", help="avoided-crossing branches and "
                        "single-mode mapping for coupled optical modes")
    sp.add_argument("--config", required=True)
    sp.add_argument("--x-grid", default=None, dest="x_grid",
                    help="displacement grid for the csv branch sweep")
    sp.add_argument("--x-zpf", type=_number("x_zpf", positive=True), default=None,
                    dest="x_zpf")
    output_flags(sp)
    sp.set_defaults(handler=cmd_twomode)

    sp = sub.add_parser("coupling", help="perturbative G1/G2 from a sampled "
                        "1D mode field")
    sp.add_argument("--field", required=True, help="field CSV for the target mode")
    sp.add_argument("--others", nargs="*", default=None,
                    help="field CSVs for the cross-term partner modes")
    sp.add_argument("--x-zpf", type=_number("x_zpf", positive=True), default=None,
                    dest="x_zpf")
    output_flags(sp, formats=())
    sp.set_defaults(handler=cmd_coupling)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ValueError, TypeError, KeyError, OSError, RuntimeError,
            ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
