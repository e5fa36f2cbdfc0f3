"""Command line interface: solve, sweep-l, sweep-b, calibrate, fit-powerlaw.

Exit codes: 0 success, 2 configuration error, 3 solver error, 4 fit or
calibration failure. All CSV output uses fixed six-decimal formatting and
a fixed row order so repeated runs are byte identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from functools import cache

from . import config as cfg
from . import errors, fitting, molecular, spectroscopy, svgplot
from .core import FieldPoint

# the shells with n_x + n_y <= 2, whose levels levels_vs_L.csv lists
LOW_SHELLS = {molecular.shell_name(nx, ny)
              for nx in range(3) for ny in range(3 - nx)}
LINES_HEADER = "B_T,line_low_meV,line_high_meV,gap_meV"


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _lines_row(point: spectroscopy.SolvePoint) -> tuple[str, ...]:
    """One LINES_HEADER row: the field, both emission lines and the gap."""
    low, high = point.lines
    return (_fmt(point.b), _fmt(low.energy), _fmt(high.energy),
            _fmt(point.gap))


def _printed_apart(values, key: str, unit: str) -> None:
    """Reject ascending neighbours within 2e-6 that print alike."""
    for a, b in zip(values, values[1:]):
        if 0 < b - a < 2e-6 and _fmt(a) == _fmt(b):
            raise errors.ConfigError(
                f"{key} {a!r} and {b!r} {unit} both print as {_fmt(a)}")


def _load_config(args) -> cfg.RunConfig:
    if args.config is None:
        return cfg.RunConfig()
    return cfg.parse_config(args.config)


def _read_two_column(path, what, header):
    """The two-field rows of a CSV file, without blank and # lines and
    without a first row that is exactly the header."""
    rows = []
    with open(path) as fh:
        for n, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise errors.ConfigError(
                    f"{what} line {n}: expected two comma-separated fields, "
                    f"got {line!r}")
            rows.append(parts)
    return rows[1:] if rows[:1] == [list(header)] else rows


def cmd_solve(args) -> int:
    run = _load_config(args)
    point = spectroscopy.solve_point(run.device, FieldPoint(args.b),
                                     run.options, run.electron, run.hole)
    os.makedirs(args.out, exist_ok=True)
    for name, spec in (("levels_electron.csv", point.electron),
                       ("levels_hole.csv", point.hole)):
        _write_csv(os.path.join(args.out, name),
                   "B_T,level_index,label,energy_meV",
                   [(_fmt(spec.b), str(k), label, _fmt(energy))
                    for k, (label, energy)
                    in enumerate(zip(spec.labels, spec.energies))])
    _write_csv(os.path.join(args.out, "lines.csv"), LINES_HEADER,
               [_lines_row(point)])
    print(f"L={run.device.barrier_l} nm, B={point.b} T: "
          f"gap {point.gap:.4f} meV")
    return 0


def cmd_sweep_l(args) -> int:
    run = _load_config(args)
    _printed_apart(run.l_values, "l_values", "nm")
    curve, points = spectroscopy.sweep_l(run.device, run.l_values,
                                         run.options, run.electron, run.hole)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "gap_vs_L.csv"), "L_nm,gap_meV",
               [(_fmt(l), _fmt(g)) for l, g in curve.samples])
    level_rows = []
    for point in points:
        spec = point.electron
        for label, energy in zip(spec.labels, spec.energies):
            if label.partition(":")[2] in LOW_SHELLS:
                level_rows.append((_fmt(point.barrier_l), label,
                                   _fmt(energy)))
    _write_csv(os.path.join(args.out, "levels_vs_L.csv"),
               "L_nm,label,energy_meV", level_rows)
    if args.svg:
        svgplot.write_line_plot(
            os.path.join(args.out, "gap_vs_L.svg"),
            [("gap", list(curve.xs()), list(curve.gaps()))],
            title="s-shell emission gap vs interdot distance",
            xlabel="L (nm)", ylabel="gap (meV)")
    print(f"swept {len(points)} distances; "
          f"gap {curve.gaps()[0]:.3f} -> {curve.gaps()[-1]:.3f} meV")
    return 0


def cmd_sweep_b(args) -> int:
    run = _load_config(args)
    _printed_apart(run.b_values, "b_values", "T")
    curve, points = spectroscopy.sweep_b(run.device, run.b_values,
                                         run.options, run.electron, run.hole)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "lines_vs_B.csv"), LINES_HEADER,
               [_lines_row(p) for p in points])
    if args.svg:
        svgplot.write_line_plot(
            os.path.join(args.out, "lines_vs_B.svg"),
            [("low line", [p.b for p in points],
              [p.lines[0].energy for p in points]),
             ("high line", [p.b for p in points],
              [p.lines[1].energy for p in points])],
            title=f"emission lines vs field at L={run.device.barrier_l} nm",
            xlabel="B (T)", ylabel="energy (meV)")
    print(f"swept {len(points)} fields; gap change "
          f"{curve.gaps()[-1] - curve.gaps()[0]:+.4f} meV")
    return 0


def cmd_calibrate(args) -> int:
    run = _load_config(args)
    rows = _read_two_column(args.targets, "targets file",
                            ("quantity", "value"))
    known = {f.name for f in dataclasses.fields(fitting.CalibrationTarget)}
    kwargs = {}
    for key, value in rows:
        if key not in known:
            raise errors.ConfigError(f"unknown target quantity {key!r}")
        if key in kwargs:
            raise errors.ConfigError(f"target quantity {key!r} is repeated")
        try:
            kwargs[key] = float(value)
        except ValueError:
            raise errors.ConfigError(f"target {key}: {value!r} is not a number")
    if "emission_low" not in kwargs or "emission_high" not in kwargs:
        raise errors.ConfigError(
            "targets file must provide emission_low and emission_high")
    try:
        target = fitting.CalibrationTarget(**kwargs)
    except ValueError as exc:
        raise errors.ConfigError(str(exc))
    result = fitting.calibrate_depths(target, run.device, run.electron,
                                      run.hole, run.options)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "calibration.csv"),
               "quantity,value_meV",
               [(f.name, _fmt(getattr(result, f.name)))
                for f in dataclasses.fields(result)])
    print(f"depths: e=({result.depth_e_dot1:.3f}, {result.depth_e_dot2:.3f}) "
          f"h=({result.depth_h_dot1:.3f}, {result.depth_h_dot2:.3f}) meV; "
          f"residuals ({result.residual_low:.2e}, {result.residual_high:.2e})")
    return 0


def cmd_fit_powerlaw(args) -> int:
    rows = _read_two_column(args.points, "points file",
                            ("L_nm", "gap_meV"))
    points = []
    for key, value in rows:
        try:
            points.append((float(key), float(value)))
        except ValueError:
            raise errors.ConfigError(
                f"points file row ({key}, {value}) is not numeric")
    params, residuals = fitting.fit_powerlaw(points)
    rms = float((residuals ** 2).mean() ** 0.5)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "powerlaw.csv"), "quantity,value",
               [("amplitude_A_meV_nm3", _fmt(params.amplitude_a)),
                ("offset_delta_nm", _fmt(params.offset_delta)),
                ("offset_C_meV", _fmt(params.offset_c)),
                ("residual_rms_meV", f"{rms:.9f}"),
                ("residual_max_meV", f"{float(abs(residuals).max()):.9f}")])
    print(f"gap(L) = {params.amplitude_a:.1f} / (L + "
          f"{params.offset_delta:.3f})^3 + {params.offset_c:.3f}   "
          f"(rms residual {rms:.2e} meV)")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process and shared by every
    main call: parse_args leaves it unchanged. Building it takes about
    0.4 ms and 227 garbage-collected objects, which in a loop of in-process
    main calls would pace the collector's full passes."""
    parser = argparse.ArgumentParser(
        prog="dqdsim",
        description="Double quantum dot spectra in a transverse field")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, svg=False):
        p.add_argument("--config", help="INI config file (defaults built in)")
        p.add_argument("--out", default=".", help="output directory")
        if svg:
            p.add_argument("--svg", action="store_true",
                           help="also write SVG plots")

    p = sub.add_parser("solve", help="level tables at one (L, B) point")
    common(p)
    p.add_argument("--b", type=float, default=0.0, help="field in tesla")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep-l", help="gap curve against interdot distance")
    common(p, svg=True)
    p.set_defaults(func=cmd_sweep_l)

    p = sub.add_parser("sweep-b", help="emission lines against field")
    common(p, svg=True)
    p.set_defaults(func=cmd_sweep_b)

    p = sub.add_parser("calibrate", help="well depths from emission targets")
    common(p)
    p.add_argument("targets", help="CSV of quantity,value rows")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("fit-powerlaw", help="fit the 1/L^3 gap law")
    common(p)
    p.add_argument("points", help="CSV of L_nm,gap_meV rows")
    p.set_defaults(func=cmd_fit_powerlaw)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "b") and not (math.isfinite(args.b)
                                       and args.b >= 0):
            raise errors.ConfigError(
                f"field --b must be finite and >= 0, got {args.b}")
        return args.func(args)
    except errors.DqdError as exc:
        print(f"error ({exc.module}): {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error (config): {exc}", file=sys.stderr)
        return errors.ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
