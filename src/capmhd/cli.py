"""Command-line drivers: run, refine, check-energy, dump-mesh.

Exit codes: 0 success (for ``run``: completed and the energy inequality
passed), 1 completed with a failed check, 2 configuration, input or output
error (an unusable output directory, or a phase region that cannot be
meshed at its ``mesh_resolution``, fails before any solve and leaves no
output directory the command made), 3 solver hard failure (with
``failure_state.json`` in the output directory; ``refine`` writes it when
given ``--out``).  A configuration or output error of any command is
reported as one line on stderr, never as a traceback.

All file outputs are written with 12 significant digits and fixed column
and summation order, so identical configurations give byte-identical
artifacts.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import galerkin
from .config import RunConfig
from .energy import EnergyLedger, check_inequality
from .errors import (
    ConfigError,
    IntegrationError,
    MeshQualityError,
    NonConvergenceError,
    NumericsError,
)
from .interface import enclosed_volume, mesh_filename, perimeter, write_mesh
from .varifold import lift, varifold_filename, write_varifold

_SOLVER_ERRORS = (NonConvergenceError, MeshQualityError, NumericsError, IntegrationError)


def _round_floats(obj, digits=12):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _write_json(path, payload):
    with open(str(path), "w") as handle:
        json.dump(_round_floats(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _dump_times(result, cadence):
    """Sub-step times selected for mesh/varifold dumps: t=0, cadence marks, T.

    After a dump at t the next mark is the first multiple of the cadence
    above t + 1e-12, found from t by fmod, which cannot overflow.
    """
    times = [state.t for state in result.states]
    if cadence is None:
        return [times[0], times[-1]] if len(times) > 1 else [times[0]]
    selected = [times[0]]
    next_mark = cadence
    for t in times[1:]:
        if t >= next_mark - 1e-12:
            selected.append(t)
            next_mark = t + 1e-12 - math.fmod(t + 1e-12, cadence) + cadence
    if selected[-1] != times[-1]:
        selected.append(times[-1])
    return selected


def _summarize(result, config, report):
    final = result.final_state
    return {
        "config": config.resolved(),
        "E0": result.E0,
        "tau_E": result.tau_E,
        "pass": report.passed,
        "worst_margin": report.worst_margin,
        "worst_time": report.worst_time,
        "windows": len(result.windows),
        "window_failures": result.window_failures,
        "attempts": result.attempts,
        "delta_initial": result.delta_initial,
        "galerkin_residual_max": float(np.max(result.galerkin_residual())),
        "final": {
            "t": final.t,
            "u_norm": final.u.norm(),
            "B_norm": final.B.norm(),
            "perimeter": perimeter(final.mesh),
            "volume": enclosed_volume(final.mesh),
        },
    }


def _solver_failure(exc, out_dir, **context):
    """Exit code 3 for a solver failure, with ``failure_state.json`` in ``out_dir``.

    ``context`` (such as refine's kmax) joins the error's own diagnostics and
    the message; nothing is written without ``out_dir``, which the command made.
    """
    where = "".join(f" at {key}={value}" for key, value in context.items())
    print(f"solver failure{where}: {exc}", file=sys.stderr)
    if out_dir:
        diagnostics = {**(getattr(exc, "diagnostics", None) or {}), **context}
        _write_json(
            os.path.join(out_dir, "failure_state.json"),
            {"error": type(exc).__name__, "message": str(exc), "diagnostics": diagnostics},
        )
    return 3


def _make_dirs(path):
    """Make directory ``path`` with its missing parents; returns those it
    made, outermost first."""
    missing, head = [], os.path.abspath(path)
    while not os.path.exists(head):
        missing.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    return missing[::-1]


def _remove_dirs(made):
    """Remove the directories ``_make_dirs`` made, innermost first: a refused
    config leaves none behind.  ``rmdir`` removes only an empty one."""
    for path in reversed(made):
        os.rmdir(path)


def cmd_run(config_path, out_dir=None):
    config = RunConfig.from_json(config_path)
    out = out_dir or config.output_dir
    made = _make_dirs(out)
    try:
        result = galerkin.run(config)
    except _SOLVER_ERRORS as exc:
        return _solver_failure(exc, out)
    except ConfigError:
        _remove_dirs(made)
        raise
    report = check_inequality(result.ledger, result.tau_E)
    result.ledger.write_csv(os.path.join(out, "ledger.csv"))
    _write_json(os.path.join(out, "summary.json"), _summarize(result, config, report))
    by_time = {state.t: state for state in result.states}
    for t in _dump_times(result, config.cadence):
        state = by_time[t]
        write_mesh(state.mesh, os.path.join(out, mesh_filename(state.mesh, t)))
        write_varifold(lift(state.mesh), os.path.join(out, varifold_filename(t)))
    status = "pass" if report.passed else "fail"
    print(
        f"run complete: t={result.final_state.t:.6g}, E0={result.E0:.6g}, "
        f"worst margin={report.worst_margin:.6g} at t={report.worst_time:.6g} [{status}]"
    )
    return 0 if report.passed else 1


def cmd_refine(config_path, levels, out_dir=None):
    if levels < 2:
        raise ConfigError(f"refine needs at least 2 levels, got {levels}")
    config = RunConfig.from_json(config_path)
    made = _make_dirs(out_dir) if out_dir else []
    rows = []
    for level in range(levels):
        kmax = config.kmax * 2**level
        data = dict(config.resolved())
        data["kmax"] = kmax
        data["solver"]["quadrature_order"] = None
        try:
            result = galerkin.run(RunConfig.from_dict(data))
        except ConfigError as exc:
            _remove_dirs(made)
            raise ConfigError(f"at kmax={kmax}: {exc}") from exc
        except _SOLVER_ERRORS as exc:
            return _solver_failure(exc, out_dir, kmax=kmax)
        final = result.final_state
        rows.append(
            {
                "kmax": kmax,
                "u_norm": final.u.norm(),
                "B_norm": final.B.norm(),
                "perimeter": perimeter(final.mesh),
                "volume": enclosed_volume(final.mesh),
                "sweeps": result.sweeps,
                "windows": len(result.windows),
                "window_failures": result.window_failures,
            }
        )
    observables = ("u_norm", "B_norm", "perimeter", "volume")
    differences = [
        {
            "from_kmax": rows[i]["kmax"],
            "to_kmax": rows[i + 1]["kmax"],
            **{key: abs(rows[i + 1][key] - rows[i][key]) for key in observables},
        }
        for i in range(len(rows) - 1)
    ]
    report = {"levels": rows, "differences": differences}
    header = f"{'kmax':>6} " + " ".join(f"{k:>14}" for k in observables)
    print(header)
    for row in rows:
        print(f"{row['kmax']:>6} " + " ".join(f"{row[k]:>14.8g}" for k in observables))
    print("successive |differences|:")
    for diff in differences:
        print(
            f"{diff['from_kmax']:>3}->{diff['to_kmax']:<3}"
            + " ".join(f"{diff[k]:>14.4e}" for k in observables)
        )
    if out_dir:
        _write_json(os.path.join(out_dir, "refine_report.json"), report)
    return 0


def cmd_check_energy(ledger_path, e0=None, tol=None):
    try:
        ledger = EnergyLedger.read_csv(ledger_path)
    except (OSError, ValueError) as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return 2
    if tol is None:
        print("check-energy requires --tol", file=sys.stderr)
        return 2
    if not np.isfinite(tol) or (e0 is not None and not np.isfinite(e0)):
        print("check-energy requires a finite --tol and --e0", file=sys.stderr)
        return 2
    if e0 is not None:
        ledger.E0 = float(e0)
    report = check_inequality(ledger, float(tol))
    if report.passed:
        print(
            f"energy inequality holds: worst margin {report.worst_margin:.6g} "
            f"at t={report.worst_time:.6g} (tau={report.tau_E:.6g})"
        )
        return 0
    first = report.failed_times[0]
    print(
        f"energy inequality violated at t={first:.6g}: worst margin "
        f"{report.worst_margin:.6g} exceeds tau={report.tau_E:.6g}",
        file=sys.stderr,
    )
    return 1


def cmd_dump_mesh(config_path, out_dir=None):
    config = RunConfig.from_json(config_path)
    mesh = config.build()[0].mesh
    out = out_dir or config.output_dir
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, mesh_filename(mesh, 0.0))
    write_mesh(mesh, path)
    print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="capmhd",
        description="Two-phase MHD spectral Galerkin solver with interface tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configuration and write artifacts")
    p_run.add_argument("--config", required=True, help="path to the run config JSON")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_ref = sub.add_parser("refine", help="re-run at doubled kmax and compare observables")
    p_ref.add_argument("--config", required=True)
    p_ref.add_argument("--levels", type=int, default=2)
    p_ref.add_argument("--out", default=None)

    p_chk = sub.add_parser("check-energy", help="re-verify a ledger CSV")
    p_chk.add_argument("--ledger", required=True, help="path to ledger.csv")
    p_chk.add_argument("--e0", type=float, default=None, help="override E0 (default: CSV column)")
    p_chk.add_argument("--tol", type=float, default=None, help="inequality allowance tau_E")

    p_dump = sub.add_parser("dump-mesh", help="write the initial interface mesh")
    p_dump.add_argument("--config", required=True)
    p_dump.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "refine":
            return cmd_refine(args.config, args.levels, args.out)
        if args.command == "check-energy":
            return cmd_check_energy(args.ledger, args.e0, args.tol)
        if args.command == "dump-mesh":
            return cmd_dump_mesh(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
