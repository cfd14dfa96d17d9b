"""Synthesis and pairing micro-benchmarks, and alternating benchmark pairs.

    python3 tools/bench_synthesis.py --out BENCH_13.json
    python3 tools/bench_synthesis.py --out BENCH_13.json --baseline ../parent --pairs 10

The first form times the table forms of ``tests/reference.py`` against the
solver's forms on fixed random inputs.  Off the grid: the m x n trig-table
synthesis against the basis lattice, field values for four (dimension, kmax,
m) cases, and the curvature pairing against every mode on the level-3
icosphere (1280 triangles).  On the grid, at the default quadrature order
for four (dimension, kmax) cases: the trig tables from sin and cos of every
phase angle against a fresh ``basis.quadrature(order)``'s ``values`` and
``derivatives``, gathered from a new lattice's waves, with the tracemalloc
peak of each build and the lattice's own set-up time; and the (m, n)
product-table convection and strain pairings against the node-tensor
moments.  Around the solver: the all-pairs crossing scan of the 256-gon
against the broad phase of ``interface.check_simple``, and the row-at-a-time
artifact writers against the one-pass ``format_rows`` ones, for the
256-gon's polyline, its varifold and a 121-row ledger, each written to a
temporary directory and compared byte for byte.  Each time is the median of 20 calls, with one BLAS
thread; ``new_ms`` is the solver's form.

With ``--baseline DIR`` (another checkout of the repository) it also runs
``bench/run.py --trace 0`` on each workload ``--pairs`` times on both sides,
alternating which side runs first.  It records every invocation's end-to-end
metrics (each the median over its operations), and for ``run_s`` the medians
over invocations, the baseline's interquartile range and the number of pairs
this checkout wins.  One ``--trace 1`` invocation per side and workload adds
the traced totals of Picard sweeps, accepted windows and window attempts,
and of the window indicator: its history point-steps, the time of its
history and in-window back-traces, and the origins tested against the
initial region.  It also records a sweep table: ``galerkin.run`` of each
``SWEEP_CONFIGS`` entry in a fresh interpreter on each side, with every
window attempt's start, sweeps and first residual, the largest ratio of
consecutive residuals r_k / r_{k-1} within one attempt, the run's ``apply_N``
and ``viscous_dissipation_rate`` calls (the latter one per ledger row when
each node's rate is computed once), indicator traces, the window
indicator's RK4 point-steps through the history and through the window,
its history legs, and the points its traces carried to the window start
that the window-start mesh decided rather than the history, the number of
windows that took more sweeps than on the baseline, and the largest
absolute difference between the two sides' ledger entries.
Without it, pairs and the sweep table already in the output file are kept.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from capmhd import basis as cb  # noqa: E402
from capmhd import energy as ce  # noqa: E402
from capmhd import interface as ci  # noqa: E402
from capmhd import varifold as cv  # noqa: E402

import reference as ref  # noqa: E402

REPEATS = 20

# (dimension, kmax, number of points)
VALUE_CASES = [(2, 8, 1024), (3, 2, 1280), (3, 4, 1280), (2, 2, 256)]

# (dimension, kmax), each on its default quadrature grid
PAIRING_CASES = [(2, 2), (2, 8), (3, 2), (3, 4)]


def median_ms(call):
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def peak_mb(call):
    """The tracemalloc peak of one call, in MB (10^6 bytes)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def compare(name, table, new, **case):
    want, got = table(), new()
    return {
        "case": name,
        **case,
        "table_ms": round(median_ms(table), 4),
        "new_ms": round(median_ms(new), 4),
        "max_abs_diff": float(np.max(np.abs(got - want))),
    }


def synthesis_cases():
    rng = np.random.default_rng(7)
    rows = []
    for dimension, kmax, m in VALUE_CASES:
        basis = cb.make_basis(dimension, kmax)
        coefficients = rng.standard_normal(len(basis))
        points = rng.uniform(0.0, 2 * np.pi, (m, dimension))
        rows.append(compare(
            "synthesize",
            lambda: ref.synthesize(basis, coefficients, points),
            lambda: basis.synthesize(coefficients, points),
            dimension=dimension, kmax=kmax, m=m, n=len(basis),
        ))
    basis = cb.make_basis(3, 2)
    mesh = ci.mesh_initial(ci.ball((np.pi,) * 3, 1.0), 3)
    rows.append(compare(
        "curvature_pairing_modes",
        lambda: ref.curvature_pairing_modes(mesh, basis),
        lambda: ci.curvature_pairing_modes(mesh, basis),
        dimension=3, kmax=2, m=len(mesh.elements), n=len(basis),
    ))
    return rows


def table_case(basis, order, **case):
    """Both trig tables of one grid: the direct ones against a fresh quadrature's."""

    def direct():
        quad = ref.Quadrature(basis, order)
        return quad.values, quad.derivatives

    def fresh():
        # drop the basis's lattice and grids: the build RunConfig.build() makes
        vars(basis).pop("lattice", None)
        basis._quadratures.clear()
        quad = basis.quadrature(order)
        return quad.values, quad.derivatives

    want, got = direct(), fresh()
    return {
        "case": "tables",
        **case,
        "table_ms": round(median_ms(direct), 4),
        "new_ms": round(median_ms(fresh), 4),
        "lattice_ms": round(median_ms(lambda: cb.Lattice(basis)), 4),
        "table_peak_mb": round(peak_mb(direct), 3),
        "new_peak_mb": round(peak_mb(fresh), 3),
        "max_abs_diff": max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)),
    }


def pairing_cases():
    rng = np.random.default_rng(8)
    rows = []
    for dimension, kmax in PAIRING_CASES:
        basis = cb.make_basis(dimension, kmax)
        order = cb.default_quadrature_order(kmax)
        case = dict(dimension=dimension, kmax=kmax, m=order**dimension, n=len(basis))
        rows.append(table_case(basis, order, **case))
        quad, direct = basis.quadrature(order), ref.Quadrature(basis, order)
        m = len(quad.points)
        quad.derivatives  # built once per grid, outside the timed calls
        a, b = rng.standard_normal((2, m, dimension))
        grads = rng.standard_normal((m, dimension, dimension))
        du = 0.5 * (grads + np.swapaxes(grads, 1, 2))
        nu = rng.uniform(0.1, 0.2, m)
        rows.append(compare(
            "convection_pairing",
            lambda: ref.convection_pairing(a, b, direct),
            lambda: cb.convection_pairing(a, b, quad),
            **case,
        ))
        rows.append(compare(
            "strain_pairing",
            lambda: ref.strain_pairing(du, nu, direct),
            lambda: cb.strain_pairing(du, nu, quad),
            **case,
        ))
    return rows


def check_and_writer_cases():
    mesh = ci.mesh_initial(ci.disk((np.pi, np.pi), 1.0), 256)
    rows = [{
        "case": "check_simple",
        "m": len(mesh.elements),
        "table_ms": round(median_ms(lambda: ref.check_simple(mesh)), 4),
        "new_ms": round(median_ms(lambda: ci.check_simple(mesh)), 4),
        "same_result": ref.check_simple(mesh) is ci.check_simple(mesh) is mesh,
    }]
    rng = np.random.default_rng(9)
    ledger = ce.EnergyLedger(E0=2.0)
    for t in np.linspace(0.0, 1.5, 121):
        ledger.append(t, *rng.uniform(0.0, 1.0, 3), t, 0.5 * t)
    varifold = cv.lift(mesh)
    writers = [
        ("write_mesh", len(mesh.vertices), ref.write_mesh, ci.write_mesh, mesh),
        ("write_varifold", len(varifold.w), ref.write_varifold, cv.write_varifold, varifold),
        ("write_csv", len(ledger), ref.write_ledger, ce.EnergyLedger.write_csv, ledger),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        old, new = Path(tmp) / "old", Path(tmp) / "new"
        for name, m, per_row, one_pass, item in writers:
            rows.append({
                "case": name,
                "m": m,
                "table_ms": round(median_ms(lambda: per_row(item, old)), 4),
                "new_ms": round(median_ms(lambda: one_pass(item, new)), 4),
                "same_result": old.read_bytes() == new.read_bytes(),
            })
    return rows


# Totals of one traced run: counts, the same on every run of a workload, and
# the indicator's trace times.
TRACED = (
    "galerkin.sweeps",
    "galerkin.windows",
    "galerkin.window_attempts",
    "flowmap.history_point_steps",
    "flowmap.history_trace_s",
    "flowmap.window_trace_s",
    "interface.contains_points",
)


# The sweep table's runs: (name, base config file, overrides).
REFERENCE = "configs/reference_2d.json"
SWEEP_CONFIGS = [
    ("reference kmax=2", REFERENCE, {}),
    ("reference kmax=4", REFERENCE, {"kmax": 4}),
    ("reference kmax=8", REFERENCE, {"kmax": 8}),
    ("reference T=2", REFERENCE, {"T": 2.0}),
    ("ref2d-long", "bench/workloads/ref2d-long.json", {}),
    ("ellipse (1.2, 0.8) T=1.5", REFERENCE, {
        "T": 1.5,
        "phase": {"shape": "ellipse", "center": [np.pi, np.pi], "radii": [1.2, 0.8]},
    }),
    ("single-phase T=1.5", REFERENCE, {"T": 1.5, "nu_minus": 0.2}),
    ("ball3d", "bench/workloads/ball3d.json", {}),
]

# One run in the checkout whose src is on sys.path; prints its apply_N and
# viscous_dissipation_rate calls, the window indicator's RK4 point-steps
# (points times steps) through the history and through the window, its
# history legs, the points it carried to the window start and the points it
# sent on through the history, its window attempts and its ledger rows.
# A history leg is told from a window leg as bench/layers.py tells it: by its
# sampler being the ``history`` that fixed_point_window received.  A window
# leg that runs backward to the window start carries a trace's points there.
_SWEEP_RUN = """
import json, sys
from capmhd import flowmap, galerkin
from capmhd.config import RunConfig
real_n, real_rate, real_window, real_trace = (
    galerkin.apply_N, galerkin.viscous_dissipation_rate, galerkin.fixed_point_window,
    galerkin.integrate_positions,
)
calls, rates, steps, window = [], [], {"history": 0, "window": 0}, {}
legs = {"history_legs": 0, "carried": 0, "sent": 0}

def counted(*args, **kwargs):
    calls.append(1)
    return real_n(*args, **kwargs)

def rated(*args, **kwargs):
    rates.append(1)
    return real_rate(*args, **kwargs)

def windowed(previous, *args, **kwargs):
    window["history"] = kwargs.get("history")
    window["start"] = previous.states[-1].t
    return real_window(previous, *args, **kwargs)

def traced(positions, sampler, t0, t1, h):
    leg = "history" if sampler is window["history"] else "window"
    steps[leg] += len(positions) * len(flowmap.step_sizes(t0, t1, h))
    if leg == "history":
        legs["history_legs"] += 1
        legs["sent"] += len(positions)
    elif t1 < t0 and t1 == window["start"]:
        legs["carried"] += len(positions)
    return real_trace(positions, sampler, t0, t1, h)

galerkin.apply_N = counted
galerkin.viscous_dissipation_rate = rated
galerkin.fixed_point_window = windowed
galerkin.integrate_positions = traced
result = galerkin.run(RunConfig.from_dict(json.loads(sys.argv[1])))
print(json.dumps({"apply_N_calls": len(calls), "rate_calls": len(rates),
                  "history_point_steps": steps["history"],
                  "window_leg_point_steps": steps["window"],
                  "history_legs": legs["history_legs"],
                  "mesh_decided_points": legs["carried"] - legs["sent"],
                  "ledger": result.ledger.rows, "attempts": [
    {"start": a.get("start"), "sweeps": a["sweeps"], "accepted": a["accepted"],
     "residual_history": a["residual_history"], "indicator_traces": a["indicator_traces"]}
    for a in result.attempts
]}))
"""


def largest_contraction(attempts):
    """The largest ratio r_k / r_{k-1} of consecutive residuals in one attempt."""
    ratios = [
        later / earlier
        for a in attempts
        for earlier, later in zip(a["residual_history"], a["residual_history"][1:])
    ]
    return max(ratios, default=None)


def sweep_run(checkout, data):
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    out = subprocess.run([sys.executable, "-c", _SWEEP_RUN, json.dumps(data)],
                         cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def sweep_table(baseline):
    rows = []
    for name, path, overrides in SWEEP_CONFIGS:
        data = dict(json.loads((ROOT / path).read_text()), **overrides)
        row = {"config": name, "file": path, "overrides": overrides}
        ledgers = {}
        for side, checkout in (("baseline", baseline), ("change", ROOT)):
            out = sweep_run(checkout, data)
            attempts = out["attempts"]
            ledgers[side] = np.array(out["ledger"])
            row[side] = {
                "sweeps": sum(a["sweeps"] for a in attempts),
                "apply_N_calls": out["apply_N_calls"],
                "rate_calls": out["rate_calls"],
                "ledger_rows": len(out["ledger"]),
                "history_point_steps": out["history_point_steps"],
                "window_leg_point_steps": out["window_leg_point_steps"],
                "history_legs": out["history_legs"],
                "mesh_decided_points": out["mesh_decided_points"],
                "indicator_traces": sum(a["indicator_traces"] for a in attempts),
                "window_sweeps": [a["sweeps"] for a in attempts],
                "first_residuals": [
                    a["residual_history"][0] if a["residual_history"] else None
                    for a in attempts
                ],
                "largest_contraction": largest_contraction(attempts),
                "starts": [a["start"] for a in attempts],
                "failures": sum(not a["accepted"] for a in attempts),
            }
        base, change = row["baseline"]["window_sweeps"], row["change"]["window_sweeps"]
        # a window-by-window count needs the same windows on both sides
        row["windows_with_more_sweeps"] = (
            sum(c > b for b, c in zip(base, change)) if len(base) == len(change) else None
        )
        # and a row-by-row ledger difference the same sub-steps
        row["largest_ledger_difference"] = (
            float(np.max(np.abs(ledgers["change"] - ledgers["baseline"])))
            if ledgers["change"].shape == ledgers["baseline"].shape else None
        )
        rows.append(row)
    return rows


def bench_metrics(checkout, workload, seconds, trace=0):
    """Metric values of one ``bench/run.py`` invocation: end to end, or per layer."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    if summary["failed"] or not summary["correct"]:
        raise RuntimeError(f"bench/run.py failed in {checkout}: {summary}")
    return {name: metric["value"] for name, metric in summary["metrics"].items()}


def pairs(baseline, workloads, count, seconds):
    out = {}
    for workload in workloads:
        runs = {"baseline": [], "change": []}
        for i in range(count):
            order = [("baseline", baseline), ("change", ROOT)]
            for side, checkout in order[:: 1 if i % 2 == 0 else -1]:
                runs[side].append(bench_metrics(checkout, workload, seconds))
        row = {"seconds_per_invocation": seconds}
        for side, samples in runs.items():
            for name in samples[0]:
                row[f"{side}_{name}"] = [sample[name] for sample in samples]
        for side, checkout in (("baseline", baseline), ("change", ROOT)):
            # the shortest traced invocation: one plain and one traced operation
            layers = bench_metrics(checkout, workload, 1.0, trace=1)
            for name in TRACED:
                row[f"{side}_{name}"] = layers[name]
        base, change = row["baseline_run_s"], row["change_run_s"]
        quartiles = statistics.quantiles(base, n=4, method="inclusive")
        row.update({
            "baseline_run_s_median": statistics.median(base),
            "change_run_s_median": statistics.median(change),
            "baseline_run_s_iqr": quartiles[2] - quartiles[0],
            "change_wins": sum(c < b for b, c in zip(base, change)),
        })
        out[workload] = row
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--baseline", type=Path, help="checkout to compare bench/run.py against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", nargs="+", default=["ball3d", "ref2d-long"])
    args = parser.parse_args(argv)

    previous = json.loads(args.out.read_text()) if args.out.exists() else {}
    result = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": 1},
        "repeats": REPEATS,
        "synthesis": synthesis_cases(),
        "pairings": pairing_cases(),
        "checks_and_writers": check_and_writer_cases(),
    }
    if args.baseline is not None:
        result["sweep_table"] = sweep_table(args.baseline)
        result["bench_run_pairs"] = pairs(args.baseline, args.workloads, args.pairs, args.seconds)
    else:
        for key in ("sweep_table", "bench_run_pairs"):
            if key in previous:
                result[key] = previous[key]
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for row in result["synthesis"] + result["pairings"]:
        print(f"{row['case']} d={row['dimension']} kmax={row['kmax']} m={row['m']}: "
              f"{row['table_ms']:.3f} ms -> {row['new_ms']:.3f} ms "
              f"(max abs diff {row['max_abs_diff']:.2g})")
        if row["case"] == "tables":
            print(f"  peak {row['table_peak_mb']:.2f} MB -> {row['new_peak_mb']:.2f} MB, "
                  f"lattice set-up {row['lattice_ms']:.3f} ms")
    for row in result["checks_and_writers"]:
        print(f"{row['case']} m={row['m']}: {row['table_ms']:.3f} ms -> {row['new_ms']:.3f} ms "
              f"(same result: {row['same_result']})")
    for row in result.get("sweep_table", []):
        base, change = row["baseline"], row["change"]
        print(f"{row['config']}: sweeps {base['sweeps']} -> {change['sweeps']}, "
              f"apply_N calls {base.get('apply_N_calls')} -> {change.get('apply_N_calls')}, "
              f"rate calls {base.get('rate_calls')} -> {change.get('rate_calls')} "
              f"({change.get('ledger_rows')} ledger rows), "
              f"indicator traces {base.get('indicator_traces')} -> "
              f"{change.get('indicator_traces')}, history point-steps "
              f"{base.get('history_point_steps')} -> {change.get('history_point_steps')} "
              f"in {base.get('history_legs')} -> {change.get('history_legs')} legs, "
              f"carried points decided by the mesh {base.get('mesh_decided_points')} -> "
              f"{change.get('mesh_decided_points')}, "
              f"window-leg point-steps {base.get('window_leg_point_steps')} -> "
              f"{change.get('window_leg_point_steps')}, "
              f"largest contraction {base.get('largest_contraction')} -> "
              f"{change.get('largest_contraction')}, "
              f"windows with more sweeps {row['windows_with_more_sweeps']}, "
              f"largest ledger difference {row.get('largest_ledger_difference')}")
    for workload, row in result.get("bench_run_pairs", {}).items():
        print(f"{workload}: run_s {row['baseline_run_s_median']:.3f} -> "
              f"{row['change_run_s_median']:.3f} s, "
              f"wins {row['change_wins']}/{len(row['change_run_s'])}, sweeps "
              f"{row.get('baseline_galerkin.sweeps')} -> {row.get('change_galerkin.sweeps')}, "
              f"history point-steps {row.get('baseline_flowmap.history_point_steps')} -> "
              f"{row.get('change_flowmap.history_point_steps')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
