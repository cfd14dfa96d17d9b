"""Alternating benchmark pairs and a sweep table against another checkout.

    python3 tools/bench_synthesis.py --out BENCH_26.json --baseline ../parent --pairs 10

It runs ``bench/run.py --trace 0`` on each workload ``--pairs`` times on both
sides, this checkout and ``--baseline``, alternating which side runs first.
It records every invocation's end-to-end metrics (each the median over its
operations), and for ``run_s`` the medians over invocations, the baseline's
interquartile range and the number of pairs this checkout wins.  One
``--trace 1`` invocation per side and workload adds the traced totals of
Picard sweeps, accepted windows and window attempts, and of the window
indicator: its history point-steps, the time of its history and in-window
back-traces, and the origins tested against the initial region.

It also records a sweep table: ``galerkin.run`` of each ``SWEEP_CONFIGS``
entry in a fresh interpreter on each side, with nothing patched, read from
the run's own window attempts.  The sides alternate which runs first from
one config to the next.  For each side: the run's wall seconds (the only
timing of the kmax 8 reference, which no benchmark workload runs), every
attempt's start, sweeps and first residual, the largest ratio of
consecutive residuals r_k / r_{k-1} within one attempt, and the attempts'
summed work tally (``TALLY``: the nodes at which the sweeps evaluated the
forcing, and the window indicator's traces, the RK4 point-steps of its
window and history legs, its history legs and the carried points the
window-start mesh decided; None on a side whose attempts do not carry a
key).  Each row ends with the number of windows that took more sweeps than
on the baseline, and the largest absolute difference between the two
sides' ledger entries.

Last, the cost of the window indicator's distance work per window attempt:
each workload's ``galerkin.run`` under cProfile, ``DISTANCE_RUNS`` times per
side in fresh interpreters, with the seconds spent in the ``DISTANCE``
functions (called from outside that set, so no call counts twice) over the
run's window attempts.  cProfile inflates them alike on both sides.
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
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


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

# The keys of an attempt record that tally the work of its window.
TALLY = (
    "forcing_evaluations",
    "indicator_traces",
    "window_point_steps",
    "history_legs",
    "history_point_steps",
    "mesh_decided_points",
)

# The functions that measure a distance to a mesh for the window indicator,
# under the names either side may have, and the profiled runs per side.
DISTANCE = ("_mesh_distance", "polygon_distance", "distance_lower_bound", "mesh_distance")
DISTANCE_RUNS = 5

# One profiled run in the checkout whose src is on sys.path; prints the
# seconds in the functions named argv[2] and the number of window attempts.
_DISTANCE_RUN = """
import cProfile, json, pstats, sys
from capmhd import galerkin
from capmhd.config import RunConfig
config = RunConfig.from_dict(json.loads(sys.argv[1]))
names = set(json.loads(sys.argv[2]))
profile = cProfile.Profile()
result = profile.runcall(galerkin.run, config)
seconds = sum(
    edge[3]
    for (_, _, name), (*_, callers) in pstats.Stats(profile).stats.items() if name in names
    for caller, edge in callers.items() if caller[2] not in names
)
print(json.dumps({"seconds": seconds, "attempts": len(result.attempts)}))
"""

# One run in the checkout whose src is on sys.path; prints its wall seconds,
# its ledger rows and its window attempts.
_SWEEP_RUN = """
import json, sys, time
from capmhd import galerkin
from capmhd.config import RunConfig
config = RunConfig.from_dict(json.loads(sys.argv[1]))
start = time.perf_counter()
result = galerkin.run(config)
seconds = time.perf_counter() - start
print(json.dumps({"run_s": seconds, "ledger": result.ledger.rows,
                  "attempts": result.attempts}))
"""


def total(attempts, key):
    """``key`` summed over the attempts, or None where an attempt lacks it."""
    return sum(a[key] for a in attempts) if all(key in a for a in attempts) else None


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
    for i, (name, path, overrides) in enumerate(SWEEP_CONFIGS):
        data = dict(json.loads((ROOT / path).read_text()), **overrides)
        row = {"config": name, "file": path, "overrides": overrides}
        ledgers = {}
        order = [("baseline", baseline), ("change", ROOT)]
        for side, checkout in order[:: 1 if i % 2 == 0 else -1]:
            out = sweep_run(checkout, data)
            attempts = out["attempts"]
            ledgers[side] = np.array(out["ledger"])
            row[side] = {
                "run_s": out["run_s"],
                "sweeps": sum(a["sweeps"] for a in attempts),
                **{key: total(attempts, key) for key in TALLY},
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


def distance_cost(baseline, workloads):
    """Seconds of distance work per window attempt, each profiled run's."""
    out = {}
    for workload in workloads:
        data = json.loads((ROOT / "bench" / "workloads" / f"{workload}.json").read_text())
        row = {}
        for side, checkout in (("baseline", baseline), ("change", ROOT)):
            env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
            runs = [
                json.loads(subprocess.run(
                    [sys.executable, "-c", _DISTANCE_RUN, json.dumps(data), json.dumps(DISTANCE)],
                    cwd=checkout, env=env, capture_output=True, text=True, check=True,
                ).stdout)
                for _ in range(DISTANCE_RUNS)
            ]
            per_window = [run["seconds"] / run["attempts"] for run in runs]
            row[side] = {"seconds_per_window": per_window,
                         "median": statistics.median(per_window)}
        out[workload] = row
    return out


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
    parser.add_argument("--baseline", type=Path, required=True,
                        help="checkout to compare bench/run.py and the sweep table against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", nargs="+", default=["ball3d", "ref2d-long"])
    args = parser.parse_args(argv)

    result = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": 1},
        "sweep_table": sweep_table(args.baseline),
        "bench_run_pairs": pairs(args.baseline, args.workloads, args.pairs, args.seconds),
        "distance_cost": distance_cost(args.baseline, args.workloads),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for row in result["sweep_table"]:
        base, change = row["baseline"], row["change"]
        counts = ", ".join(
            f"{key} {base[key]} -> {change[key]}"
            for key in ("run_s", "sweeps", *TALLY, "largest_contraction")
        )
        print(f"{row['config']}: {counts}, "
              f"windows with more sweeps {row['windows_with_more_sweeps']}, "
              f"largest ledger difference {row['largest_ledger_difference']}")
    for workload, row in result["bench_run_pairs"].items():
        print(f"{workload}: run_s {row['baseline_run_s_median']:.3f} -> "
              f"{row['change_run_s_median']:.3f} s, "
              f"wins {row['change_wins']}/{len(row['change_run_s'])}, sweeps "
              f"{row.get('baseline_galerkin.sweeps')} -> {row.get('change_galerkin.sweeps')}, "
              f"history point-steps {row.get('baseline_flowmap.history_point_steps')} -> "
              f"{row.get('change_flowmap.history_point_steps')}")
    for workload, row in result["distance_cost"].items():
        print(f"{workload}: distance work per window {1e3 * row['baseline']['median']:.2f} -> "
              f"{1e3 * row['change']['median']:.2f} ms (cProfile)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
