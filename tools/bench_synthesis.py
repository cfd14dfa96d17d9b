"""Alternating benchmark pairs, a sweep table and a kernel table against a baseline.

    python3 tools/bench_synthesis.py --out BENCH_26.json --baseline ../parent --pairs 10

It runs ``bench/run.py --trace 0`` on each workload ``--pairs`` times on both
sides, this checkout and ``--baseline``, alternating which side runs first.
It records every invocation's end-to-end metrics (each the median over its
operations), and for ``run_s`` the medians over invocations, the baseline's
interquartile range and the number of pairs this checkout wins.

It also records a sweep table: ``galerkin.run`` of each ``SWEEP_CONFIGS``
entry in a fresh interpreter on each side, with nothing patched, read from
the run's own window attempts.  The sides alternate which runs first from
one config to the next.  For each side: the run's wall seconds (the only
timing of the kmax 8 reference, which no benchmark workload runs), every
attempt's start, sweeps and first residual, the largest ratio of
consecutive residuals r_k / r_{k-1} within one attempt, and the attempts'
summed work tally (``galerkin.WORK`` of this checkout: the nodes at which
the sweeps evaluated the forcing, and the window indicator's traces, the
RK4 point-steps of its window and history legs, its history legs and the
carried points the window-start mesh decided; None on a side whose attempts
do not carry a key).  Each row ends with the number of windows that took
more sweeps than on the baseline, the largest absolute difference between
the two sides' ledger entries, and the largest between their final states
(u and B coefficients and mesh vertices at T).  Each printed row counts the
attempts of each start ("march" for a window marched from Euler,
"extrapolated"), read from the records.  The printed summary of each
benchmark workload reads its sweeps and history point-steps from the sweep
table's row of the same name.

A kernel table times the off-grid kernels in six fresh interpreters per
side and mode, alternating which side runs first, each as the median
seconds per call over all rounds: alone with timeit at the workloads'
sizes (``Lattice.values`` on ball3d's 642 mesh vertices and the 256 of a
2D disk, ``curvature_pairing_modes`` on 1,280 triangles and 256 segments,
``InterfaceMesh.geometry`` in 3D), and every call of ``Lattice.values``
and ``curvature_pairing_modes`` in one ``galerkin.run`` of each workload.
It also records the tracemalloc peak of one 3D curvature pairing.  The
timeit children run with glibc's heap trim and mmap thresholds pinned high
(``MALLOC_ENV``, recorded in the file), so a kernel timed alone does not
give its temporaries' pages back to the system and fault them in again on
every call.

The file also records each side's line count of ``src/capmhd/*.py``.
"""

import os

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
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
# the keys of an attempt record that tally the work of its window
sys.path.insert(0, str(ROOT / "src"))
from capmhd.galerkin import WORK  # noqa: E402


# glibc's heap trim and mmap thresholds in the kernel table's timeit
# children: 1 GiB, and 32 MiB, the largest mmap threshold it accepts.
MALLOC_ENV = {"MALLOC_TRIM_THRESHOLD_": "1073741824", "MALLOC_MMAP_THRESHOLD_": "33554432"}


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
final = result.final_state
print(json.dumps({"run_s": seconds, "ledger": result.ledger.rows,
                  "attempts": result.attempts,
                  "final_state": [final.u.coefficients.tolist(), final.B.coefficients.tolist(),
                                  final.mesh.vertices.ravel().tolist()]}))
"""


# The off-grid kernels in the checkout whose src is on sys.path.  With
# "timeit", at the benchmark workloads' sizes (kmax 2: the 642 vertices and
# 1,280 triangles of ball3d's mesh, the 256-gon of ref2d-long) it prints each
# kernel's per-call seconds over the timeit repeats, and the tracemalloc peak
# of one 3D curvature pairing once the mesh geometry and the lattice are
# built.  With a workload name it prints the seconds of every call of
# ``Lattice.values`` and ``curvature_pairing_modes`` in one ``galerkin.run``
# of that workload, where they meet the allocator as a run leaves it.
_KERNELS = """
import json, math, sys, time, timeit, tracemalloc
import numpy as np
from capmhd import basis as cb, galerkin, interface as ci
from capmhd.config import RunConfig
mode = sys.argv[1]
out = {}
if mode == "timeit":
    number, repeat = int(sys.argv[2]), int(sys.argv[3])
    for d, shape, resolution in ((3, ci.ball((math.pi,) * 3, 1.0), 3),
                                 (2, ci.disk((math.pi,) * 2, 1.0), 256)):
        basis = cb.make_basis(d, 2)
        mesh = ci.mesh_initial(shape, resolution)
        lattice = basis.lattice
        c = lattice.coefficients(np.random.default_rng(0).standard_normal(len(basis)))
        ci.curvature_pairing_modes(mesh, basis)
        calls = {
            f"Lattice.values {len(mesh.vertices)} vertices":
                lambda: lattice.values(c, mesh.vertices),
            f"curvature_pairing_modes {len(mesh.elements)} elements":
                lambda: ci.curvature_pairing_modes(mesh, basis),
        }
        if d == 3:
            calls["InterfaceMesh.geometry 3D"] = lambda: ci.InterfaceMesh.geometry.func(mesh)
            tracemalloc.start()
            ci.curvature_pairing_modes(mesh, basis)
            out["curvature_pairing_modes 3D peak MB"] = [tracemalloc.get_traced_memory()[1] / 1e6]
            tracemalloc.stop()
        for name, call in calls.items():
            out[name + " s"] = [t / number for t in timeit.repeat(call, number=number, repeat=repeat)]
else:
    def timed(name, kernel):
        out[f"{name} in a {mode} run s"] = seconds = []
        def call(*args, **kwargs):
            start = time.perf_counter()
            result = kernel(*args, **kwargs)
            seconds.append(time.perf_counter() - start)
            return result
        return call
    cb.Lattice.values = timed("Lattice.values", cb.Lattice.values)
    galerkin.curvature_pairing_modes = timed(
        "curvature_pairing_modes", galerkin.curvature_pairing_modes)
    galerkin.run(RunConfig.from_dict(json.loads(sys.argv[2])))
print(json.dumps(out))
"""


def total(attempts, key):
    """``key`` summed over the attempts, or None where an attempt lacks it."""
    return sum(a[key] for a in attempts) if all(key in a for a in attempts) else None


def start_counts(starts):
    """The attempts of each start kind, in order of first use: "march 1,
    extrapolated 14"."""
    return ", ".join(f"{start} {starts.count(start)}" for start in dict.fromkeys(starts))


def largest_contraction(attempts):
    """The largest ratio r_k / r_{k-1} of consecutive residuals in one attempt."""
    ratios = [
        later / earlier
        for a in attempts
        for earlier, later in zip(a["residual_history"], a["residual_history"][1:])
    ]
    return max(ratios, default=None)


def largest_difference(change, baseline):
    """The largest absolute entry-wise difference, or None for unequal shapes."""
    if change.shape != baseline.shape:
        return None
    return float(np.max(np.abs(change - baseline)))


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
        ledgers, finals = {}, {}
        order = [("baseline", baseline), ("change", ROOT)]
        for side, checkout in order[:: 1 if i % 2 == 0 else -1]:
            out = sweep_run(checkout, data)
            attempts = out["attempts"]
            ledgers[side] = np.array(out["ledger"])
            finals[side] = out["final_state"]
            row[side] = {
                "run_s": out["run_s"],
                "sweeps": sum(a["sweeps"] for a in attempts),
                **{key: total(attempts, key) for key in WORK},
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
        row["largest_ledger_difference"] = largest_difference(
            ledgers["change"], ledgers["baseline"]
        )
        # u and B coefficients and mesh vertices at T
        differences = [largest_difference(np.array(c), np.array(b))
                       for b, c in zip(finals["baseline"], finals["change"])]
        row["largest_final_state_difference"] = (
            None if None in differences else max(differences)
        )
        rows.append(row)
    return rows


def kernel_table(baseline, workloads, rounds=6, number=100, repeat=10):
    """The median seconds per call of each off-grid kernel on each side, timed
    alone and in a run of each workload, over ``rounds`` fresh interpreters
    per side and mode, alternating which side runs first."""
    modes = [["timeit", str(number), str(repeat)]] + [
        [workload, (ROOT / "bench" / "workloads" / f"{workload}.json").read_text()]
        for workload in workloads
    ]
    samples = {"baseline": {}, "change": {}}
    for i in range(rounds):
        order = [("baseline", baseline), ("change", ROOT)]
        for side, checkout in order[:: 1 if i % 2 == 0 else -1]:
            env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
            for mode in modes:
                child = dict(env, **MALLOC_ENV) if mode[0] == "timeit" else env
                out = subprocess.run([sys.executable, "-c", _KERNELS, *mode], cwd=checkout,
                                     env=child, capture_output=True, text=True, check=True)
                for name, values in json.loads(out.stdout).items():
                    samples[side].setdefault(name, []).extend(values)
    return {
        name: {side: statistics.median(samples[side][name]) for side in samples}
        for name in samples["change"]
    }


def src_lines(checkout):
    """Lines of ``src/capmhd/*.py`` in ``checkout``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (Path(checkout) / "src" / "capmhd").glob("*.py"))


def bench_metrics(checkout, workload, seconds):
    """End-to-end metric values of one ``bench/run.py`` invocation."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", "0"]
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
                    "blas_threads": {name: os.environ[name] for name in THREAD_VARIABLES},
                    "kernel_timeit_malloc": MALLOC_ENV},
        "src_lines": {"baseline": src_lines(args.baseline), "change": src_lines(ROOT)},
        "sweep_table": sweep_table(args.baseline),
        "kernel_table": kernel_table(args.baseline, args.workloads),
        "bench_run_pairs": pairs(args.baseline, args.workloads, args.pairs, args.seconds),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for row in result["sweep_table"]:
        base, change = row["baseline"], row["change"]
        counts = ", ".join(
            f"{key} {base[key]} -> {change[key]}"
            for key in ("run_s", "sweeps", *WORK, "largest_contraction")
        )
        starts = f"starts [{start_counts(base['starts'])}] -> [{start_counts(change['starts'])}]"
        print(f"{row['config']}: {counts}, {starts}, "
              f"windows with more sweeps {row['windows_with_more_sweeps']}, "
              f"largest ledger difference {row['largest_ledger_difference']}, "
              f"largest final-state difference {row['largest_final_state_difference']}")
    lines = result["src_lines"]
    print(f"src/capmhd lines: {lines['baseline']} -> {lines['change']}")
    for name, row in result["kernel_table"].items():
        print(f"{name}: {row['baseline']:.4g} -> {row['change']:.4g}")
    # every benchmark workload is also a sweep table config of the same name
    table = {row["config"]: row for row in result["sweep_table"]}
    for workload, row in result["bench_run_pairs"].items():
        base, change = table[workload]["baseline"], table[workload]["change"]
        print(f"{workload}: run_s {row['baseline_run_s_median']:.3f} -> "
              f"{row['change_run_s_median']:.3f} s, "
              f"wins {row['change_wins']}/{len(row['change_run_s'])}, sweeps "
              f"{base['sweeps']} -> {change['sweeps']}, "
              f"history point-steps {base['history_point_steps']} -> "
              f"{change['history_point_steps']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
