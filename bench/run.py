"""Solver benchmark: ``capmhd run`` on fixed workloads, one fresh process per run.

    python3 bench/run.py --workload ball3d --seconds 50 --trace 0
    python3 bench/run.py --seconds 50          # every workload in turn

One operation is one ``capmhd run`` of the workload's configuration, made by
``op.py`` in a new interpreter with one BLAS thread; operations run one after
another from this process, and a new one starts only while the longest so far
still fits in ``--seconds``.  Every operation is checked (``checks.py``), and
all ledgers of one invocation must be byte-identical.  With ``--trace 0`` the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
operations alternate, the per-layer metrics come from the traced ones, and
the tracing overhead is the difference of the two medians of ``run_s``.  Each metric
is printed by name with its unit as the median over operations, and the last
line of standard output is one JSON object: correct, attempted, failed,
metrics.

The solver is deterministic and takes no random input, so ``--seed`` is
accepted and recorded but changes nothing.  Metric names and units come from
``BENCHMARK.json`` at the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Hard limit of one invocation; every run must exit within 180 s.
TIME_LIMIT_S = 170.0


def run_operation(workload, index, traced, deadline):
    """One operation in a fresh interpreter; returns op.py's result dict."""
    work_dir = OUT / workload
    op_dir = work_dir / f"op{index}"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir(parents=True)
    result_path = op_dir / "result.json"
    cmd = [
        sys.executable,
        str(HERE / "op.py"),
        "--config", str(HERE / "workloads" / f"{workload}.json"),
        "--out", str(op_dir / "artifacts"),
        "--result", str(result_path),
    ]
    if traced:
        cmd += ["--trace", "--spans", str(work_dir / "spans.csv")]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            env=dict(os.environ, **CHILD_ENV),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out", "wall_s": time.monotonic() - start}
    wall = time.monotonic() - start
    if proc.returncode != 0 or not result_path.is_file():
        return {"ok": False, "error": proc.stderr[-4000:], "wall_s": wall}
    with open(result_path) as handle:
        result = json.load(handle)
    result["wall_s"] = wall
    result["traced"] = traced
    return result


def run_workload(workload, seconds, trace):
    """Operations of one workload for about ``seconds``; returns their results."""
    shutil.rmtree(OUT / workload, ignore_errors=True)
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    ops = []
    while True:
        traced = trace and len(ops) % 2 == 1
        ops.append(run_operation(workload, len(ops), traced, deadline))
        if ops[-1].get("error") == "timed out":
            break
        now = time.monotonic()
        longest = max(op["wall_s"] for op in ops)
        if trace and len(ops) < 2:
            continue
        if now - start + longest > seconds or now + longest > deadline:
            break
    reference = next((op["ledger_sha256"] for op in ops if op.get("ok")), None)
    for op in ops:
        if op.get("ok") and op["ledger_sha256"] != reference:
            op["ok"] = False
            op["error"] = "ledger.csv differs from the first run's"
    return ops


def tail_percentile(n):
    """Highest reported percentile with at least ten samples beyond it."""
    fitting = [p for p in (75, 90, 95, 99, 99.9) if n * (1 - p / 100) >= 10]
    return fitting[-1] if fitting else None


def summarize(samples):
    """Median (and tail percentile where the count allows) of a sample list."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    p = tail_percentile(len(samples))
    if p is not None:
        cuts = statistics.quantiles(samples, n=1000, method="inclusive")
        out[f"p{p:g}"] = cuts[round(p * 10) - 1]
    return out


def end_to_end_samples(ops):
    good = [op for op in ops if op.get("ok")]
    return {
        "run_s": [op["run_s"] for op in good],
        "setup_s": [s for op in good for s in op["setup_s"]],
        "peak_rss_mb": [op["peak_rss_mb"] for op in good],
    }


def per_layer_samples(ops):
    plain = [op["run_s"] for op in ops if op.get("ok") and not op["traced"]]
    traced = [op for op in ops if op.get("ok") and op["traced"]]
    samples = {}
    for op in traced:
        for name, value in op["layers"].items():
            samples.setdefault(name, []).append(value)
    if plain and traced:
        traced_run = statistics.median(op["run_s"] for op in traced)
        samples["trace.run_s"] = [op["run_s"] for op in traced]
        samples["trace.spans"] = [op["trace"]["spans"] for op in traced]
        samples["trace.overhead_s"] = [traced_run - statistics.median(plain)]
    return samples


def report(workload, ops, trace, declared):
    """Print the human-readable lines; return (correct, attempted, failed, metrics)."""
    for i, op in enumerate(ops):
        status = "ok" if op.get("ok") else "FAILED"
        kind = "traced" if op.get("traced") else "plain"
        line = f"[{workload}] op {i} ({kind}): {status}, wall {op['wall_s']:.3f} s"
        print(line)
        if not op.get("ok"):
            failed_checks = [k for k, v in op.get("checks", {}).items() if not v["ok"]]
            print(f"    failed checks: {failed_checks}; error: {op.get('error')}", file=sys.stderr)
    # an operation that ran but broke a property is a wrong output; one that
    # never produced a result only failed
    correct = all(op.get("ok") for op in ops if "checks" in op)
    failed = sum(1 for op in ops if not op.get("ok"))
    print(f"[{workload}] operations attempted {len(ops)}, failed {failed}")
    samples = per_layer_samples(ops) if trace else end_to_end_samples(ops)
    metrics = {}
    for name, unit in declared.items():
        values = samples.get(name)
        if not values:
            continue
        stats = summarize(values)
        extra = "".join(f", {k} {v:.6g}" for k, v in stats.items() if k.startswith("p"))
        print(f"[{workload}] {name}: median {stats['median']:.6g} {unit} (n={stats['n']}{extra})")
        metrics[name] = {"value": stats["median"], "unit": unit}
    return correct, len(ops), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="capmhd solver benchmark")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0, help="accepted; the workloads take no seed")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the
    # running operation instead of leaving it orphaned
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "capmhd" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"capmhd sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(f"seed {args.seed} (unused: the workloads are deterministic), trace {args.trace}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ops = run_workload(workload, args.seconds, bool(args.trace))
        ok, n, bad, found = report(workload, ops, bool(args.trace), declared)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        if len(found) != len(declared):
            missing = sorted(set(declared) - set(found))
            print(f"[{workload}] no value for {missing}", file=sys.stderr)
            return 1
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in found.items()})
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
