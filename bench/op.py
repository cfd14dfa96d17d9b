"""One benchmark operation: a single in-process ``capmhd run``.

``run.py`` starts this file in a fresh interpreter for every operation, so
nothing one run computes can serve the next:

    python3 bench/op.py --config bench/workloads/ball3d.json --out DIR \
        --result FILE [--trace --spans FILE]

It times ``RunConfig.from_json`` + ``build()`` ``SETUP_REPS`` times, then
times ``capmhd run`` (``cli.main``) once, records the peak resident memory of
the process, and only then checks the outputs and, with ``--trace``, reduces
the trace.  The measurements go to ``--result`` as JSON.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "capmhd" / "__init__.py").is_file():
    raise SystemExit(f"capmhd sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from capmhd import cli, galerkin  # noqa: E402
from capmhd.config import RunConfig  # noqa: E402

import layers  # noqa: E402
from checks import check_run  # noqa: E402
from tracer import Tracer, install  # noqa: E402

# Setup is a few ms in 2D, so it is repeated in every operation and the
# median over all repetitions is reported.
SETUP_REPS = 10


def time_setup(config_path):
    """Seconds of RunConfig.from_json + build(), once per repetition."""
    samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        RunConfig.from_json(config_path).build()
        samples.append(time.perf_counter() - start)
    return samples


def _bytes_written(out_dir):
    return sum(entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())


def run_op(config_path, out_dir, traced=False, spans_path=None):
    """Run one operation and return its measurements and checks as a dict."""
    setup = time_setup(config_path)
    tracer = Tracer() if traced else None
    restore, missing = install(tracer, "capmhd", layers.targets()) if traced else (None, [])
    captured = {}
    real_run = galerkin.run

    def capture(config):
        captured["result"] = real_run(config)
        return captured["result"]

    galerkin.run = capture
    argv = ["run", "--config", str(config_path), "--out", str(out_dir)]
    error = None
    start = time.perf_counter()
    try:
        if traced:
            with tracer.span("cli.main"):
                code = cli.main(argv)
        else:
            code = cli.main(argv)
    except Exception:  # a solver fault is a failed operation, not a crash
        code = None
        error = traceback.format_exc()
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    galerkin.run = real_run
    if restore is not None:
        restore()

    result = captured.get("result")
    checks = check_run(RunConfig.from_json(config_path), result, code, out_dir)
    ledger = Path(out_dir) / "ledger.csv"
    ledger_sha = hashlib.sha256(ledger.read_bytes()).hexdigest() if ledger.is_file() else None
    out = {
        "run_s": run_s,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
        "exit_code": code,
        "error": error,
        "checks": checks,
        "ok": all(check["ok"] for check in checks.values()),
        "ledger_sha256": ledger_sha,
    }
    if traced:
        times = tracer.times()
        out["layers"] = layers.layer_metrics(
            tracer, len(result.windows) if result else 0, _bytes_written(out_dir)
        )
        out["trace"] = {
            "spans": len(tracer),
            "self_s_total": sum(self_s for self_s, _, _ in times.values()),
            "min_span_self_s": float(tracer.span_self_ns().min()) * 1e-9,
            "root_s": tracer.root_seconds(),
            "wall_s": run_s,
            "missing_targets": missing,
            "self_s": {name: values[0] for name, values in sorted(times.items())},
        }
        if spans_path:
            tracer.write(spans_path)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    out = run_op(args.config, args.out, args.trace, args.spans)
    with open(args.result, "w") as handle:
        json.dump(out, handle, indent=1, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
