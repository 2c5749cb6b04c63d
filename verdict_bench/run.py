"""Verdict benchmark for anece-lab.

    python3 verdict_bench/run.py --workload mc-standard --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload's scenario files are written
under ``verdict_bench/out/`` from ``--seed``; then whole passes over the
workload's CLI operations run in this process, through
``anece_lab.cli.main``: as many as fit in ``--seconds``, and at least one.
Every output is checked by ``checks.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``verdict_set_s`` (median
pass time), ``setup_s`` (median time of a fresh interpreter importing the
CLI and parsing the scenario files) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``tracer.py``; its spans go to ``verdict_bench/out/trace-*.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from anece_lab.cli import parse_scenario\n"
    "for path in sys.argv[2:]:\n"
    "    parse_scenario(path)\n"
)


def run_pass(cli, ops) -> tuple[float, list]:
    """One pass over the operations; returns its wall time (the sum of the
    operations' times) and, per operation, its output text or None if it failed."""
    total = 0.0
    outputs = []
    for op in ops:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(op.argv))
        except Exception:  # a crash is a failed operation; the pass goes on
            traceback.print_exc()
            code = None
        total += time.perf_counter() - start
        if code != 0:
            print(f"{op.label}: exit code {code}", file=sys.stderr)
            outputs.append(None)
        elif op.out_path is None:
            outputs.append(buf.getvalue())
        else:
            with open(op.out_path, encoding="utf-8") as fh:
                outputs.append(fh.read())
    return total, outputs


def run_passes(cli, ops, seconds: float, traced: bool):
    """Whole passes within ``seconds``: after the first, a pass starts only
    if the one before it would still fit.  With ``traced`` every pass is an
    untraced one followed by a traced one."""
    plain_times, traced_times, tracers, all_outputs = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while not plain_times or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        gc.collect()
        dt, outputs = run_pass(cli, ops)
        plain_times.append(dt)
        all_outputs.append(outputs)
        if traced:
            gc.collect()
            tr = tracer.Tracer()
            with tracer.installed(tr):
                dt, outputs = run_pass(cli, ops)
            traced_times.append(dt)
            tracers.append(tr)
            all_outputs.append(outputs)
        last = time.perf_counter() - begun
    return plain_times, traced_times, tracers, all_outputs


def check_outputs(ops, all_outputs) -> tuple[int, list[str]]:
    """Failed operations, and problems found in the outputs of the others.

    Every pass must reproduce the first successful output byte for byte, so
    only that one goes through the content checks.
    """
    failed = sum(out is None for outputs in all_outputs for out in outputs)
    problems = []
    for k, op in enumerate(ops):
        texts = [outputs[k] for outputs in all_outputs if outputs[k] is not None]
        if not texts:
            continue
        if any(t != texts[0] for t in texts):
            problems.append(f"{op.label}: output differs between passes of one seed")
        sc = op.scenario
        for p in checks.check_output(op.kind, texts[0], sc.scheme, sc.network, op.axis, op.span):
            problems.append(f"{op.label}: {p}")
    return failed, problems


def setup_seconds(scenarios) -> float:
    paths = [sc.path for sc in scenarios]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC, *paths],
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "anece_lab", "cli.py")):
        print(f"error: no anece_lab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import anece_lab.cli as cli

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scenarios, ops = workloads.build(args.workload, args.seed, os.path.join(OUT, tag))
    setup = None if args.trace else setup_seconds(scenarios)

    plain, traced, tracers, all_outputs = run_passes(cli, ops, args.seconds, bool(args.trace))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = check_outputs(ops, all_outputs)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    print(f"{tag}: {len(ops)} operations a pass, untraced passes {[round(t, 3) for t in plain]}"
          + (f", traced passes {[round(t, 3) for t in traced]}" if traced else ""),
          file=sys.stderr)

    if args.trace:
        layers = [tr.layer_metrics() for tr in tracers]
        if any(
            layer[name] != layers[0][name]
            for layer in layers for name in layers[0] if not name.endswith("_s")
        ):
            problems.append("traced counts differ between passes")
            print("check: traced counts differ between passes", file=sys.stderr)
        metrics = {}
        for name, (value, unit) in layers[0].items():
            if unit == "s":
                value = statistics.median(layer[name][0] for layer in layers)
            metrics[name] = metric(value, unit)
        metrics["trace.overhead_s"] = metric(statistics.median(traced) - statistics.median(plain),
                                             "s")
        with open(os.path.join(OUT, f"trace-{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "operations": [op.label for op in ops],
                       "spans": tracers[0].spans,
                       "linalg_calls": dict(tracers[0].linalg),
                       "rng_streams": dict(tracers[0].rng)}, fh)
    else:
        metrics = {
            "verdict_set_s": metric(statistics.median(plain), "s"),
            "setup_s": metric(setup, "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops) * len(all_outputs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
