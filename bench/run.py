"""Benchmark of the tst package: three workloads and a traced per-layer profile.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

``--trace 0`` times set-up and then repeats the workload's operation (a whole
``train()`` trial, or one ``evaluate()``) for about ``--seconds`` seconds,
and reports the end-to-end metrics as medians. ``--trace 1`` runs the
operation once untraced and once with span tracing installed, and reports
the per-layer metrics. Either way every output check runs; the full result
(host record, spreads, sample counts, checks) is written to ``bench/out/``,
the traced run also writes its spans there, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Exit status: 0 when every check passed and no operation failed, 1 when
one did, 2 when the package source or ``BENCHMARK.json`` cannot be used.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("desk_train", "stock_train", "stock_infer")
# set-ups before the operations and again after them; setup_s is the median
# of all of them. Two bursts half a minute apart straddle more of the host's
# fast and slow phases (a few seconds long) than one burst would.
SET_UPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def spread(values) -> dict:
    """Median, quartiles and sample count of one metric's samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def attempt(operation, outcomes: list, failures: list):
    """Run one operation; a raise counts as a failed operation, not a crash."""
    try:
        outcomes.append(operation())
    except Exception as exc:   # the benchmark must go on to report the failure
        traceback.print_exc(file=sys.stderr)
        failures.append(f"{type(exc).__name__}: {exc}")


def timed_set_ups(set_up, seconds: list):
    """Set up SET_UPS times, appending each time taken; return the last result."""
    for _ in range(SET_UPS):
        start = time.perf_counter()
        ready = set_up()
        seconds.append(time.perf_counter() - start)
    return ready


def run_untraced(wl, seed, seconds, workdir):
    import workloads

    inputs = workloads.make_inputs(wl, seed, workdir)

    def set_up():
        return workloads.set_up(wl, inputs, seed)

    setup_seconds = []
    ready = timed_set_ups(set_up, setup_seconds)
    checks = [workloads.check_loaded(inputs, ready)]
    predictions = workloads.warm_up(wl, ready, seed)
    outcomes, failures = [], []
    start = time.perf_counter()
    while True:
        attempt(lambda: workloads.call(wl, ready, seed), outcomes, failures)
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / (len(outcomes) + len(failures))) > seconds:
            break   # another operation of the typical length would overrun
    timed_set_ups(set_up, setup_seconds)
    if outcomes:
        checks += workloads.check_outcomes(wl, outcomes, ready, predictions)
        checks.append(workloads.check_roundtrip(outcomes[0].model, workdir))
    else:
        checks.append(("at least one operation completed", False, "every operation raised"))
    metrics = {
        "setup_s": spread(setup_seconds),
        "windows_per_s": spread([o.windows / o.seconds for o in outcomes] or [0.0]),
        "peak_rss_mb": spread([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
    }
    return metrics, checks, len(outcomes) + len(failures), failures, {}


def run_traced(wl, seed, seconds, workdir):
    import workloads
    from macs import layer_macs
    from tracer import Tracer, retained_bytes

    inputs = workloads.make_inputs(wl, seed, workdir)
    ready = workloads.set_up(wl, inputs, seed)
    checks = [workloads.check_loaded(inputs, ready)]
    predictions = workloads.warm_up(wl, ready, seed)
    outcomes, failures = [], []
    attempt(lambda: workloads.call(wl, ready, seed), outcomes, failures)
    tracer = Tracer()
    with tracer.installed():
        for _ in range(SET_UPS):
            with tracer.phase("bench.setup"):
                ready = workloads.set_up(wl, inputs, seed)
        attempt(lambda: workloads.call(wl, ready, seed), outcomes, failures)
        if outcomes:
            with tracer.phase("bench.roundtrip"):
                checks.append(workloads.check_roundtrip(outcomes[0].model, workdir))
    if len(outcomes) < 2:
        return {}, checks, 2, failures, {}
    untraced, traced = outcomes
    checks += workloads.check_outcomes(wl, outcomes, ready, predictions)
    checks.append(("traced output equals the untraced one bit for bit",
                   workloads.fingerprint(traced.value) == workloads.fingerprint(untraced.value),
                   "TrialReport" if wl.trains else "(loss, accuracy)"))

    macs = layer_macs(wl.config)
    values = tracer.layer_metrics(macs)
    values.update(retained_bytes(lambda: workloads.probe_forward(wl, ready, seed)))
    values["trace.overhead_windows_per_s"] = (untraced.windows / untraced.seconds
                                              - traced.windows / traced.seconds)
    span_file = OUT / f"spans-{wl.name}-seed{seed}.json"
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "info"],
                   "spans": tracer.spans}, fh)
    extra = {
        "span_file": str(span_file.relative_to(ROOT)),
        "self_times": tracer.self_times(),
        "macs_per_window": macs,
        "untraced_call_s": untraced.seconds,
        "traced_call_s": traced.seconds,
    }
    return {name: spread([v]) for name, v in values.items()}, checks, 2, failures, extra


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this mode; the
    measured names must match them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tst" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'tst'} or {ROOT / 'BENCHMARK.json'} is missing; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tst
    if Path(tst.__file__).resolve().parent != SRC / "tst":
        print(f"error: imported tst from {tst.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from host import host_record

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{wl.name}-", dir=OUT))
    try:
        run = run_traced if args.trace else run_untraced
        metrics, checks, attempted, failures, extra = run(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir)

    declared = declared_metrics(args.trace)
    if metrics and set(metrics) != set(declared):
        print("error: measured metrics differ from BENCHMARK.json's: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 2
    for name, stats in metrics.items():
        stats["unit"] = declared[name]

    correct = bool(metrics) and all(ok for _, ok, _ in checks)
    result = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": wl.config.to_dict(), "host": host_record(),
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "failures": failures, "metrics": metrics,
        "checks": [{"check": name, "passed": ok, "detail": detail} for name, ok, detail in checks],
        **extra,
    }
    result_file = OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(result_file, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"{wl.name} seed {args.seed} ({'traced' if args.trace else 'untraced'})")
    print(f"host: {result['host']}")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    print(f"error_rate: {len(failures)}/{attempted} operations failed")
    for name, s in metrics.items():
        quartiles = f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n={s['n']}" if s["n"] > 1 else ""
        print(f"{name:42s} {s['median']:<14.6g} {s['unit']:10s} {quartiles}")
    print(f"result: {result_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": s["median"], "unit": s["unit"]} for name, s in metrics.items()},
    }))
    return 0 if correct and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
