"""delaypsa benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload eps-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Each operation starts when the
previous one returns.  Every answer is checked.  The last line of standard
output is one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it holds the details (environment, tail percentile,
failures, raw wall times, eigensolve histogram).  Timings are calibrated
against a fixed kernel run between operations (calibration.py).  See
perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = str(BLAS_THREADS)

import calibration  # noqa: E402  (loads numpy)
import tracing  # noqa: E402
from calibration import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_SAMPLES = 3  # calibration samples before and after each set-up
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("eps-sweep", "small-batch", "oracle-grid")
DIAGNOSTIC_NAMES = ("small-batch-wide",)  # known failures; not in "all"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + DIAGNOSTIC_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds():
    """Time `import delaypsa` in a fresh interpreter (the in-process import
    can only be timed once, set-up is timed several times)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import delaypsa; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def set_up(make_workload, repeats, cal):
    """Import, input generation and the untimed warm-up operations, `repeats`
    times; returns the last prepared workload and every set-up time, wall
    and calibrated (against kernel samples taken before and after it)."""
    wall, calibrated = [], []
    for _ in range(repeats):
        kernel = [cal.sample() for _ in range(SETUP_SAMPLES)]
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl = make_workload()
        wl.prepare()
        for inp in wl.warm_up_inputs():
            try:
                wl.operation(inp)
            except Exception:  # failures count only in the timed loop
                pass
        t = t_import + time.perf_counter() - t0
        kernel += [cal.sample() for _ in range(SETUP_SAMPLES)]
        wall.append(t)
        calibrated.append(t * cal.nominal_s / median(kernel))
    return wl, wall, calibrated


def run_ops(wl, first, failures, count=None, deadline=None, tracer=None,
            cal=None):
    """Run operations first, first + 1, ... closed-loop.

    Returns (start, wall seconds) per operation.  Stops after `count`
    operations, or at the first end of a workload cycle past `deadline`.  An
    exception or a failed check is a failure, recorded with the input that
    caused it.  With a calibrator, the calibration kernel runs between
    operations.
    """
    runs = []
    i = first
    while True:
        inp = wl.make_input(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = wl.operation(inp)
            problems = None
        except Exception as exc:  # every exception counts as a failure
            problems = [f"{type(exc).__name__}: {exc}"]
        runs.append((t0, time.perf_counter() - t0))
        if tracer is not None:
            tracer.op = None
        if problems is None:
            problems = wl.check(inp, out)
        if problems:
            failures.append({"op": i, "input": wl.describe(inp),
                             "problems": problems})
        if cal is not None:
            cal.after(runs[-1][1])
        i += 1
        if len(runs) == count or (deadline is not None
                                   and len(runs) % wl.cycle == 0
                                   and time.perf_counter() >= deadline):
            return runs


def tail(values):
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); with too few samples for
    that, the maximum, percentile 100 and nothing beyond.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(make_workload, seconds, trace):
    """Set up, run the timed loop and, when tracing, the traced pass.

    Returns (result, details): result is the final JSON object.
    """
    cal = calibration.Calibrator(make_workload().kernel)
    wl, setup_wall, setup_times = set_up(make_workload, SETUP_REPEATS, cal)
    failures = []
    runs = run_ops(wl, 0, failures, deadline=time.perf_counter() + seconds,
                   cal=cal)
    times = [cal.calibrate(start, wall) for start, wall in runs]
    ok = len(times) - len(failures)
    tail_s, tail_pct, beyond = tail(times)
    details = {
        "workload": wl.name,
        "env": environment(),
        "client": "closed loop, 1 client",
        "timed_ops": len(times),
        "op_s_tail": {"percentile": tail_pct, "samples": len(times),
                      "beyond": beyond},
        "wall": {"op_s_p50": median([w for _, w in runs]),
                 "op_s_tail": tail([w for _, w in runs])[0],
                 "setup_s": median(setup_wall)},
        "calibration": {"kernel": wl.kernel, "nominal_s": cal.nominal_s,
                        "samples": len(cal.samples),
                        "median_s": median([s for _, s in cal.samples])},
        "setup_runs_s": setup_times,
    }
    if not trace:
        attempted = len(times)
        metrics = {
            "op_s_p50": {"value": median(times), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": ok / sum(times), "unit": "1/s"},
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mib(), "unit": "MiB"},
        }
    else:
        metrics, attempted, tracer = traced_pass(wl, runs, failures, cal)
        details.update(traced_ops=wl.trace_ops,
                       eig_dims=tracing.eig_histogram(tracer),
                       missing=tracing.layer_metrics(tracer, wl.trace_ops)[1],
                       skipped_targets=tracer.skipped)
    details["fail_ratio"] = {"value": len(failures) / attempted,
                             "unit": "ratio"}
    details["failures"] = failures
    if trace:
        details["trace_file"] = write_trace(wl, tracer, details)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, details


def traced_pass(wl, untraced, failures, cal):
    """Re-run the workload's first trace_ops operations under the tracer.

    Returns the per-layer metrics, the operations attempted in the whole
    run and the tracer holding the spans.
    """
    k = wl.trace_ops
    if len(untraced) < k:  # the timed loop stopped short of the set
        untraced = untraced + run_ops(wl, len(untraced), failures,
                                      count=k - len(untraced), cal=cal)
    with tracing.Tracer() as tracer:
        tracer.install(tracing.targets())
        traced = run_ops(wl, 0, failures, count=k, tracer=tracer, cal=cal)
    metrics, _ = tracing.layer_metrics(tracer, k)
    metrics["trace.overhead_ratio"] = {
        "value": (median([cal.calibrate(*r) for r in traced])
                  / median([cal.calibrate(*r) for r in untraced[:k]])),
        "unit": "ratio",
    }
    return metrics, len(untraced) + k, tracer


def write_trace(wl, tracer, details):
    """Write spans, counts and per-name self time; returns the file's path."""
    calls, total, own = tracer.totals()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{wl.seed}.json"
    with open(path, "w") as fh:
        json.dump({
            "details": details,
            "per_name": {name: {"calls": calls[name], "total_s": total[name],
                                "self_s": own[name]} for name in calls},
            "counts": dict(tracer.counts),
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": tracer.spans,
        }, fh)
    return str(path.relative_to(ROOT))


def run_all(args):
    """Each workload in its own process, so set-up and memory stay separate."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print(lines[-2])
        result = json.loads(lines[-1])
        for key, m in result["metrics"].items():
            print(f"{name:12s} {key:34s} {m['value']:.6g} {m['unit']}")
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "delaypsa" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    make = workloads.WORKLOADS[args.workload]
    result, details = run_workload(lambda: make(args.seed), args.seconds,
                                   args.trace)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
