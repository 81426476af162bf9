"""Run one workload of the jacobiweil benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 55 --trace 0

One process, one thread, one client in a closed loop: the next op starts only
when the previous one returns.  The op list of one pass is generated from the
seed and run whole, pass after pass, until ``--seconds`` have passed and at
least MIN_OPS ops ran.  Every op's output is then checked (see checks.py), and
each pass must reproduce the first pass's outputs exactly.  The end-to-end
times are scaled to a reference machine speed (see ``timed_run``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes (alternated with untraced ones, whose time gives
``trace.overhead_frac``) and writes the spans to perfbench/out/.  A summary
with units, the sample count, ``failed_frac`` and the machine goes to stderr;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100
SETUP_REPEATS = 21
# the reference speed of the end-to-end times: ``calibrate`` takes 0.9 ms, about
# its median on the 2-vCPU machine the benchmark was written on
CAL_REF_S = 0.9e-3

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def machine() -> dict:
    import numpy as np

    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = sorted(cache.glob("index*"), key=lambda p: int((p / "level").read_text()))
        llc = levels[-1].joinpath("size").read_text().strip() if levels else None
    except (OSError, ValueError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": {v: os.environ[v] for v in BLAS_THREADS},
            "llc": llc}


class Outputs:
    """Each op's first output and how often a later pass differed from it."""

    def __init__(self, count: int):
        self.first = [None] * count
        self.runs = [0] * count
        self.differed = [0] * count

    def record(self, i: int, out) -> None:
        if self.runs[i] == 0:
            self.first[i] = out
        elif out != self.first[i]:
            self.differed[i] += 1
        self.runs[i] += 1


def calibrate() -> float:
    """A fixed piece of work, independent of the library, with the two kinds
    of work the ops do: interpreted small-numpy steps and a vectorised exp
    over a few thousand complex terms.  Returns its wall time."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.eye(3) + 0.1
    s = 0.0
    for i in range(200):
        s += float((a @ a)[0, 0]) + 0.5 * i
    terms = (np.arange(8192) % 97 - 48.0) * (0.01 - 0.02j)
    s += np.exp(terms).sum().real
    return time.perf_counter() - t0


def run_pass(ops, latencies: list, outputs: Outputs, cal_times: list | None = None) -> float:
    """Run every op once, closed loop; returns the pass's wall time.  With
    ``cal_times``, ``calibrate`` runs before each op and its times go there."""
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if cal_times is not None:
            cal_times.append(calibrate())
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises counts as failed; keep going
            out = {"raised": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - t0)
        outputs.record(i, out)
    return time.perf_counter() - start


def check_outputs(ops, outputs: Outputs) -> int:
    """Check each op's output; print each failing op with its input."""
    failed = 0
    for op, first, runs, differed in zip(ops, outputs.first, outputs.runs, outputs.differed):
        if isinstance(first, dict) and "raised" in first:
            reason = first["raised"]
        else:
            try:
                reason = op.check(first)
            except Exception as exc:  # a check that cannot read the output fails the op
                reason = f"check raised {type(exc).__name__}: {exc}"
        bad = runs if reason else differed
        if not reason and differed:
            reason = f"{differed} of {runs} passes differ from the first"
        if reason:
            failed += bad
            print(f"FAILED {op.kind} (x{bad}): {reason}\n  input: {json.dumps(op.spec)}",
                  file=sys.stderr)
    return failed


def setup_command(spec_text: str):
    """A function that runs ``spec_text`` in a fresh CLI process and returns
    its wall time from spawn to exit and whether the job passed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "jacobiweil.cli", "--job", "-"]

    def run_once() -> tuple[float, bool]:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, input=spec_text, capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not json.loads(proc.stdout).get("passed"):
            print(f"FAILED setup job: exit {proc.returncode}\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
            return elapsed, False
        return elapsed, True

    return run_once


def timed_run(workload, seconds: float):
    """Repeat the op list until ``seconds`` have passed; report each op's
    median latency over the passes, scaled to the reference speed.

    The machine is shared, and its speed drifts by up to 1.7x over seconds to
    minutes while the work stays the same.  ``calibrate`` runs before every op,
    so its median is taken over the same stretches of time as the ops'
    medians.  Every time is multiplied by ``CAL_REF_S`` over that median: the
    metrics are the times the run would have measured at a speed where the
    calibration loop's median is ``CAL_REF_S``.  The raw figures and the
    factor go to stderr.  The SETUP_REPEATS cold starts are spread evenly over
    the run, between passes, for the same reason; ``setup_s`` is their median.
    """
    import numpy as np

    ops = workload.ops
    setup = setup_command(workload.setup_spec)
    setup()  # warms the file cache; not counted
    outputs = Outputs(len(ops))
    run_pass(ops, [], outputs)  # warm-up, not timed
    setup_runs = []  # (seconds, passed) of each counted cold start
    latencies, cal_times = [], []
    passes = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) * passes < MIN_OPS:
        if len(setup_runs) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setup_runs.append(setup())
        run_pass(ops, latencies, outputs, cal_times)
        passes += 1
    setup_runs += [setup() for _ in range(SETUP_REPEATS - len(setup_runs))]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = check_outputs(ops, outputs)
    per_op = np.median(np.reshape(latencies, (passes, len(ops))), axis=0)
    setup_s = statistics.median(t for t, _ in setup_runs)
    scale = CAL_REF_S / statistics.median(cal_times)
    print(f"speed factor {scale:.4f} (calibration median {1e3 * CAL_REF_S / scale:.4f} ms); "
          f"unscaled: ops_per_s {len(ops) / per_op.sum():.4f}, op_p50_ms "
          f"{1e3 * np.percentile(per_op, 50):.4f}, op_p90_ms {1e3 * np.percentile(per_op, 90):.4f}, "
          f"setup_s {setup_s:.4f}", file=sys.stderr)
    per_op_ms = 1e3 * scale * per_op
    metrics = {"ops_per_s": float(len(ops) / (scale * per_op.sum())),
               "op_p50_ms": float(np.percentile(per_op_ms, 50)),
               "op_p90_ms": float(np.percentile(per_op_ms, 90)),
               "setup_s": scale * setup_s,
               "peak_rss_mb": peak_kb / 1024}
    setup_ok = all(ok for _, ok in setup_runs)
    return len(ops) * (passes + 1), failed, setup_ok, metrics, END_TO_END_UNITS, passes


def traced_run(workload, seconds: float, seed: int):
    from perfbench import tracing
    from perfbench.ops import LAYER_MOVES

    ops = workload.ops
    latencies, outputs = [], Outputs(len(ops))
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    run_pass(ops, latencies, outputs)  # warm-up, untraced
    while True:
        plain.append(run_pass(ops, latencies, outputs))
        tracer.install()
        try:
            traced.append(run_pass(ops, latencies, outputs))
        finally:
            tracer.uninstall()
        tracer.observe = False  # keep call inputs from the first traced pass only
        if time.perf_counter() - start >= seconds and len(latencies) >= MIN_OPS:
            break
    failed = check_outputs(ops, outputs)
    metrics = tracer.metrics(len(traced))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    metrics["trace.op_s"] = statistics.median(traced)
    tracer.write(ROOT / "perfbench" / "out" / f"spans-{workload.name}.jsonl.gz",
                 {"workload": workload.name, "seed": seed, "traced_passes": len(traced),
                  "machine": machine(), "layer_moves": LAYER_MOVES})
    units = tracing.per_layer_units()
    metrics = {name: metrics[name] for name in units}
    return len(latencies), failed, True, metrics, units, len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jacobiweil" / "__init__.py").is_file():
        print(f"jacobiweil sources not found under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads: the loop is single-threaded and
    # the machine has two cores
    os.environ.update({var: "1" for var in BLAS_THREADS})
    sys.path[:0] = [str(SRC), str(ROOT)]
    import jacobiweil

    if Path(jacobiweil.__file__).resolve().parent != SRC / "jacobiweil":
        print(f"imported jacobiweil from {jacobiweil.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import ops as ops_mod

    if args.workload not in ops_mod.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(ops_mod.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = ops_mod.build(args.workload, args.seed)
    if args.trace:
        attempted, failed, setup_ok, metrics, units, passes = traced_run(
            workload, args.seconds, args.seed)
    else:
        attempted, failed, setup_ok, metrics, units, passes = timed_run(workload, args.seconds)

    print(json.dumps({"workload": args.workload, "seed": args.seed, "passes": passes,
                      "ops_per_pass": len(workload.ops), "samples": attempted,
                      "failed_frac": failed / attempted, "machine": machine()}),
          file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and setup_ok, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
