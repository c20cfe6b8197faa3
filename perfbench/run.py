"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-week --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` makes the separate traced run and prints the per-layer
metrics (its spans go to ``.perfbench/traces/``).  Every metric is
printed by name with its unit; the last line of standard output is the
JSON result.  The exit code is 0 once a result is printed, even when a
check failed (``"correct": false``), and non-zero when no result could
be produced -- for instance outside a checkout of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives here, inside the checkout.
OUT = ROOT / ".perfbench"
WORKLOADS = ("paper-week", "sharded-week", "decide-trace")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed: the same seed gives the "
                             "same inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                      else []))
    env["TMPDIR"] = str(tmp)
    return env


def run(args: argparse.Namespace) -> dict:
    from perfbench import offline, online
    from perfbench.harness import calibrate, host_info, load_pinned
    from perfbench.layers import END_TO_END, PER_LAYER, REPORTED, SELF_TIME

    workloads = {"paper-week": offline.paper_week,
                 "sharded-week": offline.sharded_week,
                 "decide-trace": online.decide_trace}
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    pinned = load_pinned(Path(__file__).with_name("pinned.json"))
    try:
        calib_start = calibrate()
        outcome = workloads[args.workload](
            args.seed, args.seconds, bool(args.trace),
            child_env(OUT / "tmp"), workdir, pinned)
        calib_end = calibrate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = outcome.metrics
    metrics["host.calib_ms"] = (calib_start + calib_end) / 2.0
    tracer = outcome.notes.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT / "traces" / f"{args.workload}-{args.seed}.json")
    if args.trace and args.workload in SELF_TIME:
        parts = sum(metrics[name] for name in SELF_TIME[args.workload]
                    if name in metrics)
        whole = metrics["trace.wall_s"]
        if abs(parts + metrics["trace.unattributed_s"] - whole) \
                > 1e-9 * max(whole, 1.0):
            outcome.fail("self times do not add up to the traced wall")

    host = host_info()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# host nproc={host['nproc']} python={host['python']} "
          f"affinity={host['affinity']} calib_ms start={calib_start:.3f} "
          f"end={calib_end:.3f}")
    for key, value in outcome.notes.items():
        print(f"# {key}: {value}")
    failed_share = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'failed_share':<34} {failed_share:>14.6g} ratio "
          f"({outcome.failed}/{outcome.attempted})")
    chosen = PER_LAYER if args.trace else END_TO_END
    result = {}
    bypassed = 0
    for metric in chosen:
        applies = args.workload in metric.workloads
        if applies and metric.name not in metrics:
            raise RuntimeError(f"{args.workload} did not measure "
                               f"{metric.name}")
        value = float(metrics.get(metric.name, 0.0))
        result[metric.name] = {"value": value, "unit": metric.unit}
        if applies:
            where = f"moves {metric.moves}" if args.trace \
                else f"{metric.better} is better"
            print(f"  {metric.name:<34} {value:>14.6g} {metric.unit:<7} "
                  f"{where}")
        else:
            bypassed += 1
    for metric in REPORTED:
        if metric.name in metrics and metric.name not in result:
            print(f"  {metric.name:<34} {metrics[metric.name]:>14.6g} "
                  f"{metric.unit:<7} reported, not gated")
    if bypassed:
        print(f"# {bypassed} metric(s) of layers this workload bypasses "
              f"read 0")
    for problem in outcome.problems:
        print(f"! {problem}")
    return {"correct": outcome.correct,
            "attempted": max(outcome.attempted, 1),
            "failed": outcome.failed,
            "metrics": result}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench.harness import stop_descendants
    # A terminated run still stops what it started (see the finally).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    started = time.perf_counter()
    try:
        result = run(args)
    finally:
        left = stop_descendants()
    if left:
        print(f"# stopped {len(left)} process(es) still running at the "
              f"end: {left}")
    print(f"# wall {time.perf_counter() - started:.1f}s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
