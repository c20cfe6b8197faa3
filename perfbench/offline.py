"""The two offline workloads: ``paper-week`` and ``sharded-week``.

Both drive the reproduction through its public functions, in the order
a researcher runs it, and check what comes back: a columnar round trip
must return the generated records, no experiment may fail, and result
digests must match the ones pinned for the default seed.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median
from typing import Callable

from perfbench.harness import (
    Outcome,
    Tracer,
    TreePeakRss,
    canonical_digest,
    check_pinned,
    self_times,
)

PAPER_SCALE = 0.0075
#: paper-week keeps the first this many requests of the seed's week, so
#: every seed gives an input of the same size (a scale-0.0075 week holds
#: about 24k-37k requests, depending on the seed).  The input is sized
#: so a run repeats the whole pipeline several times: the host's
#: speed drifts over tens of seconds, and a run of one or two long
#: repetitions reads that drift instead of the program.
PAPER_REQUESTS = 20_000
#: Sized, like paper-week, for several repetitions per run.
SHARDED_SCALE = 0.015
SHARDS = 8
JOBS = 2
#: Launches timed per run for ``setup_s``; the median is reported.
SETUP_LAUNCHES = 9

PAPER_IMPORTS = ("repro.workload", "repro.experiments.context",
                 "repro.experiments.runner")
SHARDED_IMPORTS = ("repro.scale.plan", "repro.scale.pipelines")


def launch_seconds(env: dict[str, str], modules: tuple[str, ...]) -> float:
    """Median wall time from launching a fresh interpreter until it has
    imported ``modules`` -- the point where the first timed call of the
    workload could start."""
    code = "; ".join(f"import {name}" for name in modules) \
        + "; print('ready', flush=True)"
    timings = []
    for _ in range(SETUP_LAUNCHES):
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code], env=env,
                                 stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            timings.append(time.perf_counter() - started)
        finally:
            child.stdout.close()
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup launch failed: {line!r}")
    return median(timings)


def iterate(seconds: float, once: Callable[[int], float]) -> list[float]:
    """Run ``once(i)`` (returning its wall seconds) at least once, and
    again while another run still fits in ``seconds``."""
    walls: list[float] = []
    started = time.perf_counter()
    while not walls or (time.perf_counter() - started
                        + mean(walls) <= seconds):
        gc.collect()   # the last run's garbage is not this run's cost
        walls.append(once(len(walls)))
    return walls


# -- paper-week ------------------------------------------------------------------

def report_digest(reports) -> str:
    """SHA-256 over every report's measured values, exactly."""
    def exact(value):
        try:
            return float(value).hex()
        except (TypeError, ValueError):
            return repr(value)
    return canonical_digest([
        [report.experiment_id,
         [[row.quantity, exact(row.measured_value)]
          for row in report.comparisons]]
        for report in reports])


def paper_week_once(seed: int, workdir: Path, tracer: Tracer) -> dict:
    """One researcher run: generate, encode, read back, replay, analyze."""
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import run_all
    from repro.workload import (
        WorkloadConfig,
        WorkloadGenerator,
        load_workload,
        save_workload,
    )
    started = time.perf_counter()
    with tracer.span("paper-week"):
        with tracer.span("workload.generate"):
            week = WorkloadGenerator(
                WorkloadConfig(scale=PAPER_SCALE, seed=seed)).generate()
            workload = dataclasses.replace(
                week, requests=week.requests[:PAPER_REQUESTS])
        with tracer.span("traceio.write"):
            save_workload(workload, workdir, trace_format="columnar")
        with tracer.span("traceio.read"):
            back = load_workload(workdir, trace_format="columnar")
        context = ExperimentContext(scale=PAPER_SCALE, seed=seed,
                                    _workload=back)
        with tracer.span("cloud.replay"):
            context.warm("cloud_result")
        with tracer.span("ap.replay"):
            context.warm("ap_report")
        with tracer.span("core.odr_replay"):
            context.warm("odr_result", "cloud_only_result",
                         "ap_only_result")
        with tracer.span("experiments.run_all"):
            reports = run_all(context)
    wall = time.perf_counter() - started
    return {"wall": wall, "workload": workload, "back": back,
            "context": context, "reports": reports}


def check_paper_week(run: dict, outcome: Outcome) -> str:
    """Validate one run; returns its report digest."""
    workload, back, context = run["workload"], run["back"], run["context"]
    if back.requests != workload.requests \
            or back.users != workload.users \
            or list(back.catalog) != list(workload.catalog):
        outcome.fail("columnar round trip changed the records")
    outcome.attempted += len(run["reports"]) + len(context.failures)
    outcome.failed += len(context.failures)
    for failure in context.failures:
        outcome.fail(f"experiment {failure.experiment_id} failed: "
                     f"{failure.error}")
    return report_digest(run["reports"])


def paper_week_layers(run: dict, tracer: Tracer, workdir: Path
                      ) -> dict[str, float]:
    """Per-layer numbers of one traced run (self times and counts)."""
    context = run["context"]
    own = self_times(tracer.spans)
    tasks = context.cloud_result.tasks
    hits = sum(1 for task in tasks if task.pre_record.cache_hit)
    succeeded = sum(1 for task in tasks if task.succeeded)
    layers = {
        "workload.generate_s": own["workload.generate"],
        "traceio.write_s": own["traceio.write"],
        "traceio.read_s": own["traceio.read"],
        "traceio.bytes": float(sum(path.stat().st_size
                                   for path in workdir.iterdir())),
        "cloud.replay_s": own["cloud.replay"],
        "cloud.tasks": float(len(tasks)),
        "cloud.cache_hit_ratio": hits / len(tasks),
        "cloud.failed_share": 1.0 - succeeded / len(tasks),
        "ap.replay_s": own["ap.replay"],
        "ap.failed_share": context.ap_report.failure_ratio,
        "core.odr_replay_s": own["core.odr_replay"],
        "experiments.total_s": own["experiments.run_all"],
    }
    for experiment_id, seconds in context.timings.items():
        layers[f"experiments.{experiment_id}_s"] = seconds
    attributed = sum(value for name, value in layers.items()
                     if name.endswith("_s")
                     and name != "experiments.total_s")
    layers["trace.wall_s"] = tracer.spans[0].duration
    layers["trace.unattributed_s"] = layers["trace.wall_s"] - attributed
    return layers


def paper_week(seed: int, seconds: float, trace: bool, env: dict,
               workdir: Path, pinned: dict) -> Outcome:
    outcome = Outcome(correct=True, attempted=0, failed=0)
    setup = launch_seconds(env, PAPER_IMPORTS)
    digests: list[str] = []
    tasks: list[int] = []
    rss = TreePeakRss()

    def once(index: int, tracer: Tracer) -> float:
        run = paper_week_once(seed, workdir / f"trace-{index}", tracer)
        digests.append(check_paper_week(run, outcome))
        tasks.append(len(run["workload"].requests))
        if tracer.enabled:
            outcome.metrics.update(paper_week_layers(
                run, tracer, workdir / f"trace-{index}"))
        return run["wall"]

    with rss:
        if trace:
            untraced = once(0, Tracer("paper-week", enabled=False))
            tracer = Tracer(f"paper-week-{seed}")
            traced = once(1, tracer)
            outcome.notes["tracer"] = tracer
            outcome.metrics["trace.overhead_share"] = \
                traced / untraced - 1.0
            walls = [untraced, traced]
        else:
            walls = iterate(seconds, lambda index: once(
                index, Tracer("paper-week", enabled=False)))
    if len(set(digests)) != 1:
        outcome.fail(f"report digests differ between runs: {digests}")
    elif check_pinned(pinned, "paper-week", seed, digests[0]):
        outcome.notes["pinned"] = "matched"
    outcome.notes["digest"] = digests[0]
    outcome.notes["input"] = f"{tasks[0]} requests at scale {PAPER_SCALE}"
    outcome.notes["walls_s"] = walls
    rates = [count / wall for count, wall in zip(tasks, walls)]
    outcome.metrics.update({
        "tasks_per_s": median(rates),
        "peak_rss_mb": rss.total_mb(),
        "setup_s": setup,
    })
    return outcome


# -- sharded-week ----------------------------------------------------------------

def sharded_plan(seed: int):
    from repro.scale.plan import ShardPlan
    return ShardPlan(scale=SHARDED_SCALE, seed=seed, shards=SHARDS)


def sharded_split(seed: int, tracer: Tracer):
    """The jobs=1 run taken apart in-process: generate each shard,
    replay it, merge -- the same calls a pool worker makes."""
    from repro.scale.replay import ShardReplay, merge_stats
    from repro.scale.shardgen import UserDirectory, generate_shard
    parts = []
    with tracer.span("scale.split"):
        for spec in sharded_plan(seed).specs():
            with tracer.span("scale.shardgen"):
                workload = generate_shard(spec)
                directory = UserDirectory(spec.seed, spec.plan.user_count)
            with tracer.span("scale.replay"):
                parts.append(ShardReplay().run(
                    workload, user_lookup=directory.by_id))
        with tracer.span("scale.merge"):
            merged = merge_stats(parts)
    return merged


def sharded_week(seed: int, seconds: float, trace: bool, env: dict,
                 workdir: Path, pinned: dict) -> Outcome:
    from repro.scale.pipelines import sharded_cloud_stats
    outcome = Outcome(correct=True, attempted=0, failed=0)
    setup = launch_seconds(env, SHARDED_IMPORTS)
    digests: list[str] = []
    rates: list[float] = []
    peaks: list[TreePeakRss] = []
    infos = []

    def once(index: int, tracer: Tracer) -> float:
        outcome.attempted += SHARDS
        rss = TreePeakRss()
        started = time.perf_counter()
        # A lost worker is retried inside; a shard that cannot be
        # completed raises, and the run ends without a result.
        with rss, tracer.span("scale.sharded_cloud_stats"):
            stats, info = sharded_cloud_stats(sharded_plan(seed), jobs=JOBS)
        wall = time.perf_counter() - started
        # The pool shuts down without waiting for its workers; let them
        # exit so the next run's process tree holds only its own.
        deadline = time.monotonic() + 30.0
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:
            time.sleep(0.02)
        peaks.append(rss)
        infos.append(info)
        digests.append(stats.digest())
        rates.append(stats.tasks / wall)
        outcome.notes["input"] = (f"{stats.tasks} tasks at scale "
                                  f"{SHARDED_SCALE}, {SHARDS} shards, "
                                  f"jobs={JOBS}")
        return wall

    if trace:
        untraced = once(0, Tracer("sharded-week", enabled=False))
        tracer = Tracer(f"sharded-week-{seed}")
        traced = once(1, tracer)
        split_digest = sharded_split(seed, tracer).digest()
        if split_digest != digests[-1]:
            outcome.fail(f"jobs=1 split digest {split_digest} != jobs="
                         f"{JOBS} digest {digests[-1]}")
        outcome.notes["tracer"] = tracer
        outcome.metrics.update(sharded_layers(tracer, infos[-1],
                                              peaks[-1]))
        outcome.metrics["trace.overhead_share"] = traced / untraced - 1.0
        walls = [untraced, traced]
    else:
        walls = iterate(seconds, lambda index: once(
            index, Tracer("sharded-week", enabled=False)))
    if len(set(digests)) != 1:
        outcome.fail(f"stats digests differ between runs: {digests}")
    elif check_pinned(pinned, "sharded-week", seed, digests[0]):
        outcome.notes["pinned"] = "matched"
    outcome.notes["digest"] = digests[0]
    outcome.notes["walls_s"] = walls
    outcome.metrics.update({
        "tasks_per_s": median(rates),
        "peak_rss_mb": max(rss.total_mb() for rss in peaks),
        "setup_s": setup,
    })
    return outcome


def sharded_layers(tracer: Tracer, info, rss: TreePeakRss
                   ) -> dict[str, float]:
    own = self_times(tracer.spans)
    split = next(span for span in tracer.spans
                 if span.name == "scale.split")
    walls = sorted(info.shard_walls)
    layers = {
        "scale.shardgen_s": own["scale.shardgen"],
        "scale.replay_s": own["scale.replay"],
        "scale.merge_s": own["scale.merge"],
        "trace.wall_s": split.duration,
        "scale.work_s": info.work_seconds,
        "scale.shard_wall_p50_s": median(walls),
        "scale.shard_wall_max_s": walls[-1],
        "scale.idle_s": info.jobs * info.wall_seconds - info.work_seconds,
        "scale.retries": float(info.shard_retries),
        "scale.worker_peak_rss_mb": rss.max_child_mb(),
        "scale.parent_peak_rss_mb": rss.parent_mb(),
    }
    layers["trace.unattributed_s"] = own["scale.split"]
    return layers
