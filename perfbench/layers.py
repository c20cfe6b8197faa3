"""Every metric the benchmark reports: unit, workload, and what it moves.

``END_TO_END`` are what a user of the system sees, measured with
tracing off.  ``PER_LAYER`` come from the separate traced run; each
names the workload that exercises it and the end-to-end metric it
should move, written down before any change claims a gain.  A layer a
workload bypasses reports 0 there: the prediction for that workload is
no change.
"""

from __future__ import annotations

from dataclasses import dataclass

PAPER = "paper-week"
SHARDED = "sharded-week"
DECIDE = "decide-trace"
OFFLINE = (PAPER, SHARDED)
ALL = (PAPER, SHARDED, DECIDE)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    workloads: tuple[str, ...]
    meaning: str
    better: str = "lower"
    moves: str = ""


END_TO_END = [
    Metric("tasks_per_s", "tasks/s", ALL,
           "tasks completed per wall second at the stated input size: "
           "trace tasks through the whole pipeline (paper-week, "
           "sharded-week); on decide-trace the server's capacity, "
           "requests per second of its core from the CPU it spends per "
           "request at the high rate", better="higher"),
    Metric("peak_rss_mb", "MB", ALL,
           "peak RSS summed over the process tree (parent, pool "
           "workers, server child), from VmHWM"),
    Metric("setup_s", "s", ALL,
           "launch until the first timed call can start (median of "
           "nine launches); decide-trace: spawn to first /healthz 200"),
]

#: Printed by every run of the workloads they name, beside the JSON
#: result, but not gated: a gated metric must be measured on every
#: workload and never read 0, and these are 0 or undefined on some; on
#: a shared host the tail latency and the search also swing by more
#: than any usable bound.  ``failed_share`` is the result's
#: ``failed / attempted``; the latencies are also per-layer metrics of
#: the traced run.
REPORTED = [
    Metric("failed_share", "ratio", ALL,
           "failed / attempted operations: experiments (paper-week), "
           "shards lost (sharded-week), requests (decide-trace)"),
    Metric("sustained_rps", "req/s", (DECIDE,),
           "highest offered rate with p99 <= 50 ms from due time, "
           "failed_share <= 1%, achieved >= 0.95x offered and a "
           "backlog that does not grow", better="higher"),
    Metric("p50_ms.low", "ms", (DECIDE,), "median latency at 300 rps"),
    Metric("p99_ms.low", "ms", (DECIDE,), "p99 latency at 300 rps"),
    Metric("p50_ms.high", "ms", (DECIDE,), "median latency at 900 rps"),
    Metric("p99_ms.high", "ms", (DECIDE,), "p99 latency at 900 rps"),
]

EXPERIMENT_IDS = (
    "workload_stats", "fig05", "fig06_07", "fig08", "fig09", "fig10",
    "fig11", "cloud_text", "table1", "fig13_14", "ap_failures",
    "table2", "fig16", "fig17", "backend_matrix")


def _layer(name: str, unit: str, workloads, moves: str,
           meaning: str = "", better: str = "lower") -> Metric:
    if isinstance(workloads, str):
        workloads = (workloads,)
    return Metric(name, unit, tuple(workloads), meaning, better, moves)


PER_LAYER = [
    _layer("workload.generate_s", "s", PAPER, "tasks_per_s",
           "WorkloadGenerator.generate"),
    _layer("traceio.write_s", "s", PAPER, "tasks_per_s, peak_rss_mb",
           "save_workload(trace_format='columnar')"),
    _layer("traceio.read_s", "s", PAPER, "tasks_per_s, peak_rss_mb",
           "load_workload of the columnar files"),
    _layer("traceio.bytes", "bytes", PAPER, "tasks_per_s, peak_rss_mb",
           "size of the columnar trace directory"),
    _layer("cloud.replay_s", "s", PAPER, "tasks_per_s",
           "ExperimentContext.warm('cloud_result')"),
    _layer("cloud.tasks", "count", PAPER, "tasks_per_s",
           better="higher"),
    _layer("cloud.cache_hit_ratio", "ratio", PAPER, "tasks_per_s",
           better="higher"),
    _layer("cloud.failed_share", "ratio", PAPER, "tasks_per_s",
           "modelled tasks that did not complete"),
    _layer("ap.replay_s", "s", PAPER, "tasks_per_s",
           "ExperimentContext.warm('ap_report')"),
    _layer("ap.failed_share", "ratio", PAPER, "tasks_per_s"),
    _layer("core.odr_replay_s", "s", PAPER, "tasks_per_s",
           "warm('odr_result', 'cloud_only_result', 'ap_only_result')"),
    *[_layer(f"experiments.{experiment_id}_s", "s", PAPER, "tasks_per_s",
             "ExperimentContext.timings")
      for experiment_id in EXPERIMENT_IDS],
    _layer("experiments.total_s", "s", PAPER, "tasks_per_s",
           "run_all over every registered experiment"),
    _layer("scale.shardgen_s", "s", SHARDED, "tasks_per_s",
           "generate_shard, jobs=1 in-process split"),
    _layer("scale.replay_s", "s", SHARDED, "tasks_per_s",
           "ShardReplay.run, jobs=1 in-process split"),
    _layer("scale.merge_s", "s", SHARDED, "tasks_per_s",
           "merge_stats, jobs=1 in-process split"),
    _layer("scale.work_s", "s", SHARDED, "tasks_per_s",
           "sum of shard walls in the jobs=2 run"),
    _layer("scale.shard_wall_p50_s", "s", SHARDED, "tasks_per_s"),
    _layer("scale.shard_wall_max_s", "s", SHARDED, "tasks_per_s",
           "the slowest shard sets the tail"),
    _layer("scale.idle_s", "s", SHARDED, "tasks_per_s",
           "jobs x wall - work"),
    _layer("scale.retries", "count", SHARDED, "tasks_per_s"),
    _layer("scale.worker_peak_rss_mb", "MB", SHARDED, "peak_rss_mb"),
    _layer("scale.parent_peak_rss_mb", "MB", SHARDED, "peak_rss_mb"),
    _layer("serve.cpu_us_per_req", "us", DECIDE,
           "tasks_per_s, p50_ms.high, p99_ms.high",
           "server child's utime+stime per completed request, high step"),
    _layer("serve.latency_ms.p50", "ms", DECIDE, "p50_ms.*",
           "/metrics histogram, /decide"),
    _layer("serve.latency_ms.p99", "ms", DECIDE, "p99_ms.*",
           "/metrics histogram, /decide"),
    _layer("serve.batch_size.mean", "count", DECIDE, "p50_ms.*, p99_ms.*",
           better="higher"),
    _layer("serve.admitted", "count", DECIDE, "p50_ms.*, p99_ms.*",
           "/statz", better="higher"),
    _layer("serve.sheds", "count", DECIDE, "p50_ms.*, p99_ms.*", "/statz"),
    _layer("core.handle_us", "us", DECIDE,
           "serve.cpu_us_per_req -> tasks_per_s", "OdrWebApp.handle"),
    _layer("core.handle_batch_us", "us", DECIDE,
           "serve.cpu_us_per_req -> tasks_per_s",
           "OdrWebApp.handle_batch, batches of two"),
    _layer("core.decide_us", "us", DECIDE,
           "serve.cpu_us_per_req -> tasks_per_s",
           "OdrService.handle_request"),
    _layer("loadgen.cpu_us_per_req", "us", DECIDE,
           "none (diagnoses a client-bound step)"),
    _layer("loadgen.lag_ms.p99", "ms", DECIDE,
           "none (how late the generator sent)"),
    _layer("loadgen.client_bound", "flag", DECIDE,
           "none (1 when the client used > 90% of its core)"),
    _layer("decide.repeat_link_share", "ratio", DECIDE,
           "none (workload property later caching changes cite)"),
    _layer("decide.ap_share", "ratio", DECIDE,
           "none (workload property later caching changes cite)"),
    *[_layer(f"{stat}_ms.{step}", "ms", DECIDE,
             "none (latency from due time, an outcome of the serve "
             "and core layers above)", f"{stat} latency at {rate} rps")
      for step, rate in (("low", 300), ("high", 900))
      for stat in ("p50", "p99")],
    _layer("host.calib_ms", "ms", ALL, "none (exposes machine drift)"),
    _layer("trace.overhead_share", "ratio", ALL,
           "none (tracing cost against the untraced run)"),
    _layer("trace.wall_s", "s", OFFLINE,
           "none (traced wall the self times add up to)"),
    _layer("trace.unattributed_s", "s", OFFLINE,
           "none (traced wall outside every layer span)"),
]

#: Self-time layers whose sum plus ``trace.unattributed_s`` is
#: ``trace.wall_s`` on a traced offline run.
SELF_TIME = {
    PAPER: [metric.name for metric in PER_LAYER
            if PAPER in metric.workloads and metric.unit == "s"
            and metric.name != "experiments.total_s"
            and not metric.name.startswith("trace.")],
    SHARDED: ["scale.shardgen_s", "scale.replay_s", "scale.merge_s"],
}
