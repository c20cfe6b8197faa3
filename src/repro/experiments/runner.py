"""Run every registered experiment and render EXPERIMENTS.md.

Usage::

    python -m repro.experiments.runner --scale 0.01 --output EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path
from typing import Sequence

from repro.experiments import REGISTRY, default_context
from repro.experiments.base import ExperimentReport
from repro.experiments.context import (
    DEFAULT_SCALE,
    ExperimentContext,
    ExperimentFailure,
)
from repro.obs import NOOP, span

#: Paper-section ordering for the document.
ORDER = [
    "workload_stats", "fig05", "fig06_07", "fig08", "fig09", "fig10",
    "fig11", "cloud_text", "table1", "fig13_14", "ap_failures",
    "table2", "fig16", "fig17", "backend_matrix",
]


def run_all(context: ExperimentContext | None = None
            ) -> list[ExperimentReport]:
    """Execute every registered experiment against one shared context.

    Each driver runs inside a tracing span; its wall-clock seconds land
    in ``context.timings`` and (when the context carries a live
    registry) in ``repro_experiments_wall_seconds`` gauges, alongside
    the peak simulation heap depth exposed as
    ``context.peak_heap_depth``.
    """
    context = context or default_context()
    missing = sorted(set(REGISTRY) - set(ORDER))
    reports = []
    for experiment_id in ORDER + missing:
        try:
            with span(context.metrics, "experiment", id=experiment_id):
                started = time.perf_counter()
                report = REGISTRY[experiment_id](context)
                elapsed = time.perf_counter() - started
        except Exception as error:   # noqa: BLE001 - degrade, not die
            # One broken driver must not take down the whole document:
            # record it, keep going, and let main() exit non-zero.
            context.failures.append(ExperimentFailure(
                experiment_id=experiment_id,
                error=f"{type(error).__name__}: {error}",
                traceback=traceback.format_exc()))
            context.metrics.counter("repro_experiments_failures_total",
                                    experiment=experiment_id).inc()
            continue
        context.timings[experiment_id] = elapsed
        context.metrics.gauge("repro_experiments_wall_seconds",
                              experiment=experiment_id).set(elapsed)
        reports.append(report)
    return reports


def render_experiments_md(reports: list[ExperimentReport],
                          scale: float,
                          failures: Sequence[ExperimentFailure] = ()
                          ) -> str:
    lines = [
        "# EXPERIMENTS -- paper vs measured",
        "",
        "Reproduction of every table and figure in \"Offline Downloading"
        " in China: A Comparative Study\" (IMC 2015).",
        "",
        f"All rows below were produced by `python -m "
        f"repro.experiments.runner --scale {scale}` -- a synthetic week "
        f"at {scale:.0%} of the real trace's dimensions, simulated "
        "end-to-end (no numbers are hard-coded into the pipeline; the "
        "`paper=` column comes from `repro.paper`, the `measured=` "
        "column from the simulation).",
        "",
        "Scale-free quantities (ratios, shares, medians of per-flow "
        "distributions) compare directly; bandwidth totals are rescaled "
        "to paper units by the population scale factor.",
        "",
        "## Known divergences and why",
        "",
        "* **Cloud failure levels** (paper 8.7% overall / 13% unpopular /"
        " 16.4% no-cache). The paper's trio of cache statistics (89% "
        "request-level hits, 8.7% with-cache and 16.4% no-cache "
        "failures) is mutually over-determined under any mechanistic "
        "cache model: with an 89% hit ratio, failures can only occur on "
        "the 11% of misses, which caps the with-cache failure ratio "
        "well below 8.7% unless per-miss failure approaches 80%. The "
        "simulator matches the hit ratio, the popularity-failure "
        "correlation (Fig. 10), and the cache's *halving* of the "
        "failure ratio; the absolute failure levels land lower "
        "(~3% / ~9% / ~7%).",
        "* **Pre-download near-zero share** (paper 21%, measured "
        "~25-30%). The cloud's attempt population is miss-biased toward "
        "dead-source files; the production system's attempt mix was "
        "shaped by years of cache history we cannot observe.",
        "* **Fetch/e2e delay means** (paper 27 / 68 min). The paper's "
        "fetch trace records 'finish/pause' times, so user-paused slow "
        "fetches truncate their recorded delays; the simulator lets "
        "slow fetches run to completion, lengthening the mean (medians "
        "agree).",
        "* **Fig. 6/7 fit coefficients**. Absolute Zipf/SE intercepts "
        "depend on the trace's absolute dimensions; at reduced scale we "
        "reproduce the comparative claim (SE beats Zipf, flattened "
        "head) and report our own coefficients.",
        "* **ISP-barrier share** (paper 9.6%, measured ~10-14%). At "
        "reduced scale the per-ISP upload pools hold few concurrent "
        "flows, so admission granularity produces extra overflow onto "
        "cross-ISP paths during peaks; the artefact shrinks as "
        "``--scale`` grows.",
        "* **B3 under ODR** (paper 13%, measured ~4%). The paper quotes "
        "the cloud's production unpopular-failure level; our replay "
        "runs after the simulated week, when the cache already covers "
        "most sampled files, so ODR's measured unpopular failure is "
        "even lower.",
        "",
    ]
    for report in reports:
        lines.append(f"## {report.experiment_id}: {report.title}")
        lines.append("")
        lines.append("```")
        lines.append(report.render())
        lines.append("```")
        lines.append("")
    for failure in failures:
        lines.append(f"## {failure.experiment_id}: FAILED")
        lines.append("")
        lines.append(f"This experiment raised `{failure.error}` and "
                     "produced no results; the rest of the document "
                     "is unaffected.")
        lines.append("")
        lines.append("```")
        lines.append(failure.traceback.rstrip())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The runner's flags; ``repro experiments`` forwards to them."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner", description=__doc__)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="fraction of the real week to synthesise")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the context's)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="run driver groups in N worker processes "
                             "(repro.scale); results are independent of "
                             "N, including N=1")
    parser.add_argument("--run-dir", type=Path, default=None,
                        help="durable run: checkpoint each finished "
                             "experiment group here (resumable)")
    parser.add_argument("--resume", type=Path, default=None,
                        help="resume a --run-dir: completed groups are "
                             "reloaded from their checkpoints, only "
                             "unfinished groups are recomputed")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        help="per-group watchdog seconds (with "
                             "--run-dir/--resume)")
    parser.add_argument("--max-shard-retries", type=int, default=None,
                        help="requeue budget for a lost group worker")
    parser.add_argument("--output", type=Path, default=None,
                        help="write EXPERIMENTS.md here (default: stdout)")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="instrument the run and write metrics here")
    parser.add_argument("--metrics-format",
                        choices=("jsonl", "prom", "table"),
                        default="jsonl")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.resume is None and args.run_dir is None and (
            args.shard_timeout is not None
            or args.max_shard_retries is not None):
        parser.error("--shard-timeout/--max-shard-retries need "
                     "--run-dir or --resume")

    from repro.experiments.context import DEFAULT_SEED
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    from repro.experiments.scorecard import Scorecard, evaluate_claims
    recovery = None
    if args.resume is not None or args.run_dir is not None:
        from repro.recovery import RecoveryConfig
        from repro.recovery.durable import DEFAULT_MAX_RETRIES
        recovery = RecoveryConfig(
            run_dir=args.resume or args.run_dir,
            resume=args.resume is not None,
            shard_timeout=args.shard_timeout,
            max_shard_retries=args.max_shard_retries
            if args.max_shard_retries is not None
            else DEFAULT_MAX_RETRIES)
    if args.jobs is not None or recovery is not None:
        # The parallel group runner: same document for any --jobs value
        # (each driver group rebuilds its artefacts in a fresh context,
        # so this path's numbers differ slightly from the shared-context
        # sequential path where later drivers see mutated artefacts).
        # --run-dir/--resume route here too: group checkpoints belong
        # to this path, where every group is a self-contained worker.
        from repro.scale.runner import run_parallel
        metrics = NOOP
        if args.metrics_out is not None:
            from repro.obs import MetricsRegistry
            metrics = MetricsRegistry()
        reports, claims, _timings, failures = run_parallel(
            args.scale, seed, jobs=args.jobs or 1, metrics=metrics,
            recovery=recovery)
        context = ExperimentContext(scale=args.scale, seed=seed,
                                    metrics=metrics)
        context.failures.extend(failures)
    else:
        context = default_context(scale=args.scale, seed=seed)
        if args.metrics_out is not None:
            from repro.obs import MetricsRegistry
            context.metrics = MetricsRegistry()
        reports = run_all(context)
        claims = evaluate_claims(context)
    document = render_experiments_md(reports, args.scale,
                                     failures=context.failures)

    scorecard = Scorecard(reports=reports, claims=claims)
    document += "\n## Reproduction scorecard\n\n```\n" + \
        scorecard.render() + "\n```\n"
    if args.output is not None:
        # Atomic so a crash mid-write can never corrupt the previous
        # good EXPERIMENTS.md.
        from repro.recovery.atomic import atomic_write_text
        atomic_write_text(args.output, document)
        print(f"wrote {args.output} ({len(reports)} experiments)")
    else:
        print(document)
    if args.metrics_out is not None:
        from repro.obs import export
        export(context.metrics, args.metrics_format, args.metrics_out)
        print(f"wrote {args.metrics_format} metrics to "
              f"{args.metrics_out}")
    if context.failures:
        for failure in context.failures:
            print(f"EXPERIMENT FAILED {failure.experiment_id}: "
                  f"{failure.error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
