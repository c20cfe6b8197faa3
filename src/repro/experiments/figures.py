"""Render the paper's figures as SVG files from a simulated context.

Usage::

    python -m repro.experiments.figures --scale 0.02 --outdir figures/

Each figure mirrors its counterpart in the paper: same axes, same
series, same reference lines (e.g. the 30 Gbps purchased-capacity line
in Figure 11).
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro.analysis.cdf import CDF
from repro.analysis.fitting import fit_se, fit_zipf
from repro.analysis.svg import SvgFigure
from repro.experiments.context import DEFAULT_SCALE, ExperimentContext, \
    default_context
from repro.sim.clock import DAY, MINUTE, to_gbps
from repro.workload.popularity import rank_popularity_curve


def _cdf_series(cdf: CDF, scale: float = 1.0,
                points: int = 120) -> tuple[list[float], list[float]]:
    pairs = cdf.points(points)
    return [value / scale for value, _q in pairs], \
        [q for _value, q in pairs]


def fig05(context: ExperimentContext) -> SvgFigure:
    figure = SvgFigure("Figure 5: CDF of requested file size",
                       "File Size (MB)", "CDF")
    sizes = CDF(np.sort([record.size for record
                         in context.workload.catalog]))
    xs, ys = _cdf_series(sizes, scale=1e6)
    figure.add_line(xs, ys, "requested files")
    return figure


def fig06(context: ExperimentContext) -> SvgFigure:
    ranks, popularity = rank_popularity_curve(
        context.workload.catalog.demands())
    fit = fit_zipf(ranks, popularity)
    figure = SvgFigure(
        f"Figure 6: popularity, Zipf fit "
        f"(err {fit.average_relative_error:.1%})",
        "Ranking", "Popularity", xlog=True, ylog=True)
    step = max(1, len(ranks) // 400)
    figure.add_scatter(ranks[::step], popularity[::step], "measurement")
    figure.add_line(ranks[::step], fit.predict(ranks[::step]),
                    "Zipf fitting", dash="5,3")
    return figure


def fig07(context: ExperimentContext) -> SvgFigure:
    ranks, popularity = rank_popularity_curve(
        context.workload.catalog.demands())
    fit = fit_se(ranks, popularity)
    figure = SvgFigure(
        f"Figure 7: popularity, SE fit (c={fit.c:g}, "
        f"err {fit.average_relative_error:.1%})",
        "Ranking", f"Popularity^c", xlog=True)
    step = max(1, len(ranks) // 400)
    figure.add_scatter(ranks[::step], popularity[::step] ** fit.c,
                       "measurement")
    figure.add_line(ranks[::step],
                    fit.predict(ranks[::step]) ** fit.c,
                    "SE fitting", dash="5,3")
    return figure


def fig08(context: ExperimentContext) -> SvgFigure:
    result = context.cloud_result
    figure = SvgFigure("Figure 8: cloud speed CDFs", "Speed (KBps)",
                       "CDF")
    for cdf, label in ((result.attempt_speed_cdf(), "Pre-downloading"),
                       (result.e2e_speed_cdf(), "End-to-End"),
                       (result.fetch_speed_cdf(), "Fetching")):
        xs, ys = _cdf_series(cdf, scale=1e3)
        figure.add_line(xs, ys, label)
    return figure


def fig09(context: ExperimentContext) -> SvgFigure:
    result = context.cloud_result
    figure = SvgFigure("Figure 9: cloud delay CDFs", "Delay (minutes)",
                       "CDF")
    for cdf, label in ((result.fetch_delay_cdf(), "Fetching"),
                       (result.e2e_delay_cdf(), "End-to-End"),
                       (result.attempt_delay_cdf(), "Pre-downloading")):
        xs, ys = _cdf_series(cdf, scale=MINUTE)
        figure.add_line(xs, ys, label)
    return figure


def fig10(context: ExperimentContext) -> SvgFigure:
    scatter = context.cloud_result.failure_ratio_by_demand()
    figure = SvgFigure("Figure 10: popularity vs failure ratio",
                       "Request Popularity (in one week)",
                       "Average Failure Ratio (%)")
    xs = [demand for demand, _ratio in scatter]
    ys = [100.0 * ratio for _demand, ratio in scatter]
    figure.add_scatter(xs, ys, "files")
    return figure


def fig11(context: ExperimentContext) -> SvgFigure:
    result = context.cloud_result
    scale = context.scale
    total = to_gbps(result.bandwidth_series()) / scale
    highly = to_gbps(result.bandwidth_series(
        only_highly_popular=True)) / scale
    days = np.arange(len(total)) * 300.0 / DAY
    figure = SvgFigure("Figure 11: cloud upload bandwidth burden",
                       "Day", "Bandwidth Burden (Gbps)")
    figure.add_line(days, total, "All Files")
    figure.add_line(days, highly, "Highly Popular")
    figure.add_hline(30.0, "30 Gbps")
    return figure


def fig13(context: ExperimentContext) -> SvgFigure:
    figure = SvgFigure("Figure 13: AP pre-download speed CDF",
                       "Pre-downloading Speed (KBps)", "CDF")
    for cdf, label in (
            (context.cloud_result.attempt_speed_cdf(), "Cloud-based"),
            (context.ap_report.speed_cdf(), "Smart APs")):
        xs, ys = _cdf_series(cdf, scale=1e3)
        figure.add_line(xs, ys, label)
    return figure


def fig14(context: ExperimentContext) -> SvgFigure:
    figure = SvgFigure("Figure 14: AP pre-download delay CDF",
                       "Pre-downloading Delay (minutes)", "CDF")
    for cdf, label in (
            (context.cloud_result.attempt_delay_cdf(), "Cloud-based"),
            (context.ap_report.delay_cdf(), "Smart APs")):
        xs, ys = _cdf_series(cdf, scale=MINUTE)
        figure.add_line(xs, ys, label)
    return figure


def fig16(context: ExperimentContext) -> SvgFigure:
    cloud = context.cloud_result
    odr = context.odr_result
    reduction = odr.cloud_bandwidth_reduction(
        context.cloud_only_result)
    conventional = [cloud.impeded_fetch_share, 1.0,
                    context.ap_report.unpopular_failure_ratio,
                    context.ap_only_result.write_path_limited_share]
    with_odr = [odr.impeded_share, 1.0 - reduction,
                odr.unpopular_failure_ratio,
                odr.write_path_limited_share]
    figure = SvgFigure("Figure 16: bottlenecks, conventional vs ODR",
                       "Performance Bottleneck", "Percentage")
    xs = [1, 2, 3, 4]
    figure.add_bars(xs, conventional, "Cloud or Smart APs")
    figure.add_bars(xs, with_odr, "ODR")
    return figure


def fig17(context: ExperimentContext) -> SvgFigure:
    figure = SvgFigure("Figure 17: fetching speed with ODR",
                       "Fetching Speed (KBps)", "CDF")
    for cdf, label in (
            (context.odr_result.fetch_speed_cdf(), "ODR middleware"),
            (context.cloud_result.fetch_speed_cdf(),
             "Xuanfeng users")):
        xs, ys = _cdf_series(cdf, scale=1e3)
        figure.add_line(xs, ys, label)
    return figure


FIGURES = {
    "fig05": fig05, "fig06": fig06, "fig07": fig07, "fig08": fig08,
    "fig09": fig09, "fig10": fig10, "fig11": fig11, "fig13": fig13,
    "fig14": fig14, "fig16": fig16, "fig17": fig17,
}


def render_all(context: ExperimentContext,
               outdir: str | Path) -> list[Path]:
    """Render every figure into ``outdir``; returns the written paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    from repro.recovery.atomic import atomic_write_text
    for name, builder in FIGURES.items():
        path = outdir / f"{name}.svg"
        atomic_write_text(path, builder(context).render())
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.figures", description=__doc__)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--outdir", type=Path, default=Path("figures"))
    args = parser.parse_args(argv)
    written = render_all(default_context(scale=args.scale), args.outdir)
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
