"""Time-series binning for bandwidth-burden plots (Figure 11).

Flows are intervals ``(start, end, rate)``; binning integrates each
flow's rate over its overlap with every bin, yielding the time-average
committed bandwidth per bin -- the paper's 5-minute-interval upload
burden series.
"""

from __future__ import annotations

from itertools import islice

import numpy as np


#: Flows binned per step of :func:`bin_rate_series`: bounds its
#: temporaries whatever the flow count, while each step still
#: amortises numpy's per-call cost.
_FLOW_CHUNK = 256


def bin_rate_series(flows, bin_width: float,
                    horizon: float) -> np.ndarray:
    """Average aggregate rate per bin over ``[0, horizon)``.

    ``flows`` is an iterable of ``(start, end, rate)`` triples in
    seconds / B/s.  Returns an array of length ``ceil(horizon/bin_width)``
    in B/s.

    Each flow is clipped to ``[0, horizon)`` and expanded into one
    ``rate x overlap`` term per bin it touches; ``np.add.at`` sums the
    terms unbuffered in (flow, bin) order, the order of a plain nested
    loop, so every float is bit-identical to accumulating one flow at
    a time.
    """
    if bin_width <= 0 or horizon <= 0:
        raise ValueError("bin_width and horizon must be positive")
    n_bins = int(np.ceil(horizon / bin_width))
    totals = np.zeros(n_bins)
    pending = iter(flows)
    while block := list(islice(pending, _FLOW_CHUNK)):
        starts, ends, rates = np.array(block, dtype=float).T
        clipped_starts = np.maximum(starts, 0.0)
        clipped_ends = np.minimum(ends, horizon)
        keep = (rates > 0) & (clipped_ends > clipped_starts)
        starts, ends = clipped_starts[keep], clipped_ends[keep]
        rates = rates[keep]
        firsts = (starts / bin_width).astype(np.int64)
        lasts = np.minimum(((ends - 1e-12) / bin_width).astype(np.int64),
                           n_bins - 1)
        counts = np.maximum(lasts - firsts + 1, 0)
        total = int(counts.sum())
        if total == 0:
            continue
        # Bin index of every (flow, bin) pair: the pair's position in
        # the block, shifted by its flow's first bin less the flow's
        # offset into the block.
        index = np.arange(total)
        index += np.repeat(firsts - (np.cumsum(counts) - counts), counts)
        lo = index * bin_width
        np.maximum(lo, np.repeat(starts, counts), out=lo)
        overlap = (index + 1) * bin_width
        np.minimum(overlap, np.repeat(ends, counts), out=overlap)
        overlap -= lo
        np.maximum(overlap, 0.0, out=overlap)
        overlap *= np.repeat(rates, counts)
        np.add.at(totals, index, overlap)
    return totals / bin_width


def peak_of_series(series: np.ndarray) -> tuple[int, float]:
    """(bin index, value) of the series maximum."""
    series = np.asarray(series, dtype=float)
    if len(series) == 0:
        raise ValueError("empty series has no peak")
    index = int(np.argmax(series))
    return index, float(series[index])
