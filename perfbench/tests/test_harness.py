"""The benchmark's own measurement rules."""

import math
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from perfbench.harness import (
    DigestMismatch,
    Span,
    Tracer,
    beyond,
    check_pinned,
    covered,
    descendants,
    self_times,
    stop_descendants,
    tail,
)
from perfbench.layers import END_TO_END, PER_LAYER, SELF_TIME


# -- percentile rule -------------------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert beyond(1000, 99) == 10
    result = tail(range(1, 1001))
    assert (result.label, result.value, result.samples) == ("p99", 990, 1000)


def test_short_sample_falls_back_to_highest_supported_percentile():
    assert beyond(999, 99) == 9
    result = tail(range(1, 1000))
    assert result.label == "p98"
    assert beyond(999, 98) >= 10
    assert result.value == 980


def test_tiny_sample_reports_its_maximum():
    result = tail([3.0, 1.0, 2.0])
    assert (result.label, result.value, result.samples) == ("p100", 3.0, 3)


def test_percentile_ignores_input_order():
    values = [float(v) for v in range(2000)]
    assert tail(values) == tail(list(reversed(values)))


def test_empty_sample_is_an_error():
    with pytest.raises(ValueError):
        tail([])


# -- span self time --------------------------------------------------------------

def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "run")


def test_self_time_subtracts_children():
    spans = [span("root", 0.0, 10.0),
             span("a", 1.0, 3.0, 0),
             span("b", 4.0, 8.0, 0),
             span("a", 5.0, 6.0, 2)]   # grandchild, under "b"
    own = self_times(spans)
    assert own == {"root": 4.0, "a": 3.0, "b": 3.0}
    assert sum(own.values()) == spans[0].duration


def test_overlapping_children_subtract_their_union():
    spans = [span("step", 0.0, 10.0),
             span("req", 1.0, 4.0, 0),
             span("req", 2.0, 5.0, 0),
             span("req", 9.0, 12.0, 0)]   # runs past its parent
    assert covered([(1.0, 4.0), (2.0, 5.0), (9.0, 12.0)], 0.0, 10.0) == 5.0
    assert self_times(spans)["step"] == 5.0


def test_tracer_self_times_add_up_to_the_root():
    tracer = Tracer("test")
    with tracer.span("root"):
        with tracer.span("x"):
            time.sleep(0.002)
        with tracer.span("y"):
            with tracer.span("x"):
                time.sleep(0.001)
    own = tracer.self_times()
    root = tracer.spans[0]
    assert root.parent is None
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 2]
    assert math.isclose(sum(own.values()), root.duration, rel_tol=1e-9)
    assert own["x"] >= 0.003


def test_disabled_tracer_records_nothing():
    tracer = Tracer("off", enabled=False)
    with tracer.span("root") as index:
        tracer.add("child", 0.0, 1.0, index)
    assert tracer.spans == [] and index is None


# -- pinned digests --------------------------------------------------------------

def test_pinned_digest_passes_when_equal_and_skips_unpinned_seeds():
    pinned = {"paper-week:7": "abc"}
    assert check_pinned(pinned, "paper-week", 7, "abc") is True
    assert check_pinned(pinned, "paper-week", 8, "zzz") is False


def test_pinned_digest_fires_on_a_tampered_result():
    pinned = {"sharded-week:7": "abc"}
    with pytest.raises(DigestMismatch):
        check_pinned(pinned, "sharded-week", 7, "abd")


# -- metric catalogue ------------------------------------------------------------

def test_every_layer_names_what_it_should_move():
    names = [metric.name for metric in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(metric.moves for metric in PER_LAYER)
    assert {"setup_s", "tasks_per_s"} <= {m.name for m in END_TO_END}
    layer_names = {metric.name for metric in PER_LAYER}
    for names in SELF_TIME.values():
        assert set(names) <= layer_names
        assert not any(name.startswith("trace.") for name in names)


# -- no process outlives a run ---------------------------------------------------

def _square(value):
    return value * value


def test_stop_descendants_ends_stragglers_and_the_resource_tracker():
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import resource_tracker
    context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(max_workers=1, mp_context=context)
    assert pool.submit(_square, 3).result() == 9
    pool.shutdown(wait=False)
    straggler = subprocess.Popen([sys.executable, "-c",
                                  "import time; time.sleep(60)"])
    signalled = stop_descendants(grace=5.0)
    assert straggler.pid in signalled
    assert resource_tracker._resource_tracker._fd is None
    assert not [pid for pid in descendants(os.getpid())
                if os.path.exists(f"/proc/{pid}")]
    straggler.wait(timeout=5)
