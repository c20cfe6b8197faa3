"""The offline workloads' checks fire on tampered results."""

from types import SimpleNamespace

import pytest

from perfbench import offline
from perfbench.harness import DigestMismatch, check_pinned


def report(experiment_id, *values):
    rows = [SimpleNamespace(quantity=f"q{i}", measured_value=value)
            for i, value in enumerate(values)]
    return SimpleNamespace(experiment_id=experiment_id, comparisons=rows)


def test_report_digest_sees_the_last_bit_of_a_measured_value():
    reports = [report("fig05", 0.1, 2), report("fig08", 3.5)]
    digest = offline.report_digest(reports)
    assert digest == offline.report_digest(
        [report("fig05", 0.1, 2), report("fig08", 3.5)])
    tampered = [report("fig05", 0.1 + 2 ** -55, 2), report("fig08", 3.5)]
    assert offline.report_digest(tampered) != digest
    pinned = {"paper-week:5": digest}
    assert check_pinned(pinned, "paper-week", 5, digest)
    with pytest.raises(DigestMismatch):
        check_pinned(pinned, "paper-week", 5,
                     offline.report_digest(tampered))


def test_sharded_plan_follows_the_seed():
    assert offline.sharded_plan(1) != offline.sharded_plan(2)
    assert offline.sharded_plan(1).specs()[0].seed == 1


def test_iterate_runs_once_then_only_while_another_run_fits():
    calls = []

    def once(index):
        calls.append(index)
        return 0.0
    assert len(offline.iterate(0.0, once)) == 1
    assert calls == [0]
