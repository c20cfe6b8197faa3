"""``repro.perf`` — golden determinism digests.

Its only module, :mod:`repro.perf.golden`, pins every optimised surface
by a canonical SHA-256 digest (``tests/data/golden_digests.json``);
``tests/test_perf_golden.py`` recomputes them from the live code on
every run.  Speed is measured by the repository benchmark,
``perfbench/run.py``.
"""
