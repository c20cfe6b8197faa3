"""Tests for the multi-backend ODR registry (``repro.backends``).

Covers the registry round-trip, unknown-name errors, bit-identity of
the legacy strategies resolved through the registry, the two new
backends (D2D, cooperative AP cache), the delay-aware policy's
ranking, fault-gated routing, per-request policy selection in the web
app, and shard/job invariance of the comparison scorecard.
"""

import json

import pytest

from repro.backends import (
    Backend,
    BackendEstimate,
    BuildContext,
    CloudBackend,
    CooperativeApCache,
    CoopApCacheBackend,
    D2dBackend,
    DelayAwarePolicy,
    FaultGate,
    SmartApBackend,
    UnknownBackendError,
    UnknownPolicyError,
    UnknownStrategyError,
    backend_names,
    compose,
    create_backend,
    create_policy,
    policy_names,
    resolve_strategy,
    strategy_names,
)
from repro.backends import registry as registry_module
from repro.backends.base import UNREACHABLE_DELAY
from repro.backends.policies import _NO_AP_DIRECT
from repro.cloud.database import ContentDatabase
from repro.core.auxiliary import SmartApInfo, UserContext
from repro.core.decision import Action, DataSource, Decision
from repro.core.strategies import (
    AmsStrategy,
    CloudOnlyStrategy,
    FileSnapshot,
    OdrStrategy,
)
from repro.core.odr import OdrMiddleware
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.transfer.protocols import Protocol
from repro.workload.filetypes import FileType
from repro.workload.records import CatalogFile


def make_db(files):
    """A content database seeded with {file_id: (popularity, cached)}."""
    database = ContentDatabase()
    for file_id, (popularity, cached) in files.items():
        for when in range(popularity):
            database.record_request(file_id, 1e8, float(when))
        database.set_cached(file_id, cached)
    return database


def make_context(user_id="u1", bandwidth=4e6, ap=None):
    return UserContext(user_id=user_id, ip_address="1.2.3.4",
                       access_bandwidth=bandwidth, smart_ap=ap)


def hiwifi():
    from repro.ap.models import HIWIFI_1S
    return SmartApInfo.default_for(HIWIFI_1S)


class TestRegistryRoundTrip:
    def test_builtin_names_are_registered(self):
        assert backend_names() == ("cloud", "coop-ap", "d2d", "smart-ap")
        assert set(policy_names()) >= {
            "ams", "always-hybrid", "cloud-only", "delay-aware",
            "odr", "smart-ap-only"}
        assert strategy_names() == (
            "always-hybrid", "ams", "cloud-only", "delay-aware",
            "odr", "smart-ap-only")

    def test_register_create_and_unregister(self):
        from repro.backends.registry import register_backend, \
            register_policy

        @register_backend("test-null")
        class _NullBackend(Backend):
            name = "test-null"

            def __init__(self, build=None):
                pass

            def route(self, context, snapshot):
                return Decision(action=Action.CLOUD,
                                data_source=DataSource.CLOUD,
                                rationale="null")

        @register_policy("test-first")
        def _first_policy(build):
            class _First(DelayAwarePolicy):
                name = "test-first"
            return _First()

        try:
            assert "test-null" in backend_names()
            assert "test-first" in policy_names()
            backend = create_backend("test-null")
            assert backend.route(None, None).rationale == "null"
            assert create_policy("test-first").name == "test-first"
        finally:
            registry_module._BACKENDS.pop("test-null")
            registry_module._POLICIES.pop("test-first")
        assert "test-null" not in backend_names()

    def test_compose_builds_spec_backends_in_order(self):
        backends, policy = compose("delay-aware",
                                   database=ContentDatabase())
        assert [backend.name for backend in backends] == \
            ["coop-ap", "d2d", "smart-ap", "cloud"]
        assert policy.name == "delay-aware"

    def test_resolve_strategy_backend_override(self):
        strategy = resolve_strategy(
            "delay-aware", database=ContentDatabase(),
            backend_names=("d2d", "cloud"))
        assert [backend.name for backend in strategy.backends] == \
            ["d2d", "cloud"]
        assert strategy.policy.name == "delay-aware"

    def test_options_reach_the_factories(self):
        strategy = resolve_strategy("delay-aware",
                                    database=ContentDatabase(),
                                    deadline_seconds=60.0,
                                    d2d_neighbor_share=0.5)
        assert strategy.policy.deadline_seconds == 60.0
        d2d = [backend for backend in strategy.backends
               if backend.name == "d2d"][0]
        assert d2d.neighbor_share == 0.5


class TestUnknownNames:
    def test_unknown_backend_lists_known(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            create_backend("warp-drive")
        assert "cloud" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)

    def test_unknown_policy_lists_known(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            create_policy("coin-flip")
        assert "odr" in str(excinfo.value)

    def test_unknown_strategy_lists_known(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            compose("warp")
        assert "delay-aware" in str(excinfo.value)

    def test_odr_policy_requires_a_database(self):
        with pytest.raises(ValueError, match="content database"):
            create_policy("odr", BuildContext())


class TestLegacyBitIdentity:
    """Registry-composed strategies reproduce the legacy decisions."""

    GRID_FILES = {
        "hot-cached": (200, True), "hot-raw": (150, False),
        "cold-cached": (3, True), "cold-raw": (1, False),
    }

    def contexts(self):
        return [make_context("plain", 4e6, None),
                make_context("fast-ap", 20e6, hiwifi()),
                make_context("slow", 0.5e6, hiwifi())]

    def decisions(self, strategy):
        rows = []
        for context in self.contexts():
            for file_id in self.GRID_FILES:
                for protocol in (Protocol.HTTP, Protocol.BITTORRENT):
                    decision = strategy.decide(context, file_id,
                                               protocol)
                    rows.append((context.user_id, file_id,
                                 protocol.value,
                                 decision.action.value,
                                 decision.data_source.value,
                                 decision.rationale))
        return rows

    @pytest.mark.parametrize("name,legacy", [
        ("cloud-only", lambda db: CloudOnlyStrategy(db)),
        ("ams", lambda db: AmsStrategy(db)),
        ("odr", lambda db: OdrStrategy(OdrMiddleware(db))),
    ])
    def test_resolved_equals_legacy_class(self, name, legacy):
        reference = self.decisions(legacy(make_db(self.GRID_FILES)))
        resolved = self.decisions(resolve_strategy(
            name, database=make_db(self.GRID_FILES)))
        assert resolved == reference


class TestD2dBackend:
    def snapshot(self, demand, protocol=Protocol.BITTORRENT):
        return FileSnapshot(file_id="f", protocol=protocol,
                            popularity=int(demand), cached=False,
                            size=1e9, weekly_demand=float(demand))

    def test_needs_p2p_and_nearby_seeds(self):
        backend = D2dBackend()
        context = make_context()
        assert backend.available(context, self.snapshot(500))
        assert not backend.available(context, self.snapshot(5))
        assert not backend.available(
            context, self.snapshot(500, Protocol.HTTP))

    def test_route_is_the_d2d_action(self):
        decision = D2dBackend().route(make_context(),
                                      self.snapshot(500))
        assert decision.action is Action.D2D
        assert decision.data_source is DataSource.PEERS
        assert decision.bottlenecks_addressed == (1, 2)

    def test_estimate_is_free_for_the_cloud(self):
        estimate = D2dBackend().estimate(make_context(),
                                         self.snapshot(500))
        assert estimate.cloud_bytes == 0.0
        assert estimate.delay_seconds < UNREACHABLE_DELAY

    def test_estimate_unreachable_without_neighbors(self):
        estimate = D2dBackend().estimate(make_context(),
                                         self.snapshot(1))
        assert estimate.delay_seconds == UNREACHABLE_DELAY

    def test_neighbor_share_validated(self):
        with pytest.raises(ValueError):
            D2dBackend(neighbor_share=0.0)
        with pytest.raises(ValueError):
            D2dBackend(neighbor_share=1.5)


class TestCoopApCache:
    def catalog_rows(self):
        def row(file_id, size, demand):
            return CatalogFile(file_id=file_id, size=size,
                               file_type=FileType.VIDEO,
                               protocol=Protocol.BITTORRENT,
                               weekly_demand=demand,
                               source_url=f"magnet://o/{file_id}")
        return [row("huge-popular", 9e9, 1000),
                row("small-popular", 1e9, 500),
                row("small-mid", 1e9, 100),
                row("cold", 1e9, 1)]

    def test_from_catalog_greedy_skips_oversized(self):
        cache = CooperativeApCache.from_catalog(self.catalog_rows(),
                                                capacity_bytes=2.5e9)
        # The 9 GB head does not fit; the ranking continues past it.
        assert cache.resident_count == 2
        assert cache.admits(FileSnapshot("small-popular",
                                         Protocol.BITTORRENT))
        assert cache.admits(FileSnapshot("small-mid",
                                         Protocol.BITTORRENT))
        assert not cache.admits(FileSnapshot("huge-popular",
                                             Protocol.BITTORRENT))
        assert not cache.admits(FileSnapshot("cold",
                                             Protocol.BITTORRENT))
        assert cache.hits == 2 and cache.misses == 2

    def test_threshold_mode_without_catalog(self):
        cache = CooperativeApCache()
        popular = FileSnapshot("p", Protocol.BITTORRENT,
                               popularity=500)
        cold = FileSnapshot("c", Protocol.BITTORRENT, popularity=1)
        assert cache.admits(popular)
        assert not cache.admits(cold)

    def test_backend_needs_an_ap_and_a_hit(self):
        cache = CooperativeApCache.from_catalog(self.catalog_rows())
        backend = CoopApCacheBackend(cache=cache)
        hit = FileSnapshot("small-popular", Protocol.BITTORRENT,
                           size=1e9)
        assert backend.available(make_context(ap=hiwifi()), hit)
        assert not backend.available(make_context(ap=None), hit)
        decision = backend.route(make_context(ap=hiwifi()), hit)
        assert decision.action is Action.NEIGHBOR_AP
        assert decision.data_source is DataSource.NEIGHBOR_AP

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CooperativeApCache(capacity_bytes=0.0)


class _Stub(Backend):
    """A backend with a fixed forecast, for policy-ranking tests."""

    def __init__(self, name, delay, cloud_bytes, ok=True):
        self.name = name
        self._estimate = BackendEstimate(delay_seconds=delay,
                                         cloud_bytes=cloud_bytes)
        self._ok = ok

    def available(self, context, snapshot):
        return self._ok

    def route(self, context, snapshot):
        return Decision(action=Action.CLOUD,
                        data_source=DataSource.CLOUD,
                        rationale=f"stub:{self.name}")

    def estimate(self, context, snapshot):
        return self._estimate


class TestDelayAwarePolicy:
    SNAPSHOT = FileSnapshot("f", Protocol.HTTP, size=1e9)

    def test_cheapest_within_deadline_wins(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("a", 50.0, 1000.0), _Stub("b", 80.0, 0.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends)
        assert decision.rationale == "stub:b"

    def test_deadline_misses_rank_behind_meets(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("fast-miss", 150.0, 0.0),
                    _Stub("slow-meet", 99.0, 500.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends)
        assert decision.rationale == "stub:slow-meet"

    def test_all_missing_prefers_faster_at_equal_cost(self):
        policy = DelayAwarePolicy(deadline_seconds=10.0)
        backends = (_Stub("slower", 200.0, 0.0),
                    _Stub("faster", 150.0, 0.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends)
        assert decision.rationale == "stub:faster"

    def test_penalised_backends_are_last_resort(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("costly", 50.0, 1000.0),
                    _Stub("flaky", 80.0, 0.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends, penalised=frozenset({"flaky"}))
        assert decision.rationale == "stub:costly"

    def test_unavailable_backends_are_skipped(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("down", 1.0, 0.0, ok=False),
                    _Stub("up", 99.0, 500.0))
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 backends)
        assert decision.rationale == "stub:up"

    def test_no_backend_falls_back_to_direct(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        decision = policy.decide(make_context(), self.SNAPSHOT,
                                 (_Stub("down", 1.0, 0.0, ok=False),))
        assert decision == _NO_AP_DIRECT

    def test_deadline_validated(self):
        with pytest.raises(ValueError):
            DelayAwarePolicy(deadline_seconds=0.0)

    def test_per_request_budget_overrides_static_deadline(self):
        policy = DelayAwarePolicy(deadline_seconds=100.0)
        backends = (_Stub("slow-cheap", 80.0, 0.0),
                    _Stub("fast-costly", 30.0, 1000.0))
        # Against the static budget the slow-but-free backend wins.
        relaxed = policy.decide(make_context(), self.SNAPSHOT,
                                backends)
        assert relaxed.rationale == "stub:slow-cheap"
        # A propagated X-Deadline-Ms budget of 50 s flips the ranking:
        # only the costly backend still meets the deadline.
        hurried = UserContext(user_id="u1", ip_address="1.2.3.4",
                              access_bandwidth=4e6,
                              deadline_seconds=50.0)
        assert policy.effective_deadline(hurried) == 50.0
        assert policy.effective_deadline(make_context()) == 100.0
        decision = policy.decide(hurried, self.SNAPSHOT, backends)
        assert decision.rationale == "stub:fast-costly"


class TestFaultGate:
    def injector(self):
        plan = FaultPlan(name="test", seed=1, specs=(
            FaultSpec(kind="power_loss", target="ap:1",
                      start=100.0, duration=50.0),))
        return FaultInjector(plan)

    def test_domain_window_penalises_matching_backend(self):
        gate = FaultGate(self.injector())
        ap = SmartApBackend()
        assert gate.penalised(ap, 120.0)
        assert not gate.penalised(ap, 10.0)
        assert not gate.penalised(ap, 150.0)   # window is half-open

    def test_other_domains_unaffected(self):
        gate = FaultGate(self.injector())
        assert not gate.penalised(CloudBackend(), 120.0)
        assert not gate.penalised(D2dBackend(), 120.0)

    def test_gated_strategy_reorders_during_window(self):
        strategy = resolve_strategy("delay-aware",
                                    database=ContentDatabase(),
                                    faults=self.injector())
        strategy.now = 120.0
        backends, penalised = strategy._routing()
        assert penalised == {"coop-ap", "smart-ap"}
        # Penalised backends drop to the back of the preference order.
        assert [backend.name for backend in backends] == \
            ["d2d", "cloud", "coop-ap", "smart-ap"]
        strategy.now = 10.0
        backends, penalised = strategy._routing()
        assert penalised == frozenset()
        assert [backend.name for backend in backends] == \
            ["coop-ap", "d2d", "smart-ap", "cloud"]


class TestWebAppPolicySelection:
    def test_policy_param_switches_the_strategy(self):
        from repro.core.webapp import OdrWebApp
        app = OdrWebApp()
        query = ("/decide?link=magnet://origin/xyz&popularity=200"
                 "&bandwidth_mbps=20&ap=hiwifi")
        status, _type, body, _c, _h = app.handle(query)
        assert status == 200
        assert json.loads(body)["policy"] == "odr"
        status, _type, body, _c, _h = app.handle(
            query + "&policy=cloud-only")
        assert status == 200
        payload = json.loads(body)
        assert payload["policy"] == "cloud-only"
        assert payload["action"] in ("cloud", "cloud_predownload")

    def test_unknown_policy_is_a_400(self):
        from repro.core.webapp import OdrWebApp
        app = OdrWebApp()
        status, _type, body, _c, _h = app.handle(
            "/decide?link=http://host/f&policy=warp")
        assert status == 400
        assert "warp" in json.loads(body)["error"]

    def test_service_accepts_a_policy_name(self):
        from repro.core.service import OdrService
        service = OdrService(ContentDatabase(), policy="delay-aware")
        response = service.handle_request(
            make_context(ap=hiwifi()), "magnet://origin/abc")
        assert response.decision.action in tuple(Action)


class TestComparisonDeterminism:
    LIMIT = 60

    def scorecard(self, **overrides):
        from repro.backends.replay import compare
        settings = dict(scale=0.01, seed=20150222, limit=self.LIMIT,
                        shards=2, jobs=1)
        settings.update(overrides)
        return compare(**settings)

    def test_digest_invariant_across_shards(self):
        digests = {self.scorecard(shards=shards)["digest"]
                   for shards in (1, 2, 5)}
        assert len(digests) == 1

    def test_digest_invariant_across_jobs(self):
        assert self.scorecard(jobs=2)["digest"] == \
            self.scorecard(jobs=1)["digest"]

    def test_rerun_is_identical(self):
        first = self.scorecard()
        second = self.scorecard()
        assert first == second

    def test_scorecard_covers_the_new_backends(self):
        scorecard = self.scorecard()
        names = [combo["name"] for combo in scorecard["combos"]]
        assert "cloud/cloud-only" in names
        assert "cloud+ap/odr" in names
        assert "all/delay-aware" in names
        shares = {name: combo["backend_share"]
                  for name, combo in zip(names, scorecard["combos"])}
        assert shares["cloud/cloud-only"].get("cloud") == 1.0
        assert set(shares["all/delay-aware"]) & {"d2d", "coop-ap"}

    def test_seed_changes_the_digest(self):
        assert self.scorecard()["digest"] != \
            self.scorecard(seed=7)["digest"]

    def test_cli_unknown_combo_exits_2(self, capsys):
        from repro.backends.__main__ import main
        assert main(["--combo", "no-such-combo"]) == 2
        assert "known:" in capsys.readouterr().err

    def test_cli_quiet_prints_the_digest(self, capsys):
        from repro.backends.__main__ import main
        assert main(["--limit", str(self.LIMIT), "--shards", "2",
                     "--combo", "cloud-only", "--quiet"]) == 0
        digest = capsys.readouterr().out.strip()
        assert len(digest) == 64
        assert int(digest, 16) is not None


class TestPinnedScorecards:
    """Scorecard digests pinned before the comparison engine stopped
    regenerating the week per shard: building each input once must not
    change a byte of any scorecard."""

    PINNED = {
        "cli-defaults": (
            {},
            "eb6d245d9c05babdb29aecbd7e778634fe7634f4a779071fb9fcf1410f013e56"),
        "ci-shape": (
            {"scale": 0.002, "limit": 200},
            "65fd197bc080894aceb9bab98fa9fff3c0f60bd26b645ebeefa7599653bf62a3"),
        "ci-shape-faults": (
            {"scale": 0.002, "limit": 200, "faults": True},
            "e85b9099a755352ed86c27119506d044836381ac0c57581de9ceac15e7664207"),
        "paper-week-shape": (
            {"scale": 0.0075, "seed": 20150222, "limit": 400},
            "4e45fc8a0b22dd459700e8061d1dd2ddc2bdc082a1d90c24497fc503206d9b91"),
    }

    @pytest.mark.parametrize("shape", sorted(PINNED))
    def test_digest_is_pinned(self, shape):
        from repro.backends.replay import compare
        settings, digest = self.PINNED[shape]
        assert compare(**settings)["digest"] == digest

    @staticmethod
    def count_generate(monkeypatch):
        from repro.workload.generator import WorkloadGenerator
        calls = []
        original = WorkloadGenerator.generate

        def counting(self, *args, **kwargs):
            calls.append(self.config.scale)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(WorkloadGenerator, "generate", counting)
        return calls

    def test_one_compare_generates_the_week_at_most_once(
            self, monkeypatch):
        from repro.backends.replay import compare
        calls = self.count_generate(monkeypatch)
        compare(scale=0.002, limit=200, shards=5)
        assert len(calls) <= 1

    def test_a_given_workload_is_never_regenerated(self, monkeypatch):
        from repro.backends.replay import compare
        from repro.workload import WorkloadConfig, WorkloadGenerator
        week = WorkloadGenerator(
            WorkloadConfig(scale=0.002, seed=20150222)).generate()
        calls = self.count_generate(monkeypatch)
        scorecard = compare(scale=0.002, limit=200, shards=3,
                            workload=week)
        assert calls == []
        assert scorecard["digest"] == self.PINNED["ci-shape"][1]

    def test_a_workload_of_another_week_is_refused(self):
        from repro.backends.replay import compare
        from repro.workload import WorkloadConfig, WorkloadGenerator
        week = WorkloadGenerator(
            WorkloadConfig(scale=0.002, seed=20150222)).generate()
        with pytest.raises(ValueError, match="seed=7"):
            compare(scale=0.002, seed=7, limit=50, workload=week)

    def test_backend_matrix_replays_the_contexts_week(self):
        # The context holds only a request prefix of the week (as the
        # benchmark's columnar round trip does); the matrix reads the
        # first MATRIX_LIMIT rows of it, which are the week's.
        import dataclasses

        from repro.backends.replay import compare
        from repro.experiments import backend_matrix
        from repro.experiments.context import ExperimentContext
        from repro.workload import WorkloadConfig, WorkloadGenerator
        week = WorkloadGenerator(
            WorkloadConfig(scale=0.002, seed=20150222)).generate()
        prefix = dataclasses.replace(week, requests=week.requests[
            :backend_matrix.MATRIX_LIMIT + 100])
        context = ExperimentContext(scale=0.002, seed=20150222,
                                    _workload=prefix)
        report = backend_matrix.run(context)
        expected = compare(scale=0.002, seed=20150222,
                           limit=backend_matrix.MATRIX_LIMIT)
        assert report.data["digest"] == expected["digest"]
