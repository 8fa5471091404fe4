"""Geo-distributed serving tier: exactness, routing, economics.

The geo contract mirrors the sharded one — equality, not
approximation.  A single-region fleet with zero interconnect delay
and stock policies is **bit-identical** to the plain
``ServingSimulator`` on every stock scenario x policy cell
(per-request latencies AND energies); multi-region runs are
deterministic, lose no requests, and the routing policies show their
designed behaviours (follow-the-sun chases the deepest night,
cheapest-joule respects the SLO and capacity headroom, spillover
stays home until saturated, storms reroute dark regions).
"""

import hashlib
import io
import json
import pickle
from array import array

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.serving import geo as geo_module
from repro.serving import (
    GEO_POLICIES,
    GeoDispatchPolicy,
    GeoRouter,
    HomeRegionDispatch,
    Interconnect,
    POLICIES,
    REQUEST_BYTES,
    RegionFailurePlan,
    RegionOutage,
    RegionSpec,
    SCENARIOS,
    STOCK_REGIONS,
    Request,
    ServingSimulator,
    ShardedEngine,
    default_regions,
    make_geo,
    make_policy,
    validate_geo,
)

SEED = 3
N = 400

#: One region, SMART x2, zero-width interconnect — the monolithic twin.
SOLO = (RegionSpec("solo", accelerator="SMART", replicas=2),)


def _geo_solo(scenario, policy):
    router = GeoRouter(SOLO, policy=policy, batch_size=8,
                       detail=True, mode="inline")
    return router.run_scenario(scenario, N, seed=SEED)


def _monolithic(scenario, policy):
    simulator = ServingSimulator(
        "SMART", replicas=2,
        policy=make_policy(policy, batch_size=8),
        dispatch="round_robin",
    )
    return simulator.run_scenario(scenario, N, seed=SEED)


class TestZeroDrift:
    """Single region + zero delay + stock policies == plain engine."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_bit_identical_on_every_stock_cell(self, name, policy):
        geo = _geo_solo(name, policy)
        mono = _monolithic(name, policy)
        assert geo.detail is not None
        assert geo.detail.latencies == mono.latencies
        assert geo.detail.energy_per_request == mono.energy_per_request

    def test_aggregates_match_monolithic(self):
        geo = _geo_solo("bursty", "timeout")
        mono = _monolithic("bursty", "timeout")
        assert geo.requests == len(mono.latencies)
        assert geo.energy == pytest.approx(sum(mono.energy_per_request))
        assert geo.batches == len(mono.batches)
        assert geo.net_delay_s == 0.0
        assert geo.remote_frac == 0.0


class TestInterconnect:
    def test_same_region_is_free(self):
        for topology in ("ring", "mesh", "tree"):
            icx = Interconnect(5, topology=topology)
            assert icx.delay(2, 2) == 0.0
            assert icx.hops(2, 2) == 0

    def test_mesh_is_one_hop(self):
        icx = Interconnect(6, topology="mesh")
        assert all(icx.hops(a, b) == 1
                   for a in range(6) for b in range(6) if a != b)
        assert icx.diameter() == 1

    def test_ring_takes_the_short_way_round(self):
        icx = Interconnect(6, topology="ring")
        assert icx.hops(0, 1) == 1
        assert icx.hops(0, 5) == 1  # wraps, not 5 hops
        assert icx.hops(0, 3) == 3
        assert icx.diameter() == 3

    def test_tree_walks_the_lca(self):
        icx = Interconnect(7, topology="tree")
        assert icx.hops(1, 0) == 1  # child -> root
        assert icx.hops(3, 4) == 2  # siblings via parent 1
        assert icx.hops(3, 6) == 4  # leaf -> root -> leaf
        assert icx.diameter() == 4

    def test_delay_is_store_and_forward(self):
        icx = Interconnect(6, topology="ring", bandwidth_gbps=10.0,
                           base_latency_us=50.0)
        per_hop = 50e-6 + REQUEST_BYTES * 8.0 / 10e9
        assert icx.delay(0, 3) == pytest.approx(3 * per_hop)
        # payload size scales the serialisation term only
        assert icx.delay(0, 1, nbytes=0) == pytest.approx(50e-6)

    def test_validation(self):
        with pytest.raises(ConfigError, match="topology"):
            Interconnect(3, topology="torus")
        with pytest.raises(ConfigError, match="bandwidth"):
            Interconnect(3, bandwidth_gbps=0.0)
        with pytest.raises(ConfigError, match="at least one"):
            Interconnect(0)
        icx = Interconnect(3)
        with pytest.raises(ConfigError, match="outside"):
            icx.hops(0, 3)
        with pytest.raises(ConfigError, match="payload"):
            icx.delay(0, 1, nbytes=-1)


class TestGeoPolicies:
    def test_follow_sun_moves_traffic_on_diurnal(self):
        router = GeoRouter(3, geo="follow_sun", topology="ring",
                           mode="inline")
        result = router.run_scenario("diurnal", 1200, seed=SEED)
        assert result.requests == 1200
        assert result.remote_frac > 0.3  # the sun really moved it

    def test_follow_sun_stays_home_without_a_wave(self):
        router = GeoRouter(3, geo="follow_sun", mode="inline")
        result = router.run_scenario("steady", 600, seed=SEED)
        assert result.remote_frac == 0.0  # flat wave -> fewest hops

    def test_cheapest_joule_prefers_cheap_grids(self):
        home = GeoRouter(3, geo="home", mode="inline") \
            .run_scenario("diurnal", 1200, seed=SEED)
        cheap = GeoRouter(3, geo="cheapest_joule", mode="inline") \
            .run_scenario("diurnal", 1200, seed=SEED)
        assert cheap.cost_usd < home.cost_usd

    def test_spillover_stays_home_under_capacity(self):
        router = GeoRouter(3, geo="spillover", mode="inline")
        result = router.run_scenario("steady", 600, seed=SEED)
        assert result.remote_frac < 0.1

    def test_runs_are_deterministic(self):
        def run():
            row = GeoRouter(
                4, geo="cheapest_joule", topology="ring", storms=1,
                slo_us=4000.0, mode="inline",
            ).run_scenario("diurnal", 800, seed=SEED).to_row()
            row.pop("agg_rps")  # wall-clock based, the only exception
            return row
        assert run() == run()

    def test_make_geo_rejects_unknown(self):
        with pytest.raises(ConfigError, match="geo policy"):
            make_geo("teleport")
        assert set(GEO_POLICIES) == {"home", "follow_sun",
                                     "cheapest_joule", "spillover"}

    def test_unregistered_policy_instance_routes(self):
        class Last(GeoDispatchPolicy):
            name = "last"

            def route(self, time, home, router):
                return router.regions - 1

        result = GeoRouter(3, geo=Last(), mode="inline") \
            .run_scenario("steady", 300, seed=SEED)
        assert [r.outcome.requests for r in result.regions] == [0, 0, 300]
        assert result.geo == result.to_row()["geo"] == "last"

    def test_name_colliding_instance_routes_by_its_own_route(self):
        class NextDoor(HomeRegionDispatch):
            name = "home"  # shadows the stock policy's name

            def route(self, time, home, router):
                return (home + 1) % router.regions

        result = GeoRouter(3, geo=NextDoor(), mode="inline") \
            .run_scenario("steady", 300, seed=SEED)
        assert result.geo == "home"
        assert result.remote_frac == 1.0
        # region h's admissions are all served by region h + 1
        assert [r.offered for r in result.regions] == \
            [r.outcome.requests for r in
             result.regions[1:] + result.regions[:1]]

    @pytest.mark.parametrize("topology", ["ring", "mesh", "tree"])
    def test_router_view_tables_match_the_interconnect(self, topology):
        seen = []

        class Probe(HomeRegionDispatch):
            def reset(self, router):
                icx = Interconnect(4, topology=topology)
                for src in range(4):
                    for dst in range(4):
                        assert router.hops(src, dst) == \
                            icx.hops(src, dst)
                        assert router.delay(src, dst) == \
                            icx.delay(src, dst)
                # out of range raises the interconnect's ConfigError:
                # never an IndexError, never a negative-index wrap
                for src, dst in ((0, 4), (4, 0), (-1, 0), (0, -1)):
                    for probe in (router.hops, router.delay):
                        with pytest.raises(ConfigError, match="outside"):
                            probe(src, dst)
                seen.append(topology)

        GeoRouter(4, topology=topology, geo=Probe(), mode="inline") \
            .run_scenario("steady", 40, seed=SEED)
        assert seen == [topology]


class TestRegionStorms:
    def test_storm_reroutes_dark_region(self):
        calm = GeoRouter(4, topology="ring", mode="inline") \
            .run_scenario("steady", 2000, seed=1)
        stormy = GeoRouter(4, topology="ring", storms=2,
                           mode="inline") \
            .run_scenario("steady", 2000, seed=1)
        assert calm.requests == stormy.requests == 2000
        assert sum(r.rerouted for r in stormy.regions) > 0
        assert sum(r.rerouted for r in calm.regions) == 0

    @pytest.mark.parametrize("resilience",
                             ["", "none", "retry:timeout_us=30000"])
    def test_failover_retries_only_under_resilience(self, resilience):
        result = GeoRouter(4, topology="ring", storms=2,
                           resilience=resilience, mode="inline") \
            .run_scenario("steady", 2000, seed=1)
        row = result.to_row()
        assert result.requests == 2000
        if resilience.startswith("retry"):
            assert row["resilience"] == resilience
            assert row["retried"] == result.retried > 0
        else:
            # "none" normalises to no resilience at all
            assert result.resilience == ""
            assert result.retried == 0
            assert "resilience" not in row and "retried" not in row
            assert all("retried" not in r for r in result.region_rows())

    def test_outage_window_validates(self):
        with pytest.raises(ConfigError):
            RegionOutage(region=0, at=2.0, until=1.0)
        outage = RegionOutage(region=1, at=1.0, until=2.0)
        assert outage.down(1.5) and not outage.down(2.5)

    def test_plan_is_seeded_and_bounded(self):
        plan = RegionFailurePlan(count=3, seed=9)
        outages = plan.resolve(0.0, 100.0, regions=4)
        assert outages == plan.resolve(0.0, 100.0, regions=4)
        assert len(outages) == 3
        for o in outages:
            assert 0.0 <= o.at < o.until
            assert 0 <= o.region < 4


class TestFleetAccounting:
    def test_region_rows_cover_the_fleet(self):
        router = GeoRouter(4, geo="follow_sun", topology="ring",
                           slo_us=4000.0, mode="inline")
        result = router.run_scenario("diurnal", 1000, seed=SEED)
        rows = result.region_rows()
        assert [r["region"] for r in rows] == \
            [spec.name for spec in default_regions(4)]
        assert sum(r["requests"] for r in rows) == 1000
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        for row in rows:
            assert 0.0 <= row["slo_attain"] <= 1.0
            assert row["usd_per_mj"] > 0

    def test_no_request_lost_across_regions(self):
        for count in (2, 3, 5):
            result = GeoRouter(count, geo="follow_sun",
                               topology="ring", mode="inline") \
                .run_scenario("bursty", 900, seed=SEED)
            assert result.requests == 900
            assert sum(r.offered for r in result.regions) == 900

    def test_validate_geo_rejects_malformed_fleets(self):
        with pytest.raises(ConfigError, match="unique"):
            validate_geo((RegionSpec("a"), RegionSpec("a")))
        with pytest.raises(ConfigError, match="at least one"):
            validate_geo(())
        with pytest.raises(ConfigError, match="replica"):
            RegionSpec("a", replicas=0)
        with pytest.raises(ConfigError, match="at least one request"):
            GeoRouter(5, mode="inline").run_scenario("steady", 3,
                                                     seed=SEED)

    def test_stock_palette_is_well_formed(self):
        names = [spec.name for spec in STOCK_REGIONS]
        assert len(set(names)) == len(names)
        fleet = default_regions(7)  # wraps past the palette
        assert len({spec.name for spec in fleet}) == 7


#: The columns every fleet row carries; the shared merge must neither
#: add nor drop one (e.g. ``mean_batch`` leaking onto geo rows).
FLEET_COLUMNS = {"scenario", "policy", "requests", "rate_rps", "p50_us",
                 "p95_us", "p99_us", "throughput_rps", "agg_rps",
                 "energy_per_req_uj", "cache_hit_rate", "memo_seeded",
                 "warm_hits"}
SHARDED_COLUMNS = FLEET_COLUMNS | {"shards", "mean_batch", "utilization"}
GEO_COLUMNS = FLEET_COLUMNS | {"geo", "regions", "usd_per_req",
                               "net_delay_us", "remote_frac"}
REGION_COLUMNS = {"region", "accelerator", "replicas", "requests",
                  "share", "p50_us", "p95_us", "energy_per_req_uj",
                  "usd_per_mj", "usd_per_req", "net_delay_us",
                  "remote_frac", "rerouted"}


class TestRowContract:
    @pytest.mark.parametrize("cell,sharded_kw,geo_kw,extra,geo_extra,"
                             "region_extra", [
        ("plain", {}, {}, set(), set(), set()),
        ("slo", {"slo_us": 900.0}, {"slo_us": 4000.0},
         {"slo_attain"}, {"slo_attain"}, {"slo_attain"}),
        ("retry", {"resilience": "retry:timeout_us=400,budget=2"},
         {"resilience": "retry:timeout_us=30000"},
         {"resilience"}, {"resilience", "retried"}, {"retried"}),
    ])
    def test_row_columns_are_pinned(self, cell, sharded_kw, geo_kw,
                                    extra, geo_extra, region_extra):
        sharded = ShardedEngine(2, replicas=2, policy="timeout",
                                batch_size=8, mode="inline",
                                **sharded_kw) \
            .run_scenario("steady", 300, seed=SEED)
        assert set(sharded.to_row()) == SHARDED_COLUMNS | extra
        geo = GeoRouter(3, topology="ring", storms=1, mode="inline",
                        **geo_kw).run_scenario("steady", 600, seed=SEED)
        assert set(geo.to_row()) == GEO_COLUMNS | geo_extra
        rows = geo.region_rows()
        assert len(rows) == 3
        for row in rows:
            assert set(row) == REGION_COLUMNS | region_extra


class TestCli:
    def test_geo_grid_runs(self, capsys):
        code = main(["serve-sim", "steady", "--geo", "2",
                     "--requests", "200", "--policy", "timeout"])
        out = capsys.readouterr().out
        assert code == 0
        assert "geo[2]" in out
        assert "per-region breakdown" in out
        assert "us-east" in out and "eu-west" in out
        assert "geo scale-out:" in out
        assert "skew" in out and "over 2 region worker run(s)" in out

    def test_geo_trace_rows_are_region_tagged(self, capsys, tmp_path):
        from repro.serving import load_trace
        trace = tmp_path / "geo.jsonl"
        assert main(["serve-sim", "steady", "--geo", "2", "--requests",
                     "200", "--policy", "timeout", "--trace",
                     str(trace)]) == 0
        assert "region-tagged" in capsys.readouterr().out
        meta, rows = load_trace(trace)
        assert {r["region"] for r in rows} == {"us-east", "eu-west"}
        assert meta["counters"]["arrivals"] == 200
        assert meta["counters"]["runs"] == 2

    def test_geo_json_carries_region_rows(self, capsys):
        code = main(["serve-sim", "steady", "--geo", "2", "--json",
                     "--requests", "200", "--policy", "timeout"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(r.get("region") == "us-east" for r in rows)
        assert any(r.get("geo") == "home" for r in rows)

    @pytest.mark.parametrize("args,fragment", [
        (["--geo", "3", "--shards", "2"], "--shards"),
        (["--geo", "0"], "at least one region"),
        (["--geo", "nowhere"], "unknown region"),
        (["--geo", "3", "--replicas", "4"], "drop --replicas"),
        (["--geo", "3", "--fail", "2"], "--geo-storms"),
        (["--geo", "3", "--steal"], "not plumbed"),
        (["--geo", "3", "--geo-policy", "teleport"], "geo policy"),
        (["--geo", "3", "--topology", "torus"], "topology"),
        (["--geo-policy", "follow_sun"], "need --geo"),
    ])
    def test_usage_errors_exit_2(self, args, fragment, capsys):
        code = main(["serve-sim", "steady", *args])
        assert code == 2
        assert fragment in capsys.readouterr().out


#: The 3-region ring matrix pinned before the routing scan moved from
#: the region workers into the parent: ``GeoRouter(3, topology="ring",
#: geo=g, storms=s, resilience=r, slo_us=4000, detail=True)`` on
#: ``("diurnal", 600, seed=7)``.  Per region ``(offered, remote,
#: rerouted, retried, delay_s, requests, batches, energy)``, then the
#: sha256 of ``repr((latencies, energy_per_request))`` of the merged
#: detail.  Exact values: any drift in routing, delivery order or the
#: worker fold changes them.
GOLDEN_MATRIX = {
    ("cheapest_joule", 0, ""): (
        ((346, 177, 0, 0, 0.03016476479999986,
          425, 219, 7.392229694200484),
         (180, 5, 0, 0, 0.0008521119999999999,
          7, 4, 0.11966429953080349),
         (74, 150, 0, 0, 0.025563359999999907,
          168, 109, 4.52183747768358)),
        "2cb306c23570ba6ff2ef59570f249d64c4b4de92d2151c8e8e1c3a69581962ff"),
    ("cheapest_joule", 0, "retry"): (
        ((346, 177, 0, 0, 0.03016476479999986,
          425, 219, 7.392229694200484),
         (180, 5, 0, 0, 0.0008521119999999999,
          7, 4, 0.11966429953080349),
         (74, 150, 0, 0, 0.025563359999999907,
          168, 225, 4.5218374776835795)),
        "3ead477642550091d9a98293081d5e84a51026d057a52f6d74d0bc8876700d92"),
    ("cheapest_joule", 2, ""): (
        ((346, 156, 33, 0, 0.026585894399999897,
          352, 182, 6.122158810341099),
         (180, 62, 77, 0, 0.010566188800000003,
          84, 47, 1.842944376795043),
         (74, 143, 4, 0, 0.024370403199999918,
          164, 99, 4.231147076480636)),
        "98587ca155982d29edb61e11ff4c299d081770ac90a82e44a863a7e84fe0b409"),
    ("cheapest_joule", 2, "retry"): (
        ((346, 156, 33, 33, 0.029994342399999863,
          352, 181, 6.119527029310685),
         (180, 62, 77, 77, 0.013974636800000004,
          84, 46, 1.8460056572648724),
         (74, 143, 4, 4, 0.02505209279999991,
          164, 204, 4.231129254670051)),
        "fa39ca5440caa218084ed0fa4101f3d765004a0bdfe9e7edec30d10771a4aefc"),
    ("follow_sun", 0, ""): (
        ((346, 96, 0, 0, 0.016360550399999996,
          215, 114, 3.6522708134383475),
         (180, 112, 0, 0, 0.01908730879999997,
          156, 75, 2.9165646554958076),
         (74, 207, 0, 0, 0.035277436799999895,
          229, 123, 6.390824953132696)),
        "528f5c89f738985bb440c5b11e883d84d0b598737a9425893092575b20f15b9d"),
    ("follow_sun", 0, "retry"): (
        ((346, 96, 0, 0, 0.016360550399999996,
          215, 114, 3.6522708134383475),
         (180, 112, 0, 0, 0.01908730879999997,
          156, 77, 2.922200278451886),
         (74, 207, 0, 0, 0.035277436799999895,
          229, 305, 6.3908249531326975)),
        "9d08796e0d83c6bd1d03591ea7a6921e6e2635769a52ad94ccb2c994af14cb7f"),
    ("follow_sun", 2, ""): (
        ((346, 101, 15, 0, 0.017212662399999988,
          230, 123, 3.9947224001990316),
         (180, 112, 8, 0, 0.01908730879999997,
          164, 82, 3.1740327023062056),
         (74, 189, 0, 0, 0.03220983359999986,
          206, 111, 5.603616555993319)),
        "e631c9916a9c1dafa12b34cc7275bdd0104a8e493e6e7e389a7765a6b334e8cc"),
    ("follow_sun", 2, "retry"): (
        ((346, 101, 15, 15, 0.01891688639999997,
          230, 123, 3.994722238267712),
         (180, 112, 8, 8, 0.020450687999999956,
          164, 84, 3.179668325262284),
         (74, 189, 0, 0, 0.03220983359999986,
          206, 270, 5.6036165559933195)),
        "97ede4bb52a95ceaccf50ac80c9688e848ec13683d6a8cc1a46021fccbfc04a5"),
    ("home", 0, ""): (
        ((346, 0, 0, 0, 0.0,
          346, 218, 5.843884765162654),
         (180, 0, 0, 0, 0.0,
          180, 131, 4.1040313289548855),
         (74, 0, 0, 0, 0.0,
          74, 61, 2.202264049724277)),
        "59e5d5c694fe8d0774ec0b60804bb701abec3839e9b77a27ea38a0127b462c3a"),
    ("home", 0, "retry"): (
        ((346, 0, 0, 0, 0.0,
          346, 218, 5.843884765162654),
         (180, 0, 0, 0, 0.0,
          180, 131, 4.1040313289548855),
         (74, 0, 0, 0, 0.0,
          74, 61, 2.202264049724277)),
        "59e5d5c694fe8d0774ec0b60804bb701abec3839e9b77a27ea38a0127b462c3a"),
    ("home", 2, ""): (
        ((346, 13, 13, 0, 0.0022154912000000005,
          294, 189, 4.939442425130149),
         (180, 65, 65, 0, 0.011077456000000003,
          245, 159, 5.478229782322609),
         (74, 0, 0, 0, 0.0,
          61, 51, 1.7791228147182934)),
        "f161d915a2251220e8c9cfc0dcb4b378e2b919dadc99ea0fd3a5179930f2975e"),
    ("home", 2, "retry"): (
        ((346, 13, 13, 13, 0.0022154912000000005,
          294, 189, 4.939442425130149),
         (180, 65, 65, 65, 0.011077456000000003,
          245, 161, 5.4879876093725874),
         (74, 0, 0, 0, 0.0,
          61, 51, 1.7791228147182934)),
        "8b67695f1b4aaa92a28de4250710b3c5a6dc6c078d89c727a2d16575a1dbeed3"),
    ("spillover", 0, ""): (
        ((346, 0, 0, 0, 0.0,
          346, 218, 5.843884765162654),
         (180, 0, 0, 0, 0.0,
          180, 131, 4.1040313289548855),
         (74, 0, 0, 0, 0.0,
          74, 61, 2.202264049724277)),
        "59e5d5c694fe8d0774ec0b60804bb701abec3839e9b77a27ea38a0127b462c3a"),
    ("spillover", 0, "retry"): (
        ((346, 0, 0, 0, 0.0,
          346, 218, 5.843884765162654),
         (180, 0, 0, 0, 0.0,
          180, 131, 4.1040313289548855),
         (74, 0, 0, 0, 0.0,
          74, 61, 2.202264049724277)),
        "59e5d5c694fe8d0774ec0b60804bb701abec3839e9b77a27ea38a0127b462c3a"),
    ("spillover", 2, ""): (
        ((346, 19, 13, 0, 0.003238025600000001,
          300, 189, 5.012084693042313),
         (180, 65, 72, 0, 0.011077456000000003,
          239, 155, 5.36861221047415),
         (74, 0, 0, 0, 0.0,
          61, 51, 1.7791228147182934)),
        "241d88d710c132986ca2824ab277ba60170b2c5989d6c2c31da09d00fd1823f3"),
    ("spillover", 2, "retry"): (
        ((346, 19, 13, 13, 0.003238025600000001,
          300, 189, 5.012084693042313),
         (180, 65, 72, 72, 0.012270412800000003,
          239, 157, 5.378889892654996),
         (74, 0, 0, 0, 0.0,
          61, 51, 1.7791228147182934)),
        "3def60f5479f620bb8d37d5fe6d02dd7627e666468094322f6adf1651a6c3b49"),
}


class TestGoldenMatrix:
    @pytest.mark.parametrize("geo,storms,resilience", sorted(GOLDEN_MATRIX))
    def test_cell_is_bit_identical(self, geo, storms, resilience):
        result = GeoRouter(3, topology="ring", geo=geo, storms=storms,
                           resilience=resilience, slo_us=4000,
                           mode="inline", detail=True) \
            .run_scenario("diurnal", 600, seed=7)
        regions = tuple(
            (r.offered, r.remote, r.rerouted, r.retried, r.delay_s,
             r.outcome.requests, r.outcome.batches, r.outcome.energy)
            for r in result.regions)
        digest = hashlib.sha256(repr((
            result.detail.latencies,
            result.detail.energy_per_request)).encode()).hexdigest()
        assert (regions, digest) == GOLDEN_MATRIX[geo, storms, resilience]


class _RequestSpy(pickle.Pickler):
    """Pickles a spec the way the pool ships it, noting any Request."""

    found = False

    def persistent_id(self, obj):
        if isinstance(obj, Request):
            self.found = True
        return None


class TestRouteOnce:
    """The parent runs the one routing scan; workers only serve."""

    @pytest.mark.parametrize("storms", [0, 2])
    @pytest.mark.parametrize("prewarm", [True, False])
    def test_scan_runs_once_and_ships_columns(self, monkeypatch, storms,
                                              prewarm):
        router = GeoRouter(3, topology="ring", storms=storms,
                           prewarm=prewarm,
                           mode="inline")
        scans, specs = [], []
        real_scan = geo_module._route_scan
        real_serve = geo_module._serve_geo_region

        def counted_scan(*args, **kwargs):
            scans.append(args)
            return real_scan(*args, **kwargs)

        def captured_serve(spec):
            specs.append(spec)
            return real_serve(spec)

        def no_make_geo(*args, **kwargs):
            raise AssertionError("geo policy re-resolved during a run")

        monkeypatch.setattr(geo_module, "_route_scan", counted_scan)
        monkeypatch.setattr(geo_module, "_serve_geo_region",
                            captured_serve)
        monkeypatch.setattr(geo_module, "make_geo", no_make_geo)
        result = router.run_scenario("diurnal", 600, seed=SEED)
        assert len(scans) == 1
        assert [spec["region"] for spec in specs] == [0, 1, 2]
        assert sum(len(spec["deliveries"][0]) for spec in specs) == 600
        for spec, region in zip(specs, result.regions):
            columns = spec["deliveries"]
            assert all(isinstance(column, array) for column in columns)
            assert {len(column) for column in columns} == \
                {region.outcome.requests}
            spy = _RequestSpy(io.BytesIO())
            spy.dump(spec)
            assert not spy.found
        if storms:
            assert sum(r.rerouted for r in result.regions) > 0
