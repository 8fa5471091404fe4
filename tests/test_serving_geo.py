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

import json

import pytest

from repro.__main__ import main
from repro.errors import ConfigError
from repro.serving import (
    GEO_POLICIES,
    GeoRouter,
    Interconnect,
    POLICIES,
    REQUEST_BYTES,
    RegionFailurePlan,
    RegionOutage,
    RegionSpec,
    SCENARIOS,
    STOCK_REGIONS,
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
