"""Deployment model: zones, technology mixes, coverage calibration."""

import numpy as np
import pytest

from repro.errors import DeploymentError
from repro.geo.regions import RegionType
from repro.geo.timezones import Timezone
from repro.radio.deployment import (
    DEFAULT_TECH_MIX,
    DeploymentModel,
    TIMEZONE_5G_MULTIPLIER,
    ZoneLengthParams,
    adjusted_mix,
)
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology


@pytest.fixture(scope="module")
def verizon_deployment(route):
    return DeploymentModel.build(Operator.VERIZON, route, np.random.default_rng(1))


class TestTechMixTables:
    @pytest.mark.parametrize("op", list(Operator))
    @pytest.mark.parametrize("region", list(RegionType))
    def test_mixes_are_distributions(self, op, region):
        mix = DEFAULT_TECH_MIX[op][region]
        assert sum(mix.values()) == pytest.approx(1.0)
        assert all(p >= 0 for p in mix.values())

    def test_tmobile_leads_in_midband(self):
        for region in RegionType:
            t = DEFAULT_TECH_MIX[Operator.TMOBILE][region][RadioTechnology.NR_MID]
            v = DEFAULT_TECH_MIX[Operator.VERIZON][region][RadioTechnology.NR_MID]
            a = DEFAULT_TECH_MIX[Operator.ATT][region][RadioTechnology.NR_MID]
            assert t > v and t > a

    def test_verizon_mmwave_in_cities(self):
        city = DEFAULT_TECH_MIX[Operator.VERIZON][RegionType.CITY]
        assert city[RadioTechnology.NR_MMWAVE] >= 0.25

    def test_att_leans_on_lte_a(self):
        hwy = DEFAULT_TECH_MIX[Operator.ATT][RegionType.HIGHWAY]
        assert hwy[RadioTechnology.LTE_A] >= 0.5

    @pytest.mark.parametrize("op", list(Operator))
    @pytest.mark.parametrize("tz", list(Timezone))
    def test_adjusted_mix_is_distribution(self, op, tz):
        for region in RegionType:
            mix = adjusted_mix(op, region, tz)
            assert sum(mix.values()) == pytest.approx(1.0)
            assert all(p >= -1e-12 for p in mix.values())

    def test_adjusted_mix_shifts_5g_mass(self):
        base = DEFAULT_TECH_MIX[Operator.ATT][RegionType.HIGHWAY]
        mountain = adjusted_mix(Operator.ATT, RegionType.HIGHWAY, Timezone.MOUNTAIN)
        base_5g = sum(p for t, p in base.items() if t.is_5g)
        mnt_5g = sum(p for t, p in mountain.items() if t.is_5g)
        assert mnt_5g < base_5g  # AT&T's weak Mountain deployment (Fig. 2c)

    def test_multiplier_tables_cover_everything(self):
        for op in Operator:
            assert set(TIMEZONE_5G_MULTIPLIER[op]) == set(Timezone)


class TestZoneLength:
    def test_samples_within_envelope(self, rng):
        params = ZoneLengthParams(800.0)
        for _ in range(200):
            length = params.sample(rng)
            assert 80.0 <= length <= 20_000.0

    def test_median_roughly_respected(self, rng):
        params = ZoneLengthParams(800.0)
        lengths = [params.sample(rng) for _ in range(3000)]
        assert 700.0 < float(np.median(lengths)) < 900.0


class TestDeploymentModel:
    def test_zones_tile_the_route(self, verizon_deployment, route):
        zones = verizon_deployment.zones
        assert zones[0].start_m == 0.0
        assert zones[-1].end_m == pytest.approx(route.total_length_m)
        for prev, cur in zip(zones, zones[1:]):
            assert cur.start_m == pytest.approx(prev.end_m)

    def test_macro_zones_tile_the_route(self, verizon_deployment, route):
        zones = verizon_deployment.macro_zones
        assert zones[0].start_m == 0.0
        assert zones[-1].end_m == pytest.approx(route.total_length_m)

    def test_every_zone_deploys_lte(self, verizon_deployment):
        for zone in verizon_deployment.zones[:500]:
            assert RadioTechnology.LTE in zone.deployed

    def test_best_tech_is_deployed(self, verizon_deployment):
        for zone in verizon_deployment.zones[:500]:
            assert zone.best_tech in zone.deployed

    def test_cells_cover_deployed_set(self, verizon_deployment):
        for zone in verizon_deployment.zones[:200]:
            assert set(zone.cells) == set(zone.deployed)

    def test_zone_lookup(self, verizon_deployment):
        zone = verizon_deployment.zone_at(1_000_000.0)
        assert zone.start_m <= 1_000_000.0 <= zone.end_m

    def test_zone_lookup_out_of_range(self, verizon_deployment):
        with pytest.raises(DeploymentError):
            verizon_deployment.zone_at(-5.0)

    def test_loads_are_shares(self, verizon_deployment):
        for zone in verizon_deployment.zones[:500]:
            assert 0.0 < zone.load_dl <= 1.0
            assert 0.0 < zone.load_ul <= 1.0

    def test_cell_for_undeployed_tech_raises(self, verizon_deployment):
        zone = next(
            z
            for z in verizon_deployment.zones
            if RadioTechnology.NR_MMWAVE not in z.deployed
        )
        with pytest.raises(DeploymentError):
            zone.cell_for(RadioTechnology.NR_MMWAVE)

    def test_deterministic_given_rng_state(self, route):
        d1 = DeploymentModel.build(Operator.ATT, route, np.random.default_rng(5))
        d2 = DeploymentModel.build(Operator.ATT, route, np.random.default_rng(5))
        assert len(d1.zones) == len(d2.zones)
        assert d1.zones[10].best_tech is d2.zones[10].best_tech

    def test_macro_grid_density_matches_table1(self, route):
        # Table 1 handover counts imply macro zone counts ~2657/4119/2494.
        expected = {Operator.VERIZON: 2657, Operator.TMOBILE: 4119, Operator.ATT: 2494}
        for op, target in expected.items():
            model = DeploymentModel.build(op, route, np.random.default_rng(2))
            count = len(model.macro_zones)
            assert target * 0.75 < count < target * 1.25

    def test_coverage_mix_realised_tmobile(self, route):
        # Fig. 2a: T-Mobile ≈68% 5G of miles; check the deployment ceiling
        # is in that neighbourhood (length-weighted best-tech shares).
        model = DeploymentModel.build(Operator.TMOBILE, route, np.random.default_rng(3))
        total = sum(z.length_m for z in model.zones)
        share_5g = sum(z.length_m for z in model.zones if z.best_tech.is_5g) / total
        assert 0.55 < share_5g < 0.8

    def test_coverage_mix_realised_att_high_speed(self, route):
        # Fig. 2a: AT&T's high-speed 5G is ~3% of miles.
        model = DeploymentModel.build(Operator.ATT, route, np.random.default_rng(3))
        total = sum(z.length_m for z in model.zones)
        hs = sum(
            z.length_m for z in model.zones if z.best_tech.is_high_throughput
        ) / total
        assert hs < 0.08


class TestSpanLookup:
    """A model built over a span answers only for marks inside that span."""

    @pytest.fixture(scope="class")
    def span_model(self, route):
        return DeploymentModel.build(
            Operator.VERIZON, route, np.random.default_rng(8),
            start_m=100_000.0, end_m=150_000.0,
        )

    def test_marks_inside_the_span_resolve(self, span_model):
        assert span_model.zone_at(100_000.0).start_m == 100_000.0
        assert span_model.zone_at(150_000.0).end_m == 150_000.0
        assert span_model.macro_zone_at(125_000.0).start_m <= 125_000.0

    @pytest.mark.parametrize("mark", [0.0, 20_000.0, 99_999.0, 150_001.0, 200_000.0])
    def test_marks_outside_the_span_raise(self, span_model, mark):
        with pytest.raises(DeploymentError, match=r"\[100000\.0, 150000\.0\]"):
            span_model.zone_at(mark)
        with pytest.raises(DeploymentError, match=r"\[100000\.0, 150000\.0\]"):
            span_model.macro_zone_at(mark)
