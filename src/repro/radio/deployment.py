"""Per-operator radio deployment along the route.

This module is the generative heart of the reproduction's substrate.  The
paper's UEs experienced, per operator, a *piecewise* radio environment: each
stretch of road is dominated by one serving cell per technology layer, and the
set of technologies deployed there reflects the operator's strategy —
Verizon's mmWave downtown, T-Mobile's broad midband, AT&T's LTE-A backbone
(§4.2).  We model this as a partition of the route into
:class:`DeploymentZone` s.  For each zone we draw:

* the *best deployed technology* from a calibrated mix conditioned on
  (operator, region type, timezone) — calibration targets are the coverage
  percentages of Fig. 2;
* the full deployed technology set (LTE always; lower tiers fill in below the
  best tech);
* per-direction cell load factors (the share of cell capacity our single UE
  can obtain), including occasional deeply congested/backhaul-limited zones —
  the paper's "performance is often poor even in areas with full high-speed
  5G coverage" (§5.2);
* cell sites (one per deployed technology) with positions used by the channel
  model.

Two independent partitions exist per operator:

* the **active** partition, dense small cells crossed during throughput and
  app tests (drives handover rates of Fig. 11);
* the **macro** partition, the sparse LTE anchor grid that the passive
  handover-logger phones camped on for the whole trip (drives Table 1's
  trip-wide handover counts).

A campaign's network is one :class:`TiledDeployment` per operator, built
lazily in fixed tiles that are pure functions of (seed, operator, tile):
every phone and every route shard sees the same cells at the same mark.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.rng import RngFactory, choose_weighted, clamp

from repro.errors import DeploymentError
from repro.geo.regions import RegionType
from repro.geo.route import Route
from repro.geo.timezones import Timezone
from repro.radio.cells import Cell, CellId
from repro.radio.operators import Operator
from repro.radio.technology import RadioTechnology

__all__ = [
    "TechMix",
    "DEFAULT_TECH_MIX",
    "TIMEZONE_5G_MULTIPLIER",
    "ZoneLengthParams",
    "DeploymentZone",
    "DeploymentModel",
    "TILE_LENGTH_M",
    "TiledDeployment",
]

TechMix = dict[RadioTechnology, float]

#: Length of one deployment tile.  Window shards start and end on tile
#: edges, so every zone belongs to exactly one window.
TILE_LENGTH_M = 50_000.0

#: Per-tile id namespaces (tile ``t`` starts at ``stride * (t + 1)``); a tile
#: holds a few thousand cells, so the handover engine's ping-pong phantoms
#: (``sequence + 500_000``) never collide with a real cell.
_CELL_ID_STRIDE = 2_000_000
_MACRO_CELL_OFFSET = 1_000_000
_ZONE_INDEX_STRIDE = 100_000

_LTE = RadioTechnology.LTE
_LTE_A = RadioTechnology.LTE_A
_NR_LOW = RadioTechnology.NR_LOW
_NR_MID = RadioTechnology.NR_MID
_NR_MM = RadioTechnology.NR_MMWAVE


def _mix(mmw: float, mid: float, low: float, ltea: float, lte: float) -> TechMix:
    """Build a technology mix, validating it sums to 1."""
    mix = {_NR_MM: mmw, _NR_MID: mid, _NR_LOW: low, _LTE_A: ltea, _LTE: lte}
    total = sum(mix.values())
    if abs(total - 1.0) > 1e-9:
        raise DeploymentError(f"technology mix sums to {total}, expected 1.0")
    if any(p < 0.0 for p in mix.values()):
        raise DeploymentError("technology mix has negative probabilities")
    return mix


#: Best-deployed-technology mix by operator and region.  Calibrated against
#: Fig. 2a/2c/2d: T-Mobile ~68% 5G (~38% high-speed); Verizon/AT&T ~18-22% 5G
#: with Verizon mmWave concentrated in cities (43% high-speed 5G at low
#: speeds) and AT&T's high-speed 5G a mere ~3% overall.
DEFAULT_TECH_MIX: dict[Operator, dict[RegionType, TechMix]] = {
    Operator.VERIZON: {
        RegionType.CITY: _mix(0.30, 0.13, 0.17, 0.30, 0.10),
        RegionType.SUBURBAN: _mix(0.00, 0.06, 0.10, 0.55, 0.29),
        RegionType.HIGHWAY: _mix(0.005, 0.10, 0.07, 0.52, 0.305),
    },
    Operator.TMOBILE: {
        RegionType.CITY: _mix(0.01, 0.60, 0.22, 0.12, 0.05),
        RegionType.SUBURBAN: _mix(0.00, 0.42, 0.28, 0.18, 0.12),
        RegionType.HIGHWAY: _mix(0.002, 0.36, 0.30, 0.20, 0.138),
    },
    Operator.ATT: {
        RegionType.CITY: _mix(0.08, 0.06, 0.31, 0.40, 0.15),
        RegionType.SUBURBAN: _mix(0.00, 0.02, 0.14, 0.55, 0.29),
        RegionType.HIGHWAY: _mix(0.001, 0.02, 0.16, 0.60, 0.219),
    },
}

#: Multiplier applied to all 5G probabilities per timezone (then
#: renormalised against the 4G mass).  Encodes Fig. 2c's regional diversity:
#: Verizon's stronger eastern 5G, T-Mobile's Pacific midband emphasis,
#: AT&T's weak Mountain/Central deployment.
TIMEZONE_5G_MULTIPLIER: dict[Operator, dict[Timezone, float]] = {
    Operator.VERIZON: {
        Timezone.PACIFIC: 1.00,
        Timezone.MOUNTAIN: 0.60,
        Timezone.CENTRAL: 1.25,
        Timezone.EASTERN: 1.30,
    },
    Operator.TMOBILE: {
        Timezone.PACIFIC: 1.25,
        Timezone.MOUNTAIN: 0.85,
        Timezone.CENTRAL: 1.00,
        Timezone.EASTERN: 1.05,
    },
    Operator.ATT: {
        Timezone.PACIFIC: 1.50,
        Timezone.MOUNTAIN: 0.45,
        Timezone.CENTRAL: 0.50,
        Timezone.EASTERN: 1.50,
    },
}


def adjusted_mix(operator: Operator, region: RegionType, tz: Timezone) -> TechMix:
    """Return the best-tech mix for a zone, with the timezone 5G multiplier
    applied and the distribution renormalised.

    The 5G mass is scaled by the operator's timezone multiplier (capped so it
    never exceeds 95%), and the 4G technologies absorb the complement in
    their original proportion.
    """
    base = DEFAULT_TECH_MIX[operator][region]
    mult = TIMEZONE_5G_MULTIPLIER[operator][tz]
    nr_mass = sum(p for t, p in base.items() if t.is_5g)
    fourg_mass = 1.0 - nr_mass
    new_nr_mass = min(nr_mass * mult, 0.95)
    if fourg_mass <= 0.0:
        return dict(base)
    nr_scale = new_nr_mass / nr_mass if nr_mass > 0 else 0.0
    fourg_scale = (1.0 - new_nr_mass) / fourg_mass
    return {
        t: p * (nr_scale if t.is_5g else fourg_scale) for t, p in base.items()
    }


@dataclass(frozen=True, slots=True)
class ZoneLengthParams:
    """Lognormal zone-length parameters (meters)."""

    median_m: float
    sigma: float = 0.45

    def sample(self, rng: np.random.Generator) -> float:
        """Draw a zone length; clipped to a sane [80 m, 20 km] envelope."""
        length = rng.lognormal(mean=np.log(self.median_m), sigma=self.sigma)
        return clamp(float(length), 80.0, 20_000.0)


#: Active-layer zone length medians by region.  Highway medians are
#: per-operator (below); these are the city/suburban values.
_ACTIVE_ZONE_MEDIAN_M: dict[RegionType, float] = {
    RegionType.CITY: 450.0,
    RegionType.SUBURBAN: 1400.0,
}

#: Per-operator highway zone medians, calibrated to Fig. 11a's median
#: 1-3 handovers/mile during 30 s throughput tests.
_ACTIVE_HIGHWAY_MEDIAN_M: dict[Operator, float] = {
    Operator.VERIZON: 700.0,
    Operator.TMOBILE: 750.0,
    Operator.ATT: 1000.0,
}

#: Macro (LTE anchor) zone medians — the sparse grid the passive
#: handover-loggers camped on, calibrated to Table 1's trip-wide HO counts
#: (2657 / 4119 / 2494 for V / T / A over 5711 km).
_MACRO_ZONE_MEDIAN_M: dict[Operator, float] = {
    Operator.VERIZON: 2050.0,
    Operator.TMOBILE: 1320.0,
    Operator.ATT: 2180.0,
}

#: Zone-level congestion model: the share of cell capacity a single UE can
#: obtain.  ``deep_congestion_prob`` zones are effectively unusable
#: (backhaul-limited or overloaded), producing the paper's ~35% of samples
#: below 5 Mbps (§5.1) even under nominal 5G coverage.
_LOAD_BETA_A = 1.5
_LOAD_BETA_B = 3.0
_DEEP_CONGESTION_PROB = {
    Operator.VERIZON: 0.22,
    Operator.TMOBILE: 0.20,
    Operator.ATT: 0.24,
}
_DEEP_CONGESTION_RANGE = (0.01, 0.10)
#: The Mountain-timezone stretch is served by sparse rural sites with long
#: backhaul: extra deep-congestion probability and a capacity haircut
#: (Fig. 5: 'the performance in the Mountain timezone is low for all three
#: carriers').
_MOUNTAIN_EXTRA_CONGESTION = 0.10
_MOUNTAIN_LOAD_SCALE = 0.75
#: Uplink contention is lighter: far fewer users saturate the uplink.
_UL_LOAD_BETA_A = 1.9
_UL_LOAD_BETA_B = 2.3
_UL_DEEP_CONGESTION_PROB = 0.10


@dataclass(frozen=True, slots=True)
class DeploymentZone:
    """One stretch of road with a fixed radio configuration for an operator."""

    index: int
    operator: Operator
    start_m: float
    end_m: float
    region: RegionType
    timezone: Timezone
    #: The most capable technology deployed here.
    best_tech: RadioTechnology
    #: All deployed technologies (always includes LTE).
    deployed: frozenset[RadioTechnology]
    #: One serving cell per deployed technology.
    cells: dict[RadioTechnology, Cell]
    #: Capacity share available to our UE, per direction (0, 1].
    load_dl: float
    load_ul: float

    @property
    def length_m(self) -> float:
        return self.end_m - self.start_m

    def cell_for(self, tech: RadioTechnology) -> Cell:
        """Serving cell for a deployed technology.

        Raises
        ------
        DeploymentError
            If ``tech`` is not deployed in this zone.
        """
        try:
            return self.cells[tech]
        except KeyError:
            raise DeploymentError(
                f"{tech} not deployed in zone {self.index} of {self.operator}"
            ) from None


def _deployed_set(best: RadioTechnology, rng: np.random.Generator) -> frozenset[RadioTechnology]:
    """Derive the full deployed set below the best technology.

    LTE is ubiquitous.  LTE-A rides on LTE in most zones.  When the best tech
    is high-speed 5G, the low tier below it is usually (not always) present —
    NSA anchoring and layered deployments.
    """
    deployed = {_LTE, best}
    if best.rank >= _LTE_A.rank or rng.random() < 0.85:
        deployed.add(_LTE_A)
    if best.rank > _NR_LOW.rank and rng.random() < 0.7:
        deployed.add(_NR_LOW)
    if best is _NR_MM and rng.random() < 0.5:
        deployed.add(_NR_MID)
    return frozenset(deployed)


def _perpendicular_offset_m(region: RegionType, rng: np.random.Generator) -> float:
    """Distance of a cell site from the roadside, by region."""
    ranges = {
        RegionType.CITY: (25.0, 220.0),
        RegionType.SUBURBAN: (60.0, 450.0),
        RegionType.HIGHWAY: (50.0, 500.0),
    }
    lo, hi = ranges[region]
    return float(rng.uniform(lo, hi))


@dataclass
class DeploymentModel:
    """The full radio deployment of one operator along a route.

    Build with :meth:`build`; query zones by route distance with
    :meth:`zone_at` (active layer) or :meth:`macro_zone_at` (LTE anchor grid
    seen by the passive handover-logger).
    """

    operator: Operator
    zones: list[DeploymentZone]
    macro_zones: list[DeploymentZone]
    _zone_starts: list[float] = field(init=False, repr=False)
    _macro_starts: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.zones or not self.macro_zones:
            raise DeploymentError("deployment requires at least one zone per layer")
        self._zone_starts = [z.start_m for z in self.zones]
        self._macro_starts = [z.start_m for z in self.macro_zones]

    # -- queries ---------------------------------------------------------

    def zone_at(self, mark_m: float) -> DeploymentZone:
        """Active-layer zone containing route distance ``mark_m``."""
        return self._lookup(self.zones, self._zone_starts, mark_m)

    def macro_zone_at(self, mark_m: float) -> DeploymentZone:
        """Macro (LTE anchor) zone containing route distance ``mark_m``."""
        return self._lookup(self.macro_zones, self._macro_starts, mark_m)

    @staticmethod
    def _lookup(
        zones: list[DeploymentZone], starts: list[float], mark_m: float
    ) -> DeploymentZone:
        if not zones[0].start_m <= mark_m <= zones[-1].end_m:
            raise DeploymentError(
                f"mark {mark_m} outside deployed range "
                f"[{zones[0].start_m}, {zones[-1].end_m}]"
            )
        return zones[bisect.bisect_right(starts, mark_m) - 1]

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        operator: Operator,
        route: Route,
        rng: np.random.Generator,
        tech_mix: dict[RegionType, TechMix] | None = None,
        *,
        start_m: float = 0.0,
        end_m: float | None = None,
    ) -> "DeploymentModel":
        """Generate the operator's deployment for ``route``.

        Parameters
        ----------
        operator:
            The carrier whose strategy (mix tables, zone densities) to use.
        route:
            The drive route to cover.
        rng:
            Source of randomness; the same generator state always produces
            the same deployment.
        tech_mix:
            Optional override of the per-region best-technology mix,
            bypassing :data:`DEFAULT_TECH_MIX` (used for ablations).
        start_m / end_m:
            Optional route span to deploy (default: the full route).  Ids
            are namespaced by the tile holding ``start_m``.
        """
        if end_m is None:
            end_m = route.total_length_m
        if not 0.0 <= start_m < end_m:
            raise DeploymentError(
                f"invalid deployment span [{start_m}, {end_m})"
            )
        namespace = int(start_m // TILE_LENGTH_M) + 1
        zones = cls._build_active_zones(
            operator, route, rng, tech_mix, start_m, end_m, namespace
        )
        macro = cls._build_macro_zones(operator, route, rng, start_m, end_m, namespace)
        return cls(operator=operator, zones=zones, macro_zones=macro)

    @classmethod
    def _build_active_zones(
        cls,
        operator: Operator,
        route: Route,
        rng: np.random.Generator,
        tech_mix: dict[RegionType, TechMix] | None,
        start_m: float,
        span_end_m: float,
        namespace: int,
    ) -> list[DeploymentZone]:
        zones: list[DeploymentZone] = []
        cell_seq = _CELL_ID_STRIDE * namespace
        mark = start_m
        index = _ZONE_INDEX_STRIDE * namespace
        total = span_end_m
        while mark < total:
            pos = route.position_at(min(mark, total))
            region = pos.region
            if region is RegionType.HIGHWAY:
                median = _ACTIVE_HIGHWAY_MEDIAN_M[operator]
            else:
                median = _ACTIVE_ZONE_MEDIAN_M[region]
            length = ZoneLengthParams(median).sample(rng)
            end = min(mark + length, total)

            if tech_mix is not None:
                mix = tech_mix[region]
            else:
                mix = adjusted_mix(operator, region, pos.timezone)
            best = choose_weighted(rng, list(mix.keys()), list(mix.values()))
            deployed = _deployed_set(best, rng)

            cells: dict[RadioTechnology, Cell] = {}
            for tech in sorted(deployed, key=lambda t: t.rank):
                cell_seq += 1
                site_mark = float(rng.uniform(mark + 0.2 * (end - mark), mark + 0.8 * (end - mark)))
                perp = _perpendicular_offset_m(region, rng)
                site_pos = route.position_at(min(site_mark, total)).point
                cells[tech] = Cell(
                    cell_id=CellId(operator, tech, cell_seq),
                    site=site_pos,
                    site_mark_m=site_mark,
                    perpendicular_m=perp,
                )

            load_dl = cls._draw_load(rng, operator, "downlink", pos.timezone)
            load_ul = cls._draw_load(rng, operator, "uplink", pos.timezone)
            zones.append(
                DeploymentZone(
                    index=index,
                    operator=operator,
                    start_m=mark,
                    end_m=end,
                    region=region,
                    timezone=pos.timezone,
                    best_tech=best,
                    deployed=deployed,
                    cells=cells,
                    load_dl=load_dl,
                    load_ul=load_ul,
                )
            )
            index += 1
            mark = end
        return zones

    @classmethod
    def _build_macro_zones(
        cls,
        operator: Operator,
        route: Route,
        rng: np.random.Generator,
        start_m: float,
        span_end_m: float,
        namespace: int,
    ) -> list[DeploymentZone]:
        zones: list[DeploymentZone] = []
        cell_seq = _CELL_ID_STRIDE * namespace + _MACRO_CELL_OFFSET
        mark = start_m
        index = _ZONE_INDEX_STRIDE * namespace
        total = span_end_m
        median = _MACRO_ZONE_MEDIAN_M[operator]
        while mark < total:
            pos = route.position_at(min(mark, total))
            length = ZoneLengthParams(median, sigma=0.5).sample(rng)
            end = min(mark + length, total)
            cell_seq += 1
            site_mark = float(rng.uniform(mark, end))
            tech = _LTE_A if rng.random() < 0.6 else _LTE
            cell = Cell(
                cell_id=CellId(operator, tech, cell_seq),
                site=route.position_at(min(site_mark, total)).point,
                site_mark_m=site_mark,
                perpendicular_m=_perpendicular_offset_m(pos.region, rng),
            )
            zones.append(
                DeploymentZone(
                    index=index,
                    operator=operator,
                    start_m=mark,
                    end_m=end,
                    region=pos.region,
                    timezone=pos.timezone,
                    best_tech=tech,
                    deployed=frozenset({_LTE, tech}),
                    cells={tech: cell, _LTE: cell},
                    load_dl=cls._draw_load(rng, operator, "downlink", pos.timezone),
                    load_ul=cls._draw_load(rng, operator, "uplink", pos.timezone),
                )
            )
            index += 1
            mark = end
        return zones

    @staticmethod
    def _draw_load(
        rng: np.random.Generator,
        operator: Operator,
        direction: str = "downlink",
        tz: Timezone | None = None,
    ) -> float:
        """Draw the per-zone capacity share available to our UE."""
        mountain = tz is Timezone.MOUNTAIN
        scale = _MOUNTAIN_LOAD_SCALE if mountain else 1.0
        if direction == "uplink":
            prob = _UL_DEEP_CONGESTION_PROB + (_MOUNTAIN_EXTRA_CONGESTION if mountain else 0.0)
            if rng.random() < prob:
                lo, hi = _DEEP_CONGESTION_RANGE
                return float(rng.uniform(lo, hi))
            return clamp(scale * float(rng.beta(_UL_LOAD_BETA_A, _UL_LOAD_BETA_B)), 0.02, 1.0)
        prob = _DEEP_CONGESTION_PROB[operator] + (_MOUNTAIN_EXTRA_CONGESTION if mountain else 0.0)
        if rng.random() < prob:
            lo, hi = _DEEP_CONGESTION_RANGE
            return float(rng.uniform(lo, hi))
        return clamp(scale * float(rng.beta(_LOAD_BETA_A, _LOAD_BETA_B)), 0.02, 1.0)


class TiledDeployment:
    """One operator's deployment along the whole route, built tile by tile.

    Tile ``t`` covers ``[t * TILE_LENGTH_M, min((t + 1) * TILE_LENGTH_M,
    route length))``, built on its first lookup from the stream
    ``deploy-{operator code}-{t}`` of ``RngFactory(seed)``.  Instances for
    the same seed answer every lookup identically, whatever tiles they built
    and in whatever order.  Queries mirror :class:`DeploymentModel`.
    """

    def __init__(self, operator: Operator, route: Route, seed: int) -> None:
        self.operator = operator
        self.route = route
        self._n_tiles = math.ceil(route.total_length_m / TILE_LENGTH_M)
        self._rngs = RngFactory(seed=seed)
        self._tiles: dict[int, DeploymentModel] = {}

    def _tile(self, t: int) -> DeploymentModel:
        model = self._tiles.get(t)
        if model is None:
            model = DeploymentModel.build(
                self.operator,
                self.route,
                self._rngs.stream(f"deploy-{self.operator.code}-{t}"),
                start_m=t * TILE_LENGTH_M,
                end_m=min((t + 1) * TILE_LENGTH_M, self.route.total_length_m),
            )
            self._tiles[t] = model
        return model

    def _tile_of(self, mark_m: float) -> int:
        if not 0.0 <= mark_m <= self.route.total_length_m:
            raise DeploymentError(
                f"mark {mark_m} outside route [0, {self.route.total_length_m}]"
            )
        return min(int(mark_m // TILE_LENGTH_M), self._n_tiles - 1)

    def zone_at(self, mark_m: float) -> DeploymentZone:
        return self._tile(self._tile_of(mark_m)).zone_at(mark_m)

    def macro_zone_at(self, mark_m: float) -> DeploymentZone:
        return self._tile(self._tile_of(mark_m)).macro_zone_at(mark_m)

    def span(self, start_m: float, end_m: float) -> DeploymentModel:
        """The tiles over ``[start_m, end_m)`` as one model (a window's span)."""
        tiles = [
            self._tile(t)
            for t in range(self._tile_of(start_m), math.ceil(end_m / TILE_LENGTH_M))
        ]
        return DeploymentModel(
            operator=self.operator,
            zones=[z for model in tiles for z in model.zones],
            macro_zones=[z for model in tiles for z in model.macro_zones],
        )
