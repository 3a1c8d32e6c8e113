"""§4 — network coverage analysis (Figs. 1 and 2).

Coverage is measured in *miles driven* per technology.  For the active
(XCAL-during-tests) view, each 500 ms throughput sample is weighted by the
distance the vehicle covered during it (speed × 0.5 s); for the passive
(handover-logger) view, each zone's technology covers its road length.
Both shares are grouped sums over :mod:`repro.store.query` columns, so they
run alike on an in-memory dataset, a store file, or a catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.dataset import DriveDataset
from repro.errors import AnalysisError
from repro.geo.timezones import Timezone
from repro.radio.operators import Operator
from repro.radio.technology import ALL_TECHNOLOGIES, HIGH_THROUGHPUT_TECHS, RadioTechnology
from repro.store import query
from repro.store.query import Between, Eq, where_speed_bin
from repro.units import SPEED_BIN_LABELS

__all__ = [
    "CoverageShares",
    "active_coverage_shares",
    "passive_coverage_shares",
    "coverage_by_timezone",
    "coverage_by_speed_bin",
    "coverage_by_direction",
    "route_technology_strip",
]


@dataclass(frozen=True)
class CoverageShares:
    """Technology shares (fractions of miles) for one operator/slice."""

    operator: Operator
    shares: dict[RadioTechnology, float]
    total_weight: float

    def __post_init__(self) -> None:
        total = sum(self.shares.values())
        if self.shares and abs(total - 1.0) > 1e-6:
            raise AnalysisError(f"coverage shares sum to {total}, expected 1")

    @property
    def share_5g(self) -> float:
        """Total 5G share (any NR band)."""
        return sum(v for t, v in self.shares.items() if t.is_5g)

    @property
    def share_high_speed_5g(self) -> float:
        """High-speed 5G (midband + mmWave) share."""
        return sum(v for t, v in self.shares.items() if t in HIGH_THROUGHPUT_TECHS)

    def percent(self, tech: RadioTechnology) -> float:
        """Share of a technology, in percent."""
        return 100.0 * self.shares.get(tech, 0.0)


def _shares_from_sums(operator: Operator, sums: dict[str, float]) -> CoverageShares:
    """Shares from per-technology weight sums keyed by technology name."""
    weights: dict[RadioTechnology, float] = {t: 0.0 for t in ALL_TECHNOLOGIES}
    for name, weight in sums.items():
        weights[RadioTechnology[name]] += weight
    total = sum(weights.values())
    if total <= 0.0:
        raise AnalysisError(f"no coverage weight for {operator}")
    return CoverageShares(
        operator=operator,
        shares={t: w / total for t, w in weights.items()},
        total_weight=total,
    )


def active_coverage_shares(
    source: DriveDataset | query.Source,
    operator: Operator,
    direction: str | None = None,
    timezone: Timezone | None = None,
    speed_bin_label: str | None = None,
    *,
    seeds: tuple[int, ...] | None = None,
) -> CoverageShares:
    """Fig. 2 — distance-weighted technology shares from the active tests.

    Each driving sample weighs its speed (the distance it covered); static
    samples are excluded (they cover no distance), and so are samples with
    a negative or NaN speed, which cover no known distance.  Optional
    filters slice by direction (Fig. 2b), timezone (Fig. 2c) or the paper's
    speed bins (Fig. 2d).  ``source`` is a dataset or any
    :mod:`repro.store.query` source; ``seeds`` restricts a catalog.
    """
    where = [
        Eq("operator", operator),
        Eq("static", False),
        Between("speed_mph", lo=0.0),
    ]
    if direction is not None:
        where.append(Eq("direction", direction))
    if timezone is not None:
        where.append(Eq("timezone", timezone))
    if speed_bin_label is not None:
        where.append(where_speed_bin(speed_bin_label))
    sums = query.group_total(
        query.as_source(source), "tput", "tech", "speed_mph",
        where=tuple(where), seeds=seeds,
    )
    return _shares_from_sums(operator, sums)


def passive_coverage_shares(
    source: DriveDataset | query.Source,
    operator: Operator,
    *,
    seeds: tuple[int, ...] | None = None,
) -> CoverageShares:
    """Fig. 1 (passive view) — shares from the handover-logger phones.

    One grouped sum of segment length per technology; ``source`` is a
    dataset or any :mod:`repro.store.query` source, and catalog partitions
    whose stats exclude ``operator`` are never opened.
    """
    sums = query.group_total(
        query.as_source(source), "passive", "tech", "length_m",
        where=(Eq("operator", operator),), seeds=seeds,
    )
    return _shares_from_sums(operator, sums)


def coverage_by_direction(
    dataset: DriveDataset, operator: Operator
) -> dict[str, CoverageShares]:
    """Fig. 2b — coverage split by backlogged traffic direction."""
    source = query.as_source(dataset)
    return {
        direction: active_coverage_shares(source, operator, direction=direction)
        for direction in ("downlink", "uplink")
    }


def coverage_by_timezone(
    dataset: DriveDataset, operator: Operator
) -> dict[Timezone, CoverageShares]:
    """Fig. 2c — coverage per timezone."""
    source = query.as_source(dataset)
    out: dict[Timezone, CoverageShares] = {}
    for tz in Timezone:
        try:
            out[tz] = active_coverage_shares(source, operator, timezone=tz)
        except AnalysisError:
            continue  # a small-scale dataset may not sample every zone
    return out


def coverage_by_speed_bin(
    dataset: DriveDataset, operator: Operator
) -> dict[str, CoverageShares]:
    """Fig. 2d — coverage per speed bin (0-20 / 20-60 / 60+ mph)."""
    source = query.as_source(dataset)
    out: dict[str, CoverageShares] = {}
    for label in SPEED_BIN_LABELS:
        try:
            out[label] = active_coverage_shares(source, operator, speed_bin_label=label)
        except AnalysisError:
            continue
    return out


def route_technology_strip(
    dataset: DriveDataset,
    operator: Operator,
    view: str = "passive",
    bin_km: float = 10.0,
) -> list[tuple[float, RadioTechnology | None]]:
    """Fig. 1 — the technology observed along the route, binned by distance.

    Returns (bin start in km, dominant technology or None when the bin has
    no observations), for either the ``"passive"`` handover-logger view or
    the ``"active"`` XCAL-during-tests view.
    """
    if view not in ("passive", "active"):
        raise AnalysisError(f"unknown view {view!r}")
    # Accumulate weight per (bin, tech).
    bins: dict[int, dict[RadioTechnology, float]] = {}
    if view == "passive":
        for seg in dataset.passive_coverage:
            if seg.operator is not operator:
                continue
            b = int(seg.start_m / 1000.0 / bin_km)
            bins.setdefault(b, {}).setdefault(seg.tech, 0.0)
            bins[b][seg.tech] += seg.length_m
        last_bin = max(bins) if bins else 0
    else:
        for s in dataset.tput(operator=operator, static=False):
            b = int(s.mark_m / 1000.0 / bin_km)
            bins.setdefault(b, {}).setdefault(s.tech, 0.0)
            bins[b][s.tech] += max(s.speed_mph, 0.01)
        last_bin = max(bins) if bins else 0

    strip: list[tuple[float, RadioTechnology | None]] = []
    for b in range(last_bin + 1):
        weights = bins.get(b)
        dominant = max(weights, key=weights.get) if weights else None
        strip.append((b * bin_km, dominant))
    return strip
