"""The 8-day trip timeline."""

from datetime import datetime, timedelta

import pytest

from repro.errors import ConfigurationError
from repro.geo.trip import (
    PAPER_TRIP_START_UTC,
    TripTimeline,
    build_paper_timeline,
    expected_drive_days,
)


@pytest.fixture(scope="module")
def timeline():
    return build_paper_timeline()


class TestTimeline:
    def test_trip_start_anchor(self, timeline):
        assert timeline.wall_clock_utc(0.0) == PAPER_TRIP_START_UTC
        assert PAPER_TRIP_START_UTC == datetime(2022, 8, 8, 15, 0, 0)

    def test_first_day_is_linear(self, timeline):
        one_hour = timeline.wall_clock_utc(3600.0)
        assert one_hour == PAPER_TRIP_START_UTC + timedelta(hours=1)

    def test_overnight_gap_inserted(self, timeline):
        end_of_day1 = timeline.wall_clock_utc(timeline.drive_seconds_per_day - 1)
        start_of_day2 = timeline.wall_clock_utc(timeline.drive_seconds_per_day + 1)
        gap = (start_of_day2 - end_of_day1).total_seconds()
        assert gap == pytest.approx(timeline.overnight_seconds + 2, abs=1.0)

    def test_day_numbering(self, timeline):
        assert timeline.day_of(0.0) == 1
        assert timeline.day_of(timeline.drive_seconds_per_day - 1) == 1
        assert timeline.day_of(timeline.drive_seconds_per_day) == 2

    def test_wall_clock_monotone(self, timeline):
        instants = [timeline.wall_clock_utc(s) for s in range(0, 200_000, 5_000)]
        assert instants == sorted(instants)

    def test_inverse_mapping_round_trip(self, timeline):
        for campaign_s in (0.0, 1800.0, 40_000.0, 100_000.0):
            wall = timeline.wall_clock_utc(campaign_s)
            assert timeline.campaign_seconds(wall) == pytest.approx(campaign_s, abs=1.0)

    def test_overnight_instants_map_to_stop(self, timeline):
        overnight = timeline.wall_clock_utc(timeline.drive_seconds_per_day - 1) + timedelta(hours=3)
        assert timeline.campaign_seconds(overnight) == pytest.approx(
            timeline.drive_seconds_per_day, abs=2.0
        )

    def test_negative_time_rejected(self, timeline):
        with pytest.raises(ConfigurationError):
            timeline.day_of(-1.0)
        with pytest.raises(ConfigurationError):
            timeline.campaign_seconds(PAPER_TRIP_START_UTC - timedelta(hours=1))

    def test_invalid_durations_rejected(self):
        with pytest.raises(ConfigurationError):
            TripTimeline(PAPER_TRIP_START_UTC, 0.0, 3600.0)


class TestPaperSchedule:
    def test_route_fits_in_about_eight_days(self, route):
        """5711 km at mixed speeds → the paper's 8-day schedule."""
        days = expected_drive_days(route)
        assert 5 <= days <= 9

    def test_exported_logs_span_calendar_days(self, route):
        from repro.campaign.runner import generate_dataset
        from repro.xcal.export import export_logs
        from repro.sync.matcher import match_logs

        ds = generate_dataset(
            seed=4, scale=0.003, include_apps=False, include_static=False
        )
        drms, logs = export_logs(ds, route, timeline=build_paper_timeline())
        days = {d.start_local.date() for d in drms}
        assert len(days) >= 4  # the trip crosses multiple calendar days
        # Matching still succeeds across the day boundaries.
        assert len(match_logs(drms, logs)) == len(logs)
