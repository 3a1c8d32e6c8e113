#!/usr/bin/env python3
"""§B reproduction: the log-synchronisation software.

Regenerates the raw log mess the authors faced — DRM files with local-time
filenames and EDT contents, app logs stamped in UTC epoch or local wall-clock
— then runs the matcher (which must hypothesise the capture timezone for
each DRM file) and builds the consolidated database joining app metrics with
PHY KPIs.

Run:
    python examples/log_sync_pipeline.py [--scale 0.01] [--write-dir /tmp/drive-logs]
"""

from __future__ import annotations

import argparse
import pathlib

from repro.campaign.runner import generate_dataset
from repro.geo.route import build_cross_country_route
from repro.reporting.tables import render_table
from repro.sync.database import ConsolidatedDatabase
from repro.sync.matcher import match_logs
from repro.xcal.export import export_logs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--write-dir", type=str, default=None,
                        help="optionally materialise the raw log files here")
    args = parser.parse_args()

    print("Generating campaign ...")
    dataset = generate_dataset(
        seed=args.seed, scale=args.scale, include_apps=False, include_static=False,
    )

    print("Exporting raw logs (DRM + app-layer) ...")
    drm_files, app_logs = export_logs(dataset, build_cross_country_route())
    print(f"  {len(drm_files)} DRM files, {len(app_logs)} app logs")
    print(f"  example DRM filename (local time):  {drm_files[0].filename}")
    print(f"  example app log filename (UTC):     {app_logs[0].filename}")
    print(f"  example DRM content line (EDT):     "
          f"{drm_files[0].serialize().splitlines()[1][:72]} ...")

    if args.write_dir:
        out = pathlib.Path(args.write_dir)
        out.mkdir(parents=True, exist_ok=True)
        for drm in drm_files:
            (out / drm.filename).write_text(drm.serialize())
        for log in app_logs:
            (out / log.filename).write_text(log.serialize())
        print(f"  wrote {len(drm_files) + len(app_logs)} files to {out}")

    print("\nMatching app logs to DRM captures across timezones ...")
    pairs = match_logs(drm_files, app_logs)
    zones = {}
    for pair in pairs:
        zones[pair.inferred_timezone.label] = zones.get(pair.inferred_timezone.label, 0) + 1
    rows = [[tz, count] for tz, count in sorted(zones.items())]
    print(render_table(["inferred capture timezone", "matched tests"], rows))

    print("\nBuilding the consolidated database (app ⋈ XCAL KPIs) ...")
    db = ConsolidatedDatabase.build(pairs)
    print(f"  joined rows: {len(db)}")
    print(f"  join rate:   {100 * db.match_rate():.1f}%")
    sample = db.rows[0]
    print(f"  example row: {sample.utc} {sample.operator.code} "
          f"{sample.test_label} app={sample.app_value:.2f} "
          f"tech={sample.technology.label} rsrp={sample.rsrp_dbm:.1f} "
          f"mcs={sample.mcs}")


if __name__ == "__main__":
    main()
