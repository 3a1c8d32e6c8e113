#!/usr/bin/env python3
"""Reproduce the whole paper in one run.

Generates a campaign, validates it, and walks every section of the paper —
coverage (§4), network performance (§5), handovers (§6), applications (§7)
and the quantified §8 recommendations — printing the key rows of each table
and figure.  This is the end-to-end tour; the benchmark harness
(`pytest benchmarks/ --benchmark-only`) produces the complete per-figure
reports with paper values side by side.

Run:
    python examples/full_paper_report.py [--scale 0.08] [--save dataset.rcol]
"""

from __future__ import annotations

import argparse

import repro
from repro.analysis import coverage
from repro.analysis.correlation import KPI_NAMES, correlation_table
from repro.analysis.handovers import handover_durations, handovers_per_mile
from repro.analysis.performance import static_vs_driving
from repro.analysis.recommendations import quantify_recommendations
from repro.campaign.tests import TestType
from repro.campaign.validation import validate_dataset
from repro.radio.operators import Operator
from repro.reporting.strips import render_fig1
from repro.reporting.tables import render_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.08)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--save", type=str, default=None,
                        help="optionally persist the dataset here (.rcol)")
    args = parser.parse_args()

    print(f"Generating campaign (seed={args.seed}, scale={args.scale}) ...")
    dataset = repro.generate_dataset(seed=args.seed, scale=args.scale)

    validation = validate_dataset(dataset)
    print(f"Dataset validation: {validation.checks_run} checks, "
          f"{'OK' if validation.ok else f'{len(validation.issues)} ISSUES'}")
    if args.save:
        from repro.campaign.persistence import save_dataset

        save_dataset(dataset, args.save)
        print(f"Dataset saved to {args.save}")

    # §4 — coverage.
    print("\n" + "=" * 70 + "\n§4 NETWORK COVERAGE\n" + "=" * 70)
    print(render_fig1(dataset, bin_km=60.0))
    rows = []
    for op in Operator:
        shares = coverage.active_coverage_shares(dataset, op)
        rows.append([op.label, f"{100 * shares.share_5g:.0f}%",
                     f"{100 * shares.share_high_speed_5g:.0f}%"])
    print(render_table(["operator", "5G share", "high-speed 5G"], rows,
                       title="Fig. 2a (paper: 68% T-Mobile, ~20% V/A)"))

    # §5 — performance.
    print("\n" + "=" * 70 + "\n§5 NETWORK PERFORMANCE\n" + "=" * 70)
    rows = []
    for op in Operator:
        r = static_vs_driving(dataset, op)
        rows.append([
            op.label,
            f"{r.static_dl.median:.0f}", f"{r.driving_dl.median:.1f}",
            f"{100 * r.driving_dl.prob_below(5.0):.0f}%",
            f"{r.driving_rtt.median:.0f}",
        ])
    print(render_table(
        ["operator", "static DL med", "driving DL med", "DL<5Mbps", "RTT med"],
        rows, title="Fig. 3 (paper: 1511/311/710 static; 6-34 driving)",
    ))
    rows = []
    for row in correlation_table(dataset):
        rows.append([f"{row.operator.code} {row.direction[:2].upper()}"]
                    + [f"{row.coefficients[k]:+.2f}" for k in KPI_NAMES])
    print()
    print(render_table(["op/dir"] + list(KPI_NAMES), rows,
                       title="Table 2 (paper: nothing correlates strongly; HO ≈ 0)"))

    # §6 — handovers.
    print("\n" + "=" * 70 + "\n§6 HANDOVERS\n" + "=" * 70)
    rows = []
    for op in Operator:
        rate = handovers_per_mile(dataset, op, "downlink")
        dur = handover_durations(dataset, op, "downlink")
        rows.append([op.label, f"{rate.median:.1f}", f"{rate.maximum:.0f}",
                     f"{dur.median:.0f}"])
    print(render_table(
        ["operator", "HO/mile med", "max", "duration med (ms)"],
        rows, title="Fig. 11 (paper: 1-3/mile, 53-76 ms)",
    ))

    # §7 — applications.
    print("\n" + "=" * 70 + "\n§7 5G APPLICATIONS (Verizon)\n" + "=" * 70)
    from repro.analysis.apps import (
        gaming_app_report,
        offload_app_report,
        video_app_report,
    )

    ar = offload_app_report(dataset, Operator.VERIZON, TestType.AR)
    cav = offload_app_report(dataset, Operator.VERIZON, TestType.CAV)
    video = video_app_report(dataset, Operator.VERIZON)
    gaming = gaming_app_report(dataset, Operator.VERIZON)
    rows = [
        ["AR E2E median (compressed)",
         f"{ar.e2e_cdf[True].median:.0f} ms" if True in ar.e2e_cdf else "-", "214 ms"],
        ["CAV E2E median (compressed)",
         f"{cav.e2e_cdf[True].median:.0f} ms" if True in cav.e2e_cdf else "-", "269 ms"],
        ["video QoE median", f"{video.qoe_cdf.median:.1f}", "-53.75"],
        ["gaming bitrate median", f"{gaming.bitrate_cdf.median:.1f} Mbps", "17.5 Mbps"],
    ]
    print(render_table(["metric", "measured", "paper"], rows))

    # §8 — recommendations quantified.
    print("\n" + "=" * 70 + "\n§8 RECOMMENDATIONS, QUANTIFIED\n" + "=" * 70)
    rec = quantify_recommendations(dataset)
    rows = [
        [f"1. compression ({g.app.value})", f"{g.speedup:.1f}x E2E reduction"]
        for g in rec.compression
    ]
    for g in rec.multipath:
        rows.append([
            f"2. multipath ({g.direction})",
            f"{g.median_gain:.1f}x median; <5 Mbps {100 * g.single_outage_fraction:.0f}%"
            f" → {100 * g.aggregate_outage_fraction:.0f}%",
        ])
    rows.append([
        "3. edge serving",
        f"RTT −{100 * rec.edge.rtt_reduction:.0f}% "
        f"({rec.edge.rtt_median_cloud_ms:.0f} → {rec.edge.rtt_median_edge_ms:.0f} ms)",
    ])
    print(render_table(["recommendation", "quantified benefit"], rows))


if __name__ == "__main__":
    main()
