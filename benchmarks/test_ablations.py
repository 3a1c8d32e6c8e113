"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. Active vs passive coverage measurement — the cost of passive probing
   (the paper's [C3] methodology lesson).
2. Edge vs cloud serving — throughput/RTT/QoE deltas (§5.2, §7).
3. Frame compression on/off for AR and CAV (§7.1).
4. Single-flow CUBIC vs the idealised link capacity — why medians sit far
   below peak rates (§5's single-connection methodology).
5. Multi-operator aggregation upper bound — the paper's recommendation #2.
"""

import numpy as np

from repro.analysis import coverage
from repro.analysis.apps import offload_app_report
from repro.analysis.opdiversity import multi_operator_gain
from repro.campaign.tests import TestType
from repro.net.servers import ServerKind
from repro.net.tcp import CubicFlow
from repro.radio.operators import Operator
from repro.reporting.tables import render_table


def test_ablation_passive_vs_active_coverage(benchmark, dataset, report):
    """How much 5G coverage does a passive probe miss, per operator?"""

    def _compute():
        return {
            op: (
                coverage.passive_coverage_shares(dataset, op).share_5g,
                coverage.active_coverage_shares(dataset, op).share_5g,
            )
            for op in Operator
        }

    result = benchmark.pedantic(_compute, rounds=1, iterations=1)
    rows = [
        [op.label, f"{100 * p:.1f}%", f"{100 * a:.1f}%", f"{100 * (a - p):.1f} pp"]
        for op, (p, a) in result.items()
    ]
    report(
        "ablation_passive_vs_active",
        render_table(
            ["operator", "passive 5G", "active 5G", "missed"],
            rows, title="Ablation 1: coverage missed by passive probing",
        ),
    )
    for p, a in result.values():
        assert a >= p


def test_ablation_edge_vs_cloud(benchmark, dataset, report):
    """Verizon's Wavelength edge vs EC2 cloud across metrics."""

    def _compute():
        rtt_edge = dataset.rtt_values(operator=Operator.VERIZON, static=False, server_kind=ServerKind.EDGE)
        rtt_cloud = dataset.rtt_values(operator=Operator.VERIZON, static=False, server_kind=ServerKind.CLOUD)
        video_edge = [r.qoe for r in dataset.video_runs if r.operator is Operator.VERIZON and r.server_kind is ServerKind.EDGE and not r.static]
        video_cloud = [r.qoe for r in dataset.video_runs if r.operator is Operator.VERIZON and r.server_kind is ServerKind.CLOUD and not r.static]
        return rtt_edge, rtt_cloud, video_edge, video_cloud

    rtt_edge, rtt_cloud, video_edge, video_cloud = benchmark.pedantic(_compute, rounds=1, iterations=1)
    rows = [
        ["RTT median (ms)",
         f"{np.median(rtt_edge):.1f}" if len(rtt_edge) else "-",
         f"{np.median(rtt_cloud):.1f}" if len(rtt_cloud) else "-"],
        ["video QoE median",
         f"{np.median(video_edge):.1f}" if video_edge else "-",
         f"{np.median(video_cloud):.1f}" if video_cloud else "-"],
    ]
    report(
        "ablation_edge_vs_cloud",
        render_table(["metric", "edge", "cloud"], rows,
                     title="Ablation 2: Verizon edge vs cloud serving"),
    )
    if len(rtt_edge) >= 20 and len(rtt_cloud) >= 20:
        assert np.median(rtt_edge) < np.median(rtt_cloud)


def test_ablation_compression(benchmark, dataset, report):
    """Frame compression's E2E effect for both offloading apps."""

    def _compute():
        out = {}
        for app in (TestType.AR, TestType.CAV):
            r = offload_app_report(dataset, Operator.VERIZON, app)
            if True in r.e2e_cdf and False in r.e2e_cdf:
                out[app] = (r.e2e_cdf[False].median, r.e2e_cdf[True].median)
        return out

    result = benchmark.pedantic(_compute, rounds=1, iterations=1)
    rows = [
        [app.value, f"{raw:.0f}", f"{comp:.0f}", f"{raw / comp:.1f}x"]
        for app, (raw, comp) in result.items()
    ]
    report(
        "ablation_compression",
        render_table(["app", "raw E2E med (ms)", "compressed", "speedup"],
                     rows, title="Ablation 3: frame compression (paper: CAV ~8x)"),
    )
    for raw, comp in result.values():
        assert comp < raw


def test_ablation_tcp_vs_ideal_link(benchmark, report):
    """How much of the link does one CUBIC flow leave on the table?"""

    def _compute():
        rng = np.random.default_rng(0)
        # A fluctuating link: alternating good/bad 10 s phases.
        capacities = []
        for phase in range(12):
            level = 150.0 if phase % 2 == 0 else 8.0
            capacities += [level] * 20
        flow = CubicFlow(np.random.default_rng(1))
        achieved = [
            flow.advance(c, rtt_ms=80.0, dt_s=0.5, bler=0.05) for c in capacities
        ]
        return float(np.mean(achieved)), float(np.mean(capacities))

    achieved, ideal = benchmark.pedantic(_compute, rounds=1, iterations=1)
    report(
        "ablation_tcp_vs_ideal",
        render_table(
            ["mean goodput (Mbps)", "mean capacity (Mbps)", "efficiency"],
            [[f"{achieved:.1f}", f"{ideal:.1f}", f"{100 * achieved / ideal:.0f}%"]],
            title="Ablation 4: single CUBIC flow vs ideal link",
        ),
    )
    assert achieved < ideal
    assert achieved / ideal > 0.2  # not absurdly inefficient either


def test_ablation_multi_operator(benchmark, dataset, report):
    """Upper bound of aggregating all three operators (recommendation #2)."""

    def _compute():
        return {
            d: multi_operator_gain(dataset, d) for d in ("downlink", "uplink")
        }

    gains = benchmark.pedantic(_compute, rounds=1, iterations=1)
    rows = [
        [d] + [f"{gains[d][op]:.2f}x" for op in Operator]
        for d in ("downlink", "uplink")
    ]
    report(
        "ablation_multi_operator",
        render_table(
            ["direction"] + [op.label for op in Operator], rows,
            title="Ablation 5: median gain of best-of-3 operators vs single",
        ),
    )
    for by_op in gains.values():
        assert all(g >= 1.0 for g in by_op.values())
        assert max(by_op.values()) > 1.2


def test_ablation_no_uplink_demotion(benchmark, report, route):
    """What if operators granted high-speed 5G symmetrically?

    Re-runs a small campaign with identity uplink-demotion rules: the
    Fig. 2b DL/UL high-speed-5G asymmetry should flatten — showing the
    asymmetry is a *policy* effect, not a deployment one.
    """
    from repro.campaign.runner import CampaignConfig, CampaignWindow, DriveCampaign
    from repro.policy.profiles import DEFAULT_POLICY_PROFILES, PolicyProfile
    from repro.radio.technology import RadioTechnology

    def _run(with_demotion: bool):
        overrides = None
        if not with_demotion:
            overrides = {}
            for op, base in DEFAULT_POLICY_PROFILES.items():
                overrides[op] = PolicyProfile(
                    operator=op,
                    ul_demotion={t: {t: 1.0} for t in RadioTechnology},
                    idle_5g_upgrade_prob=base.idle_5g_upgrade_prob,
                    idle_mmwave_city_prob=base.idle_mmwave_city_prob,
                )
        campaign = DriveCampaign(
            CampaignConfig(seed=7, scale=0.03, include_apps=False, include_static=False),
            route,
            policy_profiles=overrides,
            window=CampaignWindow(index=0, start_m=0.0, end_m=route.total_length_m),
        )
        ds = campaign.run()
        gaps = {}
        for op in Operator:
            by_dir = coverage.coverage_by_direction(ds, op)
            gaps[op] = (
                by_dir["downlink"].share_high_speed_5g
                - by_dir["uplink"].share_high_speed_5g
            )
        return gaps

    def _compute():
        return _run(with_demotion=True), _run(with_demotion=False)

    with_dem, without_dem = benchmark.pedantic(_compute, rounds=1, iterations=1)
    rows = [
        [op.label, f"{100 * with_dem[op]:.1f} pp", f"{100 * without_dem[op]:.1f} pp"]
        for op in Operator
    ]
    report(
        "ablation_no_ul_demotion",
        render_table(
            ["operator", "DL-UL HS-5G gap (default)", "gap (no demotion)"],
            rows,
            title="Ablation 6: removing uplink demotion flattens Fig. 2b",
        ),
    )
    # Aggregated across operators, removing demotion shrinks the asymmetry.
    assert sum(without_dem.values()) < sum(with_dem.values())
