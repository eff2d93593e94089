"""The package layers the traced run measures, and the per-layer metrics made
from its spans.

Layers are the package's modules.  Every ``*_s`` metric is a mean self time
per scenario: the time spent in that layer's own code, with the time of the
wrapped calls it makes subtracted.  Counts are means per scenario too.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

# span name -> per-layer metric reporting its self time
SELF_TIME_METRICS = {
    "protocol.run": "protocol.run_s",
    "scenario.run_scenario": "scenario.run_scenario_s",
    "scenario.load": "scenario.load_s",
    "scenario.build_instance": "scenario.build_instance_s",
    "scenario.certificate_digest": "scenario.certificate_digest_s",
    "scenario.emit_trace": "scenario.emit_trace_s",
    "oracle.summary": "oracle.summary_s",
    "netgraph.edges_at": "netgraph.edges_at_s",
    "netgraph.window_connectivity": "netgraph.window_connectivity_s",
    "rootfind.bounded_lipschitz": "rootfind.bounded_lipschitz_s",
    "rootfind.sign": "rootfind.sign_s",
    "rootfind.deviation_rate": "rootfind.deviation_rate_s",
    "cli.main.check": "cli.main.check_s",
    "cli.main.solve": "cli.main.solve_s",
    "cli.main.run": "cli.main.run_s",
    "bench.verify": "bench.verify_s",
}
ROOT_SPAN = "bench.scenario"

UNITS = {name: "s" for name in SELF_TIME_METRICS.values()}
UNITS.update({
    "protocol.region_rounds_per_s": "1/s",
    "protocol.rounds": "count",
    "protocol.useful_round_ratio": "ratio",
    "protocol.record_overhead_s": "s",
    "scenario.emit_mb_per_s": "MB/s",
    "scenario.emit_rows": "count",
    "scenario.generate_s": "s",
    "netgraph.edges_at_calls": "count",
    "netgraph.distinct_graphs": "count",
    "netgraph.edges_at_share": "ratio",
    "seeding.mix64_calls": "count",
    "criticality.eval_surrogate_calls": "count",
    "bench.harness_s": "s",
    "bench.scenario_s_traced": "s",
    "bench.scenario_s_untraced": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.self_time_residual_ratio": "ratio",
})


class LayerHooks:
    """Installs the wrappers and keeps what the span records cannot carry."""

    def __init__(self) -> None:
        self.runs: list[tuple[int, int, int]] = []  # (rounds, regions, stable rounds)
        self.emitted: list[tuple[int, int]] = []  # (rows, bytes)
        self.graphs: set = set()
        self.distinct_graphs: list[int] = []

    def install(self, tracer, pkg) -> None:
        sc, cli, ng = pkg.scenario, pkg.cli, pkg.netgraph
        tracer.wrap(sc, "run_scenario", "scenario.run_scenario")
        tracer.wrap(sc, "loads_scenario", "scenario.load")
        tracer.wrap(sc, "build_instance", "scenario.build_instance")
        tracer.wrap(sc, "certificate_digest", "scenario.certificate_digest")
        tracer.wrap(sc, "emit_trace", "scenario.emit_trace", after=self._emitted)
        tracer.wrap(sc, "oracle_summary", "oracle.summary")
        for owner in (sc, cli):
            tracer.wrap(owner, "run_protocol", "protocol.run", after=self._ran)
            tracer.wrap(owner, "check_window_connectivity", "netgraph.window_connectivity")
        for schedule in (ng.StaticSchedule, ng.PeriodicSchedule, ng.RandomSchedule):
            tracer.wrap(schedule, "edges_at", "netgraph.edges_at", after=self._edges)
        tracer.wrap(pkg.rootfind, "verify_assumption_bounded_lipschitz", "rootfind.bounded_lipschitz")
        tracer.wrap(pkg.rootfind, "verify_sign_condition", "rootfind.sign")
        tracer.wrap(pkg.rootfind, "verify_deviation_rate", "rootfind.deviation_rate")
        tracer.wrap(cli, "main", lambda args: f"cli.main.{args[0][0]}")
        for owner in (pkg.seeding, ng, sc):
            tracer.count(owner, "mix64", "seeding.mix64")
        tracer.count(cli, "eval_surrogate", "criticality.eval_surrogate")

    def _ran(self, trace, args) -> None:
        self.runs.append((trace.rounds, len(trace.final_x), trace.zeta_stable_rounds))

    def _emitted(self, result, args) -> None:
        trace, path = args[0], args[1]
        self.emitted.append((trace.rounds * trace.x.shape[1], os.path.getsize(path)))

    def _edges(self, edges, args) -> None:
        self.graphs.add(edges)

    def end_scenario(self) -> None:
        self.distinct_graphs.append(len(self.graphs))
        self.graphs.clear()


def per_layer_metrics(tracer, hooks: LayerHooks, scenarios, untraced, gen_times,
                      record_overhead_s: float, probe_intervals) -> dict[str, float]:
    """Per-layer metrics from one traced phase.

    ``scenarios`` holds (pool index, speed factor, root span id, end span id)
    per traced scenario; every span of a scenario is scaled by its factor.
    ``untraced`` holds (pool index, scaled seconds) per untraced scenario of
    the same pool.  The speed probe's ``probe_intervals`` are taken out of
    the spans they ran in.
    """
    scale = np.zeros(len(tracer.start))
    for _, factor, root, stop in scenarios:
        scale[root:stop] = factor
    self_time = tracer.self_times(probe_intervals) * scale
    name_of = np.asarray(tracer.names)[np.frombuffer(tracer.name_id, dtype=np.int32)]
    totals = defaultdict(float)
    for name, value in zip(name_of.tolist(), self_time.tolist()):
        totals[name] += value
    count = len(scenarios)
    per = 1.0 / count
    m = {metric: totals[span] * per for span, metric in SELF_TIME_METRICS.items()}

    rounds = sum(r for r, _, _ in hooks.runs)
    m["protocol.region_rounds_per_s"] = (
        sum(r * n for r, n, _ in hooks.runs) / totals["protocol.run"] if hooks.runs else 0.0
    )
    m["protocol.rounds"] = rounds * per
    m["protocol.useful_round_ratio"] = (
        sum(r - s for r, _, s in hooks.runs) / rounds if rounds else 0.0
    )
    m["protocol.record_overhead_s"] = record_overhead_s
    m["scenario.emit_rows"] = sum(r for r, _ in hooks.emitted) * per
    m["scenario.emit_mb_per_s"] = (
        sum(b for _, b in hooks.emitted) / 1e6 / totals["scenario.emit_trace"]
        if hooks.emitted else 0.0
    )
    m["scenario.generate_s"] = sum(gen_times) / len(gen_times) if gen_times else 0.0
    m["netgraph.edges_at_calls"] = int(np.count_nonzero(name_of == "netgraph.edges_at")) * per
    m["netgraph.distinct_graphs"] = sum(hooks.distinct_graphs) * per
    m["seeding.mix64_calls"] = tracer.counts.get("seeding.mix64", [0])[0] * per
    m["criticality.eval_surrogate_calls"] = (
        tracer.counts.get("criticality.eval_surrogate", [0])[0] * per
    )

    # per pool scenario: traced time, the self times of the layer spans under
    # it (all but the benchmark's glue in the root span), and untraced time;
    # comparing like scenarios keeps the pool's mix out of the ratios
    traced_by_item, layers_by_item, untraced_by_item = (
        defaultdict(list), defaultdict(list), defaultdict(list)
    )
    for item, _, root, stop in scenarios:
        traced_by_item[item].append(float(self_time[root:stop].sum()))
        layers_by_item[item].append(float(self_time[root + 1:stop].sum()))
    for item, seconds in untraced:
        untraced_by_item[item].append(seconds)
    common = sorted(set(traced_by_item) & set(untraced_by_item))

    def mean_sum(by_item):
        return sum(sum(by_item[i]) / len(by_item[i]) for i in common)

    traced_s, layers_s, untraced_s = (
        mean_sum(traced_by_item), mean_sum(layers_by_item), mean_sum(untraced_by_item)
    )
    scenario_s = float(self_time.sum()) * per  # every span nests in a root span
    m["bench.harness_s"] = totals[ROOT_SPAN] * per
    m["bench.scenario_s_traced"] = scenario_s
    m["bench.scenario_s_untraced"] = sum(s for _, s in untraced) / len(untraced)
    m["netgraph.edges_at_share"] = totals["netgraph.edges_at"] * per / scenario_s
    m["bench.trace_overhead_ratio"] = traced_s / untraced_s - 1.0
    m["bench.self_time_residual_ratio"] = layers_s / untraced_s - 1.0
    return m
