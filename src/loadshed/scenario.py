"""Scenario configuration, deterministic generation, runs, and reports.

A scenario is a single JSON document (version 1) fully describing one
load-shedding problem and the runtime that solves it: loads and regions,
the deficit, the communication schedule, step sizes, the per-region
deficit estimator, and the stopping setup.  Identical configs produce
byte-identical traces.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .criticality import (
    Ccf,
    ConvexCombiner,
    CriticalLoad,
    Load,
    Region,
    SurrogateCcf,
    build_ccf,
    check_ramp_width,
    eval_ccf,
    min_gap,
    resolve_loads,
)
from .netgraph import (
    GraphSchedule,
    PeriodicSchedule,
    RandomSchedule,
    StaticSchedule,
    check_window_connectivity,
    connected_components,
    draw_edges,
    edge_sets,
    metropolis_weights,
    normalize_edges,
    repair_edges,
    stochasticity_defect,
)
from .oracle import (
    ContinuousSolution,
    continuous_fill,
    continuous_solution,
    greedy_shed_set,
)
from .protocol import (
    Estimator,
    ExactSplit,
    NoisySplit,
    ProtocolInstance,
    RunTrace,
    StepSchedule,
    TraceEstimator,
    run_protocol,
)
from .seeding import STREAM_NATURE, STREAM_POWER, STREAM_REGION, mix64, unit_float

CONFIG_VERSION = 1

# generated scenarios reject power draws that put the surrogate root
# within this fraction of a ramp of a breakpoint; such degenerate
# instances have an ill-conditioned threshold (an exact cumulative hit
# is a measure-zero coincidence) and stall the quantized protocol state
DEGENERACY_MARGIN = 0.3

CRITICALITY_GRID = 10_000  # nature criticalities are multiples of 1e-4

# emit_trace builds and writes this many rounds of rows at a time; the
# text of a block stays well under a megabyte at any region count the
# generator makes
TRACE_BLOCK_ROUNDS = 128


class ScenarioError(ValueError):
    """Configuration failed to parse or validate."""


@dataclass(frozen=True)
class ContinuousRegion:
    id: int
    capacity: float
    criticality: int

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError(f"region {self.id}: negative capacity {self.capacity}")
        if not (isinstance(self.criticality, int) and self.criticality >= 1):
            raise ValueError(f"region {self.id}: continuous criticality must be a positive "
                             f"integer, got {self.criticality!r}")


@dataclass(frozen=True)
class GraphSpec:
    """Declarative communication-schedule description.

    kinds: ``static`` (fixed edge list), ``periodic`` (cycle of edge
    lists), ``random`` (Bernoulli edges, window-repaired).  Edges name
    region ids, not indices.
    """

    kind: str
    edges: tuple[tuple[int, int], ...] = ()
    steps: tuple[tuple[tuple[int, int], ...], ...] = ()
    edge_probability: float = 0.5
    window: int = 1


@dataclass(frozen=True)
class EstimatorSpec:
    """Deficit-estimator description: exact_split | noisy_split | trace."""

    kind: str
    rows: tuple[tuple[float, ...], ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    version: int
    mode: str  # "discrete" | "continuous"
    deficit: float
    seed: int
    graph: GraphSpec
    step: StepSchedule
    estimator: EstimatorSpec
    max_rounds: int
    convergence_window: int | None  # None: fixed-horizon run
    combiner_weight: float = 0.5
    ramp_width: float | None = None  # None: smallest criticality gap
    x0: float = 0.0  # initial threshold estimate at every region
    regions: tuple[Region, ...] = ()
    continuous_regions: tuple[ContinuousRegion, ...] = ()


@dataclass(frozen=True)
class OracleSummary:
    z_star: float
    z_hat: float
    shed_total: float
    shed_ids: tuple[int, ...]
    greedy_total: float
    greedy_ids: tuple[int, ...]
    boundary_case: bool


@dataclass(frozen=True)
class SummaryReport:
    mode: str
    oracle: OracleSummary | None
    oracle_continuous: ContinuousSolution | None
    distributed_z_star: float | None
    per_region_final: tuple[float | str, ...]  # "inf" for an infinite value
    distributed_shed_total: float | None
    rounds: int
    converged: bool
    certificate_digest: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# assembly helpers


def resolved_loads(config: ScenarioConfig) -> tuple[CriticalLoad, ...]:
    return resolve_loads(config.regions, ConvexCombiner(config.combiner_weight))


def regional_loads(config: ScenarioConfig) -> tuple[tuple[CriticalLoad, ...], ...]:
    combiner = ConvexCombiner(config.combiner_weight)
    return tuple(
        resolve_loads((region,), combiner) for region in config.regions
    )


def resolve_ramp_width(config: ScenarioConfig) -> float:
    if config.ramp_width is not None:
        return config.ramp_width
    crits = [l.criticality for l in resolved_loads(config)]
    if len(set(crits)) < 2:
        return 1.0
    return min_gap(crits)


def region_ids(config: ScenarioConfig) -> tuple[int, ...]:
    if config.mode == "continuous":
        return tuple(r.id for r in config.continuous_regions)
    return tuple(r.id for r in config.regions)


def build_schedule(config: ScenarioConfig) -> GraphSchedule:
    ids = region_ids(config)
    index = {rid: k for k, rid in enumerate(ids)}
    n = len(ids)
    spec = config.graph

    def to_indices(edges: Iterable[tuple[int, int]]) -> frozenset:
        try:
            pairs = [(index[i], index[j]) for i, j in edges]
        except KeyError as exc:
            raise ScenarioError(f"graph references unknown region id {exc.args[0]}")
        return normalize_edges(pairs, n)

    if spec.kind == "static":
        return StaticSchedule(n, to_indices(spec.edges), spec.window)
    if spec.kind == "periodic":
        return PeriodicSchedule(
            n, tuple(to_indices(step) for step in spec.steps), spec.window
        )
    if spec.kind == "random":
        return RandomSchedule(n, spec.edge_probability, spec.window, config.seed)
    raise ScenarioError(f"unknown graph kind {spec.kind!r}")


def build_estimator(config: ScenarioConfig) -> Estimator:
    n = len(region_ids(config))
    spec = config.estimator
    if spec.kind == "exact_split":
        return ExactSplit(config.deficit, n)
    if spec.kind == "noisy_split":
        return NoisySplit(config.deficit, n, config.seed)
    if spec.kind == "trace":
        return TraceEstimator(spec.rows)
    raise ScenarioError(f"unknown estimator kind {spec.kind!r}")


def build_instance(config: ScenarioConfig) -> ProtocolInstance:
    """Assemble the runtime inputs for a discrete or continuous scenario.

    Continuous regions enter the same engine as single-breakpoint CCFs
    with a unit-width ramp; their surrogate is the continuous CCF itself.
    """
    if config.mode == "continuous":
        surrogates = tuple(
            SurrogateCcf(Ccf((float(r.criticality),), (r.capacity,)), 1.0)
            for r in config.continuous_regions
        )
        crits = tuple((float(r.criticality),) for r in config.continuous_regions)
        ramp_width = 1.0
    else:
        per_region = regional_loads(config)
        ramp_width = resolve_ramp_width(config)
        surrogates = tuple(
            SurrogateCcf(build_ccf((l.power, l.criticality) for l in loads), ramp_width)
            for loads in per_region
        )
        crits = tuple(
            tuple(sorted(l.criticality for l in loads)) for loads in per_region
        )
    return ProtocolInstance(
        region_criticalities=crits,
        surrogates=surrogates,
        ramp_width=ramp_width,
        schedule=build_schedule(config),
        step=config.step,
        estimator=build_estimator(config),
        convergence_window=config.convergence_window,
        max_rounds=config.max_rounds,
        x0=config.x0,
    )


# ---------------------------------------------------------------------------
# validation


def validate(config: ScenarioConfig, window_is_period: bool = False) -> None:
    """Raise a ``ScenarioError`` naming the first fault of ``config``;
    ``window_is_period``: the graph's window is its period by default."""
    if config.version != CONFIG_VERSION:
        raise ScenarioError(f"unsupported config version {config.version}")
    if config.mode not in ("discrete", "continuous"):
        raise ScenarioError(f"unknown mode {config.mode!r}")
    if config.deficit < 0:
        raise ScenarioError(f"deficit {config.deficit} is negative")
    if config.max_rounds < 1:
        raise ScenarioError("max_rounds must be positive")
    if config.convergence_window is not None and config.convergence_window < 1:
        raise ScenarioError("convergence window must be positive or null")
    if not 1 <= config.graph.window <= config.max_rounds:
        window = config.graph.window
        given = f"defaults to the period {window}, which is" if window_is_period else window
        raise ScenarioError(
            f"graph.window {given} outside [1, max_rounds = {config.max_rounds}]"
        )
    # checked in every mode and graph kind, also where unused
    for field, value in (("graph.edge_probability", config.graph.edge_probability),
                         ("combiner_weight", config.combiner_weight)):
        if not 0.0 <= value <= 1.0:
            raise ScenarioError(f"{field} {value} outside [0, 1]")

    ids = region_ids(config)
    if len(set(ids)) != len(ids):
        raise ScenarioError("region ids must be unique")
    if config.estimator.kind == "trace":
        for k, row in enumerate(config.estimator.rows):
            if len(row) != len(ids):
                raise ScenarioError(
                    f"estimator.rows[{k}] has {len(row)} entries for {len(ids)} regions"
                )

    crits: list[float] = []
    if config.mode == "continuous":
        if not config.continuous_regions:
            raise ScenarioError("continuous mode needs continuous_regions")
        total = math.fsum(r.capacity for r in config.continuous_regions)
        if total < config.deficit:
            raise ScenarioError(
                f"infeasible: total capacity {total} is below the deficit "
                f"{config.deficit}; the load set must cover the deficit"
            )
    else:
        if not config.regions:
            raise ScenarioError("discrete mode needs regions")
        loads = resolved_loads(config)  # validates partition and ranges
        total = math.fsum(l.power for l in loads)
        if total < config.deficit:
            raise ScenarioError(
                f"infeasible: total sheddable power {total} is below the "
                f"deficit {config.deficit}; the load set must cover the deficit"
            )
        crits = [l.criticality for l in loads]
    if config.ramp_width is not None:  # continuous mode: positivity only
        try:
            check_ramp_width(crits, config.ramp_width)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    build_estimator(config)
    # schedule sanity: buildable, and unions over the horizon's windows connect
    schedule = build_schedule(config)
    report = check_window_connectivity(schedule, config.max_rounds)
    if not report.passed:
        raise ScenarioError(
            f"communication schedule fails window connectivity at window "
            f"{report.failing_window} (window {schedule.window})"
        )


# ---------------------------------------------------------------------------
# JSON serialization


_KINDS = {
    dict: "an object", list: "an array", str: "a string",
    int: "an integer", float: "a finite number",
}

# One table per JSON object, read by ``_fields`` and written by
# ``_config_to_dict``: a key maps to (kind, default), or to (kind,) if it is
# required.  A default of None marks an optional key with no value of its
# own; a third entry is the one value accepted outside the kind.  A key
# names the attribute it is built into (a discrete region's criticality:
# ``region_criticality``).  tests/test_schema.py holds the schema to them.
_ROOT = {
    "version": (int,),
    "mode": (str,),
    "deficit": (float,),
    "seed": (int, 0),
    "combiner_weight": (float, 0.5),
    "ramp_width": (float, "auto", "auto"),
    "x0": (float, 0.0),
    "max_rounds": (int, 20_000),
    "convergence_window": (int, 50, None),
    "graph": (dict,),
    "step": (dict, {}),
    "estimator": (dict, {"kind": "exact_split"}),
    "regions": (list,),
}
_GRAPH = {
    "kind": (str,),
    "edges": (list, []),
    "steps": (list, []),
    "edge_probability": (float, 0.5),
    "window": (int, None),  # the period of a periodic graph, else 1
}
_STEP = {"gain": (float, 1.0), "offset": (float, 1.0), "exponent": (float, 1.0)}
_ESTIMATOR = {"kind": (str,), "rows": (list, None)}
_REGION = {"id": (int,), "criticality": (float,), "loads": (list,)}
_LOAD = {"id": (int,), "power": (float,), "nature_criticality": (float,)}
_CONTINUOUS_REGION = {"id": (int,), "capacity": (float,), "criticality": (int,)}
# the keys written only for a graph or an estimator of one kind, and that kind
_ONLY_FOR = {"edges": "static", "steps": "periodic", "edge_probability": "random", "rows": "trace"}


def _written(obj, table: dict, **values) -> dict:
    """The keys of ``table`` that ``obj``'s kind writes, valued from ``values`` or ``obj``."""
    kind = getattr(obj, "kind", None)
    return {key: values[key] if key in values else getattr(obj, key)
            for key in table if _ONLY_FOR.get(key, kind) == kind}


def _config_to_dict(config: ScenarioConfig) -> dict:
    return _written(
        config, _ROOT,
        ramp_width="auto" if config.ramp_width is None else config.ramp_width,
        graph=_written(config.graph, _GRAPH),
        step=_written(config.step, _STEP),
        estimator=_written(config.estimator, _ESTIMATOR),
        regions=[
            _written(region, _CONTINUOUS_REGION) for region in config.continuous_regions
        ] if config.mode == "continuous" else [
            _written(region, _REGION, criticality=region.region_criticality,
                     loads=[_written(load, _LOAD) for load in region.loads])
            for region in config.regions
        ],
    )


def dump_scenario(config: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(dumps_scenario(config), encoding="utf-8")


def dumps_scenario(config: ScenarioConfig) -> str:
    return json.dumps(_config_to_dict(config), indent=2, sort_keys=True) + "\n"


def _checked(value, kind: type, path: str, key: str = ""):
    """``value`` if it is JSON of the given kind, else a ``ScenarioError``
    naming the field ``path + key``.  Booleans are neither integers nor
    numbers, and a number (``float``: a JSON int or float) must be finite."""
    if kind is float:
        ok = type(value) in (int, float) and abs(value) <= sys.float_info.max
    else:
        ok = type(value) is kind
    if not ok:
        raise ScenarioError(f"{path}{key} must be {_KINDS[kind]}, got {value!r}")
    return value


def _fields(doc, table: dict, path: str = "") -> dict:
    """The JSON object ``doc`` read through ``table``, with defaults filled
    in; ``path`` is the JSON path of ``doc`` plus a dot, or "" at the root."""
    _checked(doc, dict, path[:-1])
    if not doc.keys() <= table.keys():
        raise ScenarioError(f"unknown field {path}{min(doc.keys() - table.keys())}")
    fields = {}
    for key, entry in table.items():  # (kind,) or (kind, default) or (kind, default, also)
        if key in doc:
            value = doc[key]
            fields[key] = value if value in entry[2:] else _checked(value, entry[0], path, key)
        elif len(entry) > 1:
            fields[key] = entry[1]
        else:
            raise ScenarioError(f"missing field {path}{key}")
    return fields


def _built(cls: type, path: str, **fields):
    """``cls(**fields)``; a range error it raises becomes a ``ScenarioError``
    prefixed by the object's JSON path (``path`` ends in a dot)."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{path[:-1]}: {exc}") from exc


def _edges(items, field: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for k, edge in enumerate(_checked(items, list, field)):
        if not (isinstance(edge, list) and len(edge) == 2):
            raise ScenarioError(f"{field}[{k}] must be a pair of region ids, got {edge!r}")
        edges.append(tuple(_checked(i, int, f"{field}[{k}]") for i in edge))
    return tuple(edges)


def _config_from_dict(doc: dict) -> ScenarioConfig:
    root = _fields(doc, _ROOT)
    graph = _fields(root["graph"], _GRAPH, "graph.")
    steps = graph["steps"]
    # a periodic graph's window defaults to its period, any other's to 1
    window_is_period = graph["window"] is None and graph["kind"] == "periodic" and bool(steps)
    if graph["window"] is None:
        graph["window"] = len(steps) if window_is_period else 1
    graph["edges"] = _edges(graph["edges"], "graph.edges")
    graph["steps"] = tuple(_edges(step, f"graph.steps[{k}]") for k, step in enumerate(steps))
    step = _built(StepSchedule, "step.", **_fields(root["step"], _STEP, "step."))
    estimator = _fields(root["estimator"], _ESTIMATOR, "estimator.")
    if estimator["rows"] == []:
        raise ScenarioError("estimator.rows must hold at least one row")
    estimator["rows"] = tuple(
        tuple(
            _checked(v, float, f"estimator.rows[{r}][{k}]")
            for k, v in enumerate(_checked(row, list, f"estimator.rows[{r}]"))
        )
        for r, row in enumerate(estimator["rows"] or ())
    )
    continuous = root["mode"] == "continuous"
    regions = []
    for k, item in enumerate(root["regions"]):
        path = f"regions[{k}]."
        region = _fields(item, _CONTINUOUS_REGION if continuous else _REGION, path)
        if continuous:
            regions.append(_built(ContinuousRegion, path, **region))
            continue
        loads = tuple(
            _built(Load, f"{path}loads[{i}].", **_fields(load, _LOAD, f"{path}loads[{i}]."),
                   region_id=region["id"])
            for i, load in enumerate(region["loads"])
        )
        regions.append(_built(Region, path, id=region["id"],
                              region_criticality=region["criticality"], loads=loads))
    root.update(
        graph=GraphSpec(**graph),
        step=step,
        estimator=EstimatorSpec(**estimator),
        ramp_width=None if root["ramp_width"] == "auto" else float(root["ramp_width"]),
        regions=() if continuous else tuple(regions),
        continuous_regions=tuple(regions) if continuous else (),
    )
    config = ScenarioConfig(**root)
    validate(config, window_is_period)
    return config


def load_scenario(path: str | Path) -> ScenarioConfig:
    return loads_scenario(Path(path).read_text(encoding="utf-8"))


def loads_scenario(text: str) -> ScenarioConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError("config root must be a JSON object")
    return _config_from_dict(doc)


# ---------------------------------------------------------------------------
# deterministic generation


def generate_scenario(
    n_regions: int,
    loads_per_region: int,
    seed: int,
    deficit_fraction: float = 0.4,
    graph: str = "line",
    max_rounds: int = 45_000,
) -> ScenarioConfig:
    """Deterministically generate a discrete scenario from a seed.

    Nature criticalities are drawn on the 1e-4 grid and resampled until
    every combined criticality (half nature, half region) is distinct
    (tracked on the combined-value grid, so distinctness survives
    floating-point rounding).  Powers are drawn from [0.5, 1.5), and the
    draws are rejected while the deficit lands within DEGENERACY_MARGIN
    ramps of a breakpoint; such near-boundary deficits make the threshold
    ill-conditioned.  The step gain is regions/total so the drift scale is
    invariant to the power units, and the offset tempers the first steps
    so the estimates do not overshoot the root.  Runs have a fixed
    horizon: convergence is judged from the closing stretch of unchanged
    cutoffs rather than an early-stopping rule, which on switching graphs
    can freeze on transient states.
    """
    if n_regions < 1 or loads_per_region < 1:
        raise ValueError("counts must be positive")
    grid = CRITICALITY_GRID
    region_grid_values = [
        int(unit_float(mix64(seed, STREAM_REGION, j)) * (grid + 1))
        for j in range(n_regions)
    ]
    # distinctness is tracked on the integer half-grid of the combined
    # value (c_nature + c_region in grid units), so two loads that agree
    # in exact arithmetic can never slip through as distinct floats
    taken: set[int] = set()
    nature: list[list[float]] = []
    combined: list[list[float]] = []
    for j in range(n_regions):
        row_n, row_c = [], []
        for i in range(loads_per_region):
            gi = j * loads_per_region + i
            attempt = 0
            while True:
                cn_i = int(unit_float(mix64(seed, STREAM_NATURE, gi, attempt)) * (grid + 1))
                key = cn_i + region_grid_values[j]
                if key not in taken:
                    taken.add(key)
                    row_n.append(cn_i / grid)
                    row_c.append(0.5 * (cn_i / grid) + 0.5 * (region_grid_values[j] / grid))
                    break
                attempt += 1
        nature.append(row_n)
        combined.append(row_c)

    # reject power draws that land the deficit too close to a breakpoint
    chosen = None
    for sub_draw in range(1000):
        powers = [
            [
                0.5 + unit_float(mix64(seed, STREAM_POWER, sub_draw, j * loads_per_region + i))
                for i in range(loads_per_region)
            ]
            for j in range(n_regions)
        ]
        total = math.fsum(p for row in powers for p in row)
        deficit = deficit_fraction * total
        pairs = [
            (powers[j][i], combined[j][i])
            for j in range(n_regions)
            for i in range(loads_per_region)
        ]
        ccf = build_ccf(pairs)
        idx = bisect_left(ccf.cumulative, deficit)
        below = ccf.cumulative[idx - 1] if idx else 0.0
        frac = (deficit - below) / (ccf.cumulative[idx] - below)
        if DEGENERACY_MARGIN <= frac <= 1.0 - DEGENERACY_MARGIN:
            chosen = (powers, total, deficit)
            break
    if chosen is None:
        raise RuntimeError(f"seed {seed}: no admissible power draw found")
    powers, total, deficit = chosen

    regions = tuple(
        Region(
            id=j + 1,
            region_criticality=region_grid_values[j] / grid,
            loads=tuple(
                Load(
                    id=j * loads_per_region + i + 1,
                    power=powers[j][i],
                    nature_criticality=nature[j][i],
                    region_id=j + 1,
                )
                for i in range(loads_per_region)
            ),
        )
        for j in range(n_regions)
    )

    ids = [r.id for r in regions]
    if graph == "line":
        spec = GraphSpec(
            kind="static",
            edges=tuple((ids[k], ids[k + 1]) for k in range(len(ids) - 1)),
            window=1,
        )
    elif graph == "line-periodic":
        line = [(ids[k], ids[k + 1]) for k in range(len(ids) - 1)]
        odd = tuple(line[0::2])
        even = tuple(line[1::2]) or odd
        spec = GraphSpec(
            kind="periodic",
            steps=(tuple(line), odd, tuple(line), even),
            window=4,
        )
    elif graph == "random-periodic":
        spec = GraphSpec(
            kind="periodic",
            steps=_random_periodic_steps(seed, ids, period=12, window=4),
            window=4,
        )
    elif graph == "random":
        spec = GraphSpec(kind="random", edge_probability=0.45, window=2)
    else:
        raise ValueError(f"unknown graph family {graph!r}")

    return ScenarioConfig(
        version=CONFIG_VERSION,
        mode="discrete",
        deficit=deficit,
        seed=seed,
        graph=spec,
        step=StepSchedule(gain=n_regions / total, offset=50.0, exponent=1.0),
        estimator=EstimatorSpec(kind="exact_split"),
        max_rounds=max_rounds,
        convergence_window=None,
        regions=regions,
    )


def _random_periodic_steps(
    seed: int,
    ids: Sequence[int],
    period: int,
    window: int,
    edge_probability: float = 0.6,
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Seed-derived periodic schedule with connected window unions.

    Edges are drawn per step with the given probability; if a window's
    union is disconnected, a chain across its components is appended to
    the window's last step.
    """
    n = len(ids)
    steps = edge_sets(draw_edges(seed, range(period), n, edge_probability), n)
    for w0 in range(0, period, window):
        components = connected_components(set().union(*steps[w0 : w0 + window]), n)
        steps[w0 + window - 1] |= repair_edges(components, seed, w0)
    return tuple(
        tuple(sorted((ids[a], ids[b]) for a, b in step)) for step in steps
    )


# ---------------------------------------------------------------------------
# runs and reports


def oracle_summary(config: ScenarioConfig) -> OracleSummary:
    loads = resolved_loads(config)
    ramp_width = resolve_ramp_width(config)
    greedy = greedy_shed_set(loads, config.deficit, ramp_width)
    ccf = build_ccf((l.power, l.criticality) for l in loads)
    shed_ids = tuple(l.id for l in loads if l.criticality <= greedy.z_star)
    return OracleSummary(
        z_star=greedy.z_star,
        z_hat=greedy.z_hat,
        shed_total=eval_ccf(ccf, greedy.z_star),
        shed_ids=shed_ids,
        greedy_total=greedy.total_shed,
        greedy_ids=greedy.shed_ids,
        boundary_case=greedy.boundary_case,
    )


def continuous_closed_form(config: ScenarioConfig) -> ContinuousSolution:
    """The centralized continuous solution: the closed-form threshold and fill."""
    regions = [(r.capacity, float(r.criticality)) for r in config.continuous_regions]
    return continuous_solution(regions, config.deficit)


def run_scenario(config: ScenarioConfig, record_trace: bool = True) -> tuple[RunTrace, SummaryReport]:
    """Centralized solve plus full distributed run, in either mode.

    Discrete mode reports the oracle and the regions' final min-consensus
    values.  Continuous mode reports the closed form and the final
    threshold estimates; each region applies the fill rule to its own
    estimate, and the reported shed total sums those local decisions.
    Infinite per-region values are reported as ``"inf"``, as in the trace
    CSV, so the report stays strict JSON.  A run is reported converged only
    when the engine's cutoffs settled on a finite threshold and, in discrete
    mode, that threshold is the oracle's.
    """
    inst = build_instance(config)
    trace = run_protocol(inst, record_trace=record_trace)
    oracle = closed_form = None
    if config.mode == "continuous":
        closed_form = continuous_closed_form(config)
        final = trace.final_x
        z_dist = math.fsum(final) / len(final)
        shed_total = math.fsum(continuous_shed_from_estimates(config, final))
        answer_ok = math.isfinite(z_dist)
    else:
        oracle = oracle_summary(config)
        final = trace.final_z
        z_dist = trace.z_star_distributed if math.isfinite(trace.z_star_distributed) else None
        answer_ok = z_dist == oracle.z_star
        shed_total = None
        if z_dist is not None:
            shed_total = math.fsum(
                load.power
                for loads in regional_loads(config)
                for load in loads
                if load.criticality <= z_dist
            )
    report = SummaryReport(
        mode=config.mode,
        oracle=oracle,
        oracle_continuous=closed_form,
        distributed_z_star=z_dist,
        per_region_final=tuple(str(v) if math.isinf(v) else v for v in final),
        distributed_shed_total=shed_total,
        rounds=trace.rounds,
        converged=trace.converged and answer_ok,
        certificate_digest=certificate_digest(config, inst),
    )
    return trace, report


# perfbench/golden.py calls this name
run_continuous = run_scenario


def continuous_shed_from_estimates(
    config: ScenarioConfig, estimates: Sequence[float]
) -> tuple[float, ...]:
    """Apply the continuous fill rule region by region to local estimates."""
    return tuple(
        continuous_fill(region.capacity, region.criticality, z)
        for region, z in zip(config.continuous_regions, estimates)
    )


def certificate_digest(config: ScenarioConfig, inst: ProtocolInstance) -> dict:
    """Small always-on sanity digest attached to every report."""
    schedule = inst.schedule
    connectivity = check_window_connectivity(schedule, inst.max_rounds)
    sampled = min(connectivity.windows_checked * schedule.window, 32)
    defect = max(
        stochasticity_defect(metropolis_weights(edges, schedule.n))
        for edges in set(schedule.edges_between(1, sampled + 1))
    )
    return {
        "window": schedule.window,
        "window_connectivity": connectivity.passed,
        "stochasticity_defect": defect,
        "ramp_width": inst.ramp_width,
        "step_gain": inst.step.gain,
    }


# ---------------------------------------------------------------------------
# trace emission


def emit_trace(trace: RunTrace, path: str | Path, region_ids: Sequence[int] | None = None) -> None:
    """Write the per-round records as CSV.

    Columns: t, eta, region, x, zeta, z_min, alpha, p.  Floats carry 12
    significant digits; the infinity sentinel serializes as ``inf``.  Rows
    are built and written ``TRACE_BLOCK_ROUNDS`` rounds at a time, which
    bounds the memory the text takes.
    """
    if not trace.recorded or trace.rounds == 0:
        raise ValueError("trace has no recorded rounds")
    n = trace.x.shape[1]
    ids = list(region_ids) if region_ids is not None else list(range(1, n + 1))
    if len(ids) != n:
        raise ValueError(f"{len(ids)} region ids for {n} regions")
    cells_of_region = np.array([f",{i}," for i in ids], dtype=object)
    repeating = (trace.zeta, trace.z_min, trace.alpha, trace.p)
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,eta,region,x,zeta,z_min,alpha,p\n")
            for r0 in range(0, trace.rounds, TRACE_BLOCK_ROUNDS):
                block = slice(r0, r0 + TRACE_BLOCK_ROUNDS)
                ts, etas = trace.t[block].tolist(), trace.eta[block].tolist()
                heads = np.array([f"{t},{eta:.12g}" for t, eta in zip(ts, etas)], dtype=object)
                rows = heads[:, None] + cells_of_region + _text(trace.x[block])
                for values in repeating:
                    rows = rows + "," + _distinct_text(values[block])
                fh.write("".join((rows + "\n").ravel().tolist()))
    except OSError as exc:
        raise OSError(f"failed writing trace to {path}: {exc}") from exc


def _text(values: np.ndarray) -> np.ndarray:
    """``format(v, ".12g")`` of each value as a float, as an object array
    of the same shape.  An integer prints the same digits either way."""
    values = np.asarray(values, dtype=np.float64)
    text = np.array([format(v, ".12g") for v in values.ravel().tolist()], dtype=object)
    return text.reshape(values.shape)


def _distinct_text(values: np.ndarray) -> np.ndarray:
    """As ``_text``, formatting each distinct bit pattern once: the cutoff,
    min-consensus, ramp and estimate columns hold a few hundred distinct
    values per run.  Keyed on bits, not on value, so ``-0.0`` stays apart
    from ``0.0`` and NaNs need no care."""
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    return _text(bits.view(np.float64))[inverse.reshape(values.shape)]
