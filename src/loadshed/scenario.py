"""Scenario configuration, deterministic generation, runs, and reports.

A scenario is a single JSON document (version 1) fully describing one
load-shedding problem and the runtime that solves it: loads and regions,
the deficit, the communication schedule, step sizes, the per-region
deficit estimator, and the stopping setup.  The parser reads each JSON
object through one field table and builds the objects a run uses from
it, once: the schedule and the estimator, with region ids mapped to
indices, are the ones the engine runs.  A region's loads are read as
columns (ids, powers, nature criticalities) and checked whole; the config
resolves their criticalities once, as an array, and every reader takes the
columns.  A fault is a ``ScenarioError`` that names its field, the first
one a load-by-load read would meet.  Identical configs produce
byte-identical traces.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _engine
from .criticality import (
    CriticalLoad,
    Region,
    SurrogateCcf,
    check_ramp_width,
    column_ccf,
    default_ramp_width,
    flat_breakpoint,
    resolve_criticalities,
    shed_decision,
)
from .netgraph import (
    GraphSchedule,
    PeriodicSchedule,
    RandomSchedule,
    StaticSchedule,
    check_window_connectivity,
    edge_sets,
    normalize_edges,
    repaired_rows,
)
from .oracle import (
    ContinuousSolution,
    SheddingSolution,
    continuous_fill,
    continuous_solution,
    deficit_segment,
    greedy_shed_set,
)
from .protocol import (
    Estimator,
    ExactSplit,
    NoisySplit,
    ProtocolInstance,
    RunTrace,
    Sink,
    StepSchedule,
    TraceEstimator,
    run_protocol,
)
from .seeding import STREAM_NATURE, STREAM_POWER, STREAM_REGION, mix64, mix64_grid, unit_float

CONFIG_VERSION = 1

# generated scenarios reject power draws that put the surrogate root
# within this fraction of a ramp of a breakpoint; such degenerate
# instances have an ill-conditioned threshold (an exact cumulative hit
# is a measure-zero coincidence) and stall the quantized protocol state
DEGENERACY_MARGIN = 0.3

CRITICALITY_GRID = 10_000  # nature criticalities are multiples of 1e-4

# a continuous run converges only when its mean estimate lies this close to
# the closed-form threshold: a hundredth of the unit ramp
CONTINUOUS_TOLERANCE = 0.01

# TraceWriter formats at most this many rounds at a time, and at most
# TRACE_BLOCK_BYTES of the longest text they can take: the engine's
# CELL_BYTES and a comma for an int64 t, for eta and for x, and its
# TAIL_BYTES for a region's ",zeta,z_min,alpha,p\n" tail
TRACE_BLOCK_ROUNDS = 512
TRACE_BLOCK_BYTES = 1 << 20


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
        if self.criticality > 2**53:  # so each is a distinct float, and no two ramps overlap
            raise ValueError(f"region {self.id}: continuous criticality {self.criticality} "
                             f"above 2**53")


@dataclass(frozen=True)
class ScenarioConfig:
    """One parsed scenario, holding the schedule and the estimator its runs
    use, and its discrete loads as columns.

    ``deficit`` and ``seed`` are read into ``ExactSplit``, ``NoisySplit`` and
    ``RandomSchedule`` when the document is parsed; changing them on a
    config afterwards does not reach those objects.
    """

    version: int
    mode: str  # "discrete" | "continuous"
    deficit: float
    seed: int
    graph: GraphSchedule
    step: StepSchedule
    estimator: Estimator
    max_rounds: int
    convergence_window: int | None  # None: fixed-horizon run
    combiner_weight: float = 0.5
    ramp_width: float | None = None  # None: smallest breakpoint gap
    x0: float = 0.0  # initial threshold estimate at every region
    regions: tuple[Region, ...] = ()
    continuous_regions: tuple[ContinuousRegion, ...] = ()
    # every discrete load's id, power and nature criticality, region by
    # region (a region's ``loads`` is its range), as the document gave them:
    # a JSON integer stays an int, and is written back as one
    load_ids: tuple[int, ...] = ()
    load_powers: tuple[float, ...] = ()
    load_natures: tuple[float, ...] = ()

    @functools.cached_property
    def power(self) -> np.ndarray:
        """Every discrete load's power as float64, once per config."""
        return np.array(self.load_powers, dtype=np.float64)

    @functools.cached_property
    def criticality(self) -> np.ndarray:
        """Every discrete load's criticality, resolved once per config."""
        region = np.array([r.region_criticality for r in self.regions], dtype=np.float64)
        return resolve_criticalities(np.array(self.load_natures, dtype=np.float64),
                                     np.repeat(region, [len(r.loads) for r in self.regions]),
                                     self.combiner_weight)

    @functools.cached_property
    def critical_loads(self) -> tuple[CriticalLoad, ...]:
        """Every discrete load as a ``CriticalLoad``, built from the columns
        once per config."""
        return tuple(map(CriticalLoad, self.load_ids, self.power.tolist(),
                         self.criticality.tolist()))


@dataclass(frozen=True)
class SummaryReport:
    mode: str
    oracle: SheddingSolution | None
    oracle_continuous: ContinuousSolution | None
    distributed_z_star: float | None
    per_region_final: tuple[float | str, ...]  # "inf", "-inf" or "nan" for a non-finite value
    distributed_shed_total: float | None
    rounds: int
    converged: bool
    certificate_digest: dict


def report_json(report) -> str:
    """A report or a solution dataclass as sorted, indented JSON: the bytes
    ``dataclasses.asdict`` gives, but its fields are read as they are, and
    a nested solution's one level down, so no tuple of shed ids is copied."""
    def shallow(obj) -> dict:
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}

    doc = {k: shallow(v) if dataclasses.is_dataclass(v) else v for k, v in shallow(report).items()}
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# assembly helpers


def resolved_loads(config: ScenarioConfig) -> tuple[CriticalLoad, ...]:
    """Every discrete load as a ``CriticalLoad``, cached on the config.
    Nothing in the package calls this; the benchmark's checks read it."""
    return config.critical_loads


def region_ids(config: ScenarioConfig) -> tuple[int, ...]:
    if config.mode == "continuous":
        return tuple(r.id for r in config.continuous_regions)
    return tuple(r.id for r in config.regions)


def _region_slices(config: ScenarioConfig) -> list[tuple[int, int]]:
    """Each region's slice of ``load_columns``, as (start, stop)."""
    if config.mode == "continuous":
        return [(j, j + 1) for j in range(len(config.continuous_regions))]
    return [(region.loads.start, region.loads.stop) for region in config.regions]


def load_columns(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every load's power and criticality as float64 columns, region by
    region, from which the CCFs are built.

    A continuous region is one load, its capacity at its criticality; a
    discrete config's columns are the parsed powers and the resolved
    criticalities.
    """
    if config.mode == "continuous":
        regions = config.continuous_regions
        return (np.array([r.capacity for r in regions], dtype=np.float64),
                np.array([r.criticality for r in regions], dtype=np.float64))
    return config.power, config.criticality


def build_instance(config: ScenarioConfig) -> ProtocolInstance:
    """Assemble the runtime inputs for a discrete or continuous scenario.

    Continuous regions enter the same engine as single-breakpoint CCFs
    with a unit-width ramp; their surrogate is the continuous CCF itself.
    A discrete config without a ramp width gets the default one, the
    smallest gap between the criticalities of its loads with positive power.
    """
    powers, crits = load_columns(config)
    if config.mode == "continuous":
        ramp_width = 1.0
    elif config.ramp_width is None:
        ramp_width = default_ramp_width(crits[powers > 0])
    else:
        ramp_width = config.ramp_width
    return ProtocolInstance(
        surrogates=tuple(SurrogateCcf(column_ccf(powers[a:b], crits[a:b]), ramp_width)
                         for a, b in _region_slices(config)),
        schedule=config.graph,
        step=config.step,
        estimator=config.estimator,
        convergence_window=config.convergence_window,
        max_rounds=config.max_rounds,
        x0=config.x0,
    )


# ---------------------------------------------------------------------------
# validation


def validate(config: ScenarioConfig) -> None:
    """Raise a ``ScenarioError`` naming the first fault of ``config`` that
    the parser's field checks do not see."""
    if config.deficit <= 0:
        raise ScenarioError(f"deficit {config.deficit} must be positive")
    if not 0.0 <= config.combiner_weight <= 1.0:  # checked in continuous mode too
        raise ScenarioError(f"combiner_weight {config.combiner_weight} outside [0, 1]")

    discrete = config.mode == "discrete"
    ids = config.load_ids
    if len(set(ids)) < len(ids):  # name the first repeat
        seen: set[int] = set()
        for j, region in enumerate(config.regions):
            for i, k in enumerate(region.loads):
                if ids[k] in seen:
                    raise ScenarioError(f"regions[{j}].loads[{i}].id: duplicate load id "
                                        f"{ids[k]} (ids must be unique)")
                seen.add(ids[k])
    what = "total sheddable power" if discrete else "total capacity"
    powers, crits = load_columns(config)
    try:
        total = math.fsum(powers.tolist())
    except OverflowError:  # finite amounts whose sum is not
        raise ScenarioError(f"regions: {what} exceeds the largest float") from None
    if total < config.deficit:
        raise ScenarioError(
            f"infeasible: {what} {total} is below the deficit "
            f"{config.deficit}; the load set must cover the deficit"
        )
    # a power above the total's ulp moves every rounded cumulative load it
    # enters; a smaller one may not, and a CCF must increase at each breakpoint
    positive = powers > 0
    if discrete and positive.any() and powers[positive].min() <= math.ulp(total):
        slices = _region_slices(config)
        for a, b in [(0, len(powers)), *slices]:  # all loads, then each region's
            z = flat_breakpoint(powers[a:b], crits[a:b])
            if z is not None:
                k = a + int(np.flatnonzero((crits[a:b] == z) & positive[a:b])[0])
                j = next(j for j, (_, stop) in enumerate(slices) if k < stop)
                path = f"regions[{j}].loads[{k - slices[j][0]}].power"
                raise ScenarioError(f"{path}: {config.load_powers[k]} leaves the cumulative "
                                    f"load at criticality {z} unchanged")
    if config.ramp_width is not None:  # continuous mode: positivity only
        try:
            check_ramp_width(crits[positive] if discrete else (), config.ramp_width)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    failing = check_window_connectivity(config.graph, config.max_rounds)
    if failing is not None:
        raise ScenarioError(
            f"communication schedule fails window connectivity at window "
            f"{failing} (window {config.graph.window})"
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
# ``region_criticality``), except a load's, which fill the config's load
# columns.  tests/test_schema.py holds the schema to them.
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
    ids = region_ids(config)

    def named(edges: frozenset) -> list[list[int]]:  # index pairs, as region ids
        return [[ids[i], ids[j]] for i, j in sorted(edges)]

    graph = config.graph
    return _written(
        config, _ROOT,
        ramp_width="auto" if config.ramp_width is None else config.ramp_width,
        graph=_written(graph, _GRAPH, edges=named(getattr(graph, "edges", ())),
                       steps=[named(step) for step in getattr(graph, "steps", ())]),
        step=_written(config.step, _STEP),
        estimator=_written(config.estimator, _ESTIMATOR),
        regions=[
            _written(region, _CONTINUOUS_REGION) for region in config.continuous_regions
        ] if config.mode == "continuous" else [
            _written(region, _REGION, criticality=region.region_criticality, loads=[
                dict(zip(_LOAD, load)) for load in zip(config.load_ids[a:b],
                                                       config.load_powers[a:b],
                                                       config.load_natures[a:b])
            ])
            for region, (a, b) in zip(config.regions, _region_slices(config))
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


def _built(cls, path: str, **fields):
    """``cls(**fields)``; a range error it raises becomes a ``ScenarioError``
    prefixed by the object's JSON path (``path`` ends in a dot)."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{path[:-1]}: {exc}") from exc


def _load_range(id: int, power: float, nature_criticality: float) -> None:
    """Reject a load whose fields are out of range."""
    if power < 0:
        raise ValueError(f"load {id}: power must be nonnegative, got {power}")
    if not 0.0 <= nature_criticality <= 1.0:
        raise ValueError(f"load {id}: nature criticality {nature_criticality} outside [0, 1]")


def _loads(items: list, path: str) -> tuple[list, list, list]:
    """A region's ``loads`` array read as columns: the ids, powers and
    nature criticalities as the document gave them.  ``path`` is the
    array's JSON path.

    Keys, kinds and ranges are checked over whole columns.  On a fault, the
    loads from the first one the columns flag (the first, if the columns
    could not be built) are read one at a time through ``_fields`` and
    ``_load_range``, which raise the first fault as a load-by-load read does.
    """
    power = nature = None
    try:  # a load that is not an object, a missing key, an integer beyond the floats
        ids, powers, natures = (list(map(itemgetter(key), items)) for key in _LOAD)
        if (sum(map(len, items)) == len(_LOAD) * len(items)  # no other key
                and set(map(type, ids)) <= {int}  # booleans are not integers
                and set(map(type, powers)) | set(map(type, natures)) <= {int, float}):
            power, nature = np.array(powers, np.float64), np.array(natures, np.float64)
    except (TypeError, KeyError, OverflowError):
        pass
    if power is None:
        first = 0
    else:  # a power of the largest float is flagged, and passes the field reader
        bad = np.flatnonzero(~((0 <= power) & (power < sys.float_info.max)
                               & (0 <= nature) & (nature <= 1)))
        first = int(bad[0]) if bad.size else len(items)
    for i in range(first, len(items)):
        _built(_load_range, f"{path}[{i}].", **_fields(items[i], _LOAD, f"{path}[{i}]."))
    return ids, powers, natures


def _edges(items, field: str, index: dict[int, int]) -> frozenset:
    """The pairs of region ids ``items`` as a normalized set of index pairs."""
    pairs = []
    for k, edge in enumerate(_checked(items, list, field)):
        if not (isinstance(edge, list) and len(edge) == 2):
            raise ScenarioError(f"{field}[{k}] must be a pair of region ids, got {edge!r}")
        for rid in edge:
            if _checked(rid, int, f"{field}[{k}]") not in index:
                raise ScenarioError(f"{field}[{k}]: unknown region id {rid}")
        pairs.append((index[edge[0]], index[edge[1]]))
    return normalize_edges(pairs, len(index))


def _schedule(graph: dict, index: dict[int, int], seed: int, max_rounds: int) -> GraphSchedule:
    """The schedule of the graph object's ``graph`` fields, over the regions of ``index``."""
    steps = graph["steps"]
    window = given = graph["window"]
    if window is None:  # a periodic graph's window defaults to its period, any other's to 1
        window = len(steps) if graph["kind"] == "periodic" and steps else 1
        given = f"defaults to the period {window}, which is"
    if not 1 <= window <= max_rounds:
        raise ScenarioError(f"graph.window {given} outside [1, max_rounds = {max_rounds}]")
    if not 0.0 <= graph["edge_probability"] <= 1.0:  # checked for every kind
        raise ScenarioError(f"graph.edge_probability {graph['edge_probability']} outside [0, 1]")
    n, edges = len(index), _edges(graph["edges"], "graph.edges", index)
    steps = tuple(_edges(step, f"graph.steps[{k}]", index) for k, step in enumerate(steps))
    if graph["kind"] == "static":
        return StaticSchedule(n, edges, window)
    if graph["kind"] == "periodic":
        return _built(PeriodicSchedule, "graph.steps.", n=n, steps=steps, window=window)
    if graph["kind"] == "random":
        return RandomSchedule(n, graph["edge_probability"], window, seed)
    raise ScenarioError(f"graph.kind: unknown graph kind {graph['kind']!r}")


def _estimator(estimator: dict, n: int, deficit: float, seed: int) -> Estimator:
    """The estimator of the estimator object's ``estimator`` fields, for ``n`` regions."""
    if estimator["rows"] == []:  # checked for every kind
        raise ScenarioError("estimator.rows must hold at least one row")
    rows = tuple(
        tuple(
            _checked(v, float, f"estimator.rows[{r}][{k}]")
            for k, v in enumerate(_checked(row, list, f"estimator.rows[{r}]"))
        )
        for r, row in enumerate(estimator["rows"] or ())
    )
    if estimator["kind"] == "exact_split":
        return ExactSplit(deficit, n)
    if estimator["kind"] == "noisy_split":
        return NoisySplit(deficit, n, seed)
    if estimator["kind"] == "trace":
        for r, row in enumerate(rows):
            if len(row) != n:
                raise ScenarioError(f"estimator.rows[{r}] has {len(row)} entries for {n} regions")
        return _built(TraceEstimator, "estimator.rows.", rows=rows)
    raise ScenarioError(f"estimator.kind: unknown estimator kind {estimator['kind']!r}")


def _config_from_dict(doc: dict) -> ScenarioConfig:
    root = _fields(doc, _ROOT)
    if root["version"] != CONFIG_VERSION:  # before any nested object is read
        raise ScenarioError(f"unsupported config version {root['version']}")
    if root["mode"] not in ("discrete", "continuous"):
        raise ScenarioError(f"unknown mode {root['mode']!r}")
    graph = _fields(root["graph"], _GRAPH, "graph.")
    step = _built(StepSchedule, "step.", **_fields(root["step"], _STEP, "step."))
    estimator = _fields(root["estimator"], _ESTIMATOR, "estimator.")
    continuous = root["mode"] == "continuous"
    regions = []
    ids, powers, natures = [], [], []  # every discrete load's, region by region
    for k, item in enumerate(root["regions"]):
        path = f"regions[{k}]."
        region = _fields(item, _CONTINUOUS_REGION if continuous else _REGION, path)
        if continuous:
            regions.append(_built(ContinuousRegion, path, **region))
            continue
        start = len(ids)
        for column, values in zip((ids, powers, natures), _loads(region["loads"], f"{path}loads")):
            column += values
        regions.append(_built(Region, path, id=region["id"],
                              region_criticality=region["criticality"],
                              loads=range(start, len(ids))))
    if not regions:  # before the graph, whose edges could name none
        raise ScenarioError("continuous mode needs continuous_regions" if continuous
                            else "discrete mode needs regions")
    index: dict[int, int] = {}  # region id -> region index
    for k, region in enumerate(regions):
        if region.id in index:
            raise ScenarioError(
                f"regions[{k}].id: duplicate region id {region.id} (ids must be unique)"
            )
        index[region.id] = k
    for key in ("max_rounds", "convergence_window"):  # int64s to the engine, max_rounds + 1 too
        if root[key] is not None and not 1 <= root[key] <= 2**63 - 2:
            raise ScenarioError(f"{key} {root[key]} outside [1, 2**63 - 2]")
    root.update(
        graph=_schedule(graph, index, root["seed"], root["max_rounds"]),
        step=step,
        estimator=_estimator(estimator, len(index), root["deficit"], root["seed"]),
        ramp_width=None if root["ramp_width"] == "auto" else float(root["ramp_width"]),
        regions=() if continuous else tuple(regions),
        continuous_regions=tuple(regions) if continuous else (),
        load_ids=tuple(ids),
        load_powers=tuple(powers),
        load_natures=tuple(natures),
    )
    config = ScenarioConfig(**root)
    validate(config)
    return config


def load_scenario(path: str | Path, **overrides) -> ScenarioConfig:
    return loads_scenario(Path(path).read_text(encoding="utf-8"), **overrides)


def loads_scenario(text: str, **overrides) -> ScenarioConfig:
    """Parse and validate a document whose root keys ``overrides`` replace first."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError("config root must be a JSON object")
    return _config_from_dict({**doc, **overrides})


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
    if not 0.0 < deficit_fraction < 1.0:
        raise ValueError(f"deficit fraction {deficit_fraction} outside (0, 1)")
    grid, count = CRITICALITY_GRID, n_regions * loads_per_region
    region_grid_values = [
        int(unit_float(mix64(seed, STREAM_REGION, j)) * (grid + 1))
        for j in range(n_regions)
    ]
    # every load's first nature draw at once; distinctness is tracked on the
    # integer half-grid of the combined value (c_nature + c_region in grid
    # units), so two loads that agree in exact arithmetic can never slip
    # through as distinct floats, and a taken value is redrawn, in load order
    nature_grid = (unit_float(mix64_grid(seed, STREAM_NATURE, np.arange(count), [0])[:, 0])
                   * (grid + 1)).astype(np.int64).tolist()
    taken: set[int] = set()
    for gi, cn_i in enumerate(nature_grid):
        region_value, attempt = region_grid_values[gi // loads_per_region], 0
        while cn_i + region_value in taken:
            attempt += 1
            cn_i = int(unit_float(mix64(seed, STREAM_NATURE, gi, attempt)) * (grid + 1))
        taken.add(cn_i + region_value)
        nature_grid[gi] = cn_i
    nature = np.array(nature_grid, dtype=np.float64) / grid
    region_criticality = np.array(region_grid_values, dtype=np.float64) / grid
    criticalities = resolve_criticalities(nature, np.repeat(region_criticality, loads_per_region),
                                          0.5)

    # reject power draws that land the deficit too close to a breakpoint
    chosen = None
    for sub_draw in range(1000):
        powers = 0.5 + unit_float(mix64_grid(seed, STREAM_POWER, [sub_draw], np.arange(count))[0])
        total = math.fsum(powers.tolist())
        deficit = deficit_fraction * total
        _, frac = deficit_segment(column_ccf(powers, criticalities), deficit)
        if DEGENERACY_MARGIN <= frac <= 1.0 - DEGENERACY_MARGIN:
            chosen = (powers, total, deficit)
            break
    if chosen is None:
        raise ValueError(f"seed {seed}: no admissible power draw found")
    powers, total, deficit = chosen

    regions = tuple(
        Region(id=j + 1, region_criticality=float(region_criticality[j]),
               loads=range(j * loads_per_region, (j + 1) * loads_per_region))
        for j in range(n_regions)
    )

    line = [(k, k + 1) for k in range(n_regions - 1)]
    if graph == "line":
        schedule = StaticSchedule(n_regions, frozenset(line), window=1)
    elif graph == "line-periodic":
        odd, even = frozenset(line[0::2]), frozenset(line[1::2])
        steps = (frozenset(line), odd, frozenset(line), even or odd)
        schedule = PeriodicSchedule(n_regions, steps, window=4)
    elif graph == "random-periodic":
        steps = _random_periodic_steps(seed, n_regions, period=12, window=4)
        schedule = PeriodicSchedule(n_regions, steps, window=4)
    elif graph == "random":
        schedule = RandomSchedule(n_regions, edge_probability=0.45, window=2, seed=seed)
    else:
        raise ValueError(f"unknown graph family {graph!r}")

    return ScenarioConfig(
        version=CONFIG_VERSION,
        mode="discrete",
        deficit=deficit,
        seed=seed,
        graph=schedule,
        step=StepSchedule(gain=n_regions / total, offset=50.0, exponent=1.0),
        estimator=ExactSplit(deficit, n_regions),
        max_rounds=max_rounds,
        convergence_window=None,
        regions=regions,
        load_ids=tuple(range(1, count + 1)),
        load_powers=tuple(powers.tolist()),
        load_natures=tuple(nature.tolist()),
    )


def _random_periodic_steps(seed: int, n: int, period: int, window: int,
                           edge_probability: float = 0.6) -> tuple[frozenset, ...]:
    """Seed-derived periodic steps over n nodes with connected window unions.

    Edges are drawn per step with the given probability; if a window's
    union is disconnected, a chain across its components is appended to
    the window's last step.
    """
    rows = repaired_rows(seed, range(period), n, edge_probability, window, range(0, period, window))
    return tuple(edge_sets(rows, n))


# ---------------------------------------------------------------------------
# runs and reports


def oracle_summary(config: ScenarioConfig) -> SheddingSolution:
    # greedy_shed_set applies the default ramp width when the config sets none
    return greedy_shed_set(config.load_ids, *load_columns(config), config.deficit,
                           config.ramp_width)


def continuous_closed_form(config: ScenarioConfig) -> ContinuousSolution:
    """The centralized continuous solution: the closed-form threshold and fill."""
    regions = [(r.capacity, float(r.criticality)) for r in config.continuous_regions]
    return continuous_solution(regions, config.deficit)


def run_scenario(config: ScenarioConfig, record_trace: bool = True,
                 sinks: Sequence[Sink] = ()) -> tuple[RunTrace, SummaryReport]:
    """Centralized solve plus full distributed run, in either mode.

    Discrete mode reports the oracle and the regions' final min-consensus
    values.  Continuous mode reports the closed form and the final
    threshold estimates; each region applies the fill rule to its own
    estimate, and the reported shed total sums those local decisions; a
    non-finite estimate leaves neither threshold nor shed total.  Non-finite
    per-region values are strings (``"inf"``, ``"-inf"``, ``"nan"``), as in
    the trace CSV, so the report stays strict JSON.  A run is reported
    converged only when the engine's cutoffs settled and its threshold is
    the centralized one: the oracle's in discrete mode, and within
    ``CONTINUOUS_TOLERANCE`` of the closed form's in continuous mode.
    Each of ``sinks`` is handed every chunk of the run (see ``run_protocol``).
    """
    inst = build_instance(config)
    trace = run_protocol(inst, record_trace=record_trace, sinks=sinks)
    oracle = closed_form = None
    if config.mode == "continuous":
        closed_form = continuous_closed_form(config)
        final = trace.final_x
        finite = all(map(math.isfinite, final))
        try:
            z_dist = math.fsum(final) / len(final) if finite else None
        except OverflowError:  # finite estimates whose sum is not
            z_dist = None
        shed_total = math.fsum(continuous_fill(r.capacity, r.criticality, z) for r, z in
                               zip(config.continuous_regions, final)) if finite else None
        answer_ok = z_dist is not None and abs(z_dist - closed_form.z_tilde) <= CONTINUOUS_TOLERANCE
    else:
        oracle = oracle_summary(config)
        final = trace.final_z
        z_dist = min(final) if math.isfinite(min(final)) else None
        answer_ok = z_dist == oracle.z_star
        shed_total = None
        if z_dist is not None:
            powers, crits = load_columns(config)
            shed_total = math.fsum(powers[shed_decision(crits, z_dist)].tolist())
    report = SummaryReport(
        mode=config.mode,
        oracle=oracle,
        oracle_continuous=closed_form,
        distributed_z_star=z_dist,
        per_region_final=tuple(v if math.isfinite(v) else str(v) for v in final),
        distributed_shed_total=shed_total,
        rounds=trace.rounds,
        converged=trace.converged and answer_ok,
        certificate_digest=certificate_digest(inst),
    )
    return trace, report


# perfbench/golden.py calls this name
run_continuous = run_scenario


def certificate_digest(inst: ProtocolInstance) -> dict:
    """The run's convergence setup, attached to every report: the schedule's
    window, the ramp width and the step gain."""
    return {
        "window": inst.schedule.window,
        "ramp_width": inst.ramp_width,
        "step_gain": inst.step.gain,
    }


# ---------------------------------------------------------------------------
# trace emission


class TraceWriter:
    """The trace CSV at ``path``, written as a run goes: a ``run_protocol``
    sink that formats each chunk it is handed while the chunk is still in
    cache, and keeps nothing of it.

    Columns: t, eta, region, x, zeta, z_min, alpha, p.  Floats carry 12
    significant digits as ``"%.12g" %`` writes them, every NaN as ``nan``.
    The engine's ``trace_rows`` formats a block of rounds into a buffer
    sized by the longest text the block can take, reading the rows in
    place.  A row's ``zeta,z_min,alpha,p`` tail is formatted only where its
    64-bit patterns differ from the region's row one round earlier, and
    copied elsewhere; each region's last tail carries from call to call.
    Opening the file, each write and closing it raise one ``OSError`` that
    names the path; a writer that fails leaves what it wrote at the path.
    """

    def __init__(self, path: str | Path, region_ids: Sequence[int]):
        names = [f",{i}".encode() for i in region_ids]
        self._path, self._n = path, len(names)
        self._id_text = b"".join(names)
        self._id_start = np.array([0, *accumulate(map(len, names))], np.int64)
        row_bytes = (3 * (_engine.CELL_BYTES + 1) + _engine.TAIL_BYTES
                     + max(map(len, names), default=0))
        self._rounds = max(1, min(TRACE_BLOCK_ROUNDS,
                                  TRACE_BLOCK_BYTES // (max(self._n, 1) * row_bytes)))
        self._out = np.empty(self._rounds * self._n * row_bytes, np.uint8)
        # each region's last tail: its four 64-bit patterns, its text and length
        self._tail_bits = np.zeros((self._n, 4), np.uint64)
        self._tail_len = np.zeros(self._n, np.int64)
        self._tail_text = np.empty((self._n, _engine.TAIL_BYTES), np.uint8)
        self._file = self._io(open, path, "wb")
        self._io(self._file.write, b"t,eta,region,x,zeta,z_min,alpha,p\n")

    def _io(self, call, *args):
        try:
            return call(*args)
        except OSError as exc:
            raise OSError(f"failed writing trace to {self._path}: {exc}") from exc

    def __call__(self, t0, eta, x, zeta, z_min, alpha, p) -> None:
        """Write rounds t0 .. t0 + len(eta) - 1: rows of C-ordered float64
        columns, one row of n cells per round."""
        cells = (x, zeta, z_min, alpha, p)
        if ({c.shape for c in cells} != {(len(eta), self._n)}
                or not all(c.dtype == np.float64 and c.flags.c_contiguous for c in (eta, *cells))):
            raise ValueError(f"trace rows must be C-ordered float64, {len(eta)} rounds "
                             f"of {self._n} regions")
        addresses = np.array([c.ctypes.data for c in cells], np.uintp)
        for first in range(0, len(eta), self._rounds):
            size = _engine.trace_rows(
                self._n, min(self._rounds, len(eta) - first), first, t0, eta.ctypes.data,
                addresses.ctypes.data, self._id_text, self._id_start.ctypes.data,
                self._tail_bits.ctypes.data, self._tail_text.ctypes.data,
                self._tail_len.ctypes.data, self._out.ctypes.data)
            self._io(self._file.write, self._out.data[:size])

    def close(self) -> None:
        self._io(self._file.close)

    def __enter__(self) -> TraceWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def emit_trace(trace: RunTrace, path: str | Path, region_ids: Sequence[int] | None = None) -> None:
    """Write a recorded run's per-round records as CSV, as ``TraceWriter``
    writes a run's chunks.  Region ids default to 1..n.  Columns of another
    dtype or layout are converted once, whole; a trace whose columns do not
    hold its rounds is refused before the file is opened.
    """
    if not len(trace.eta):
        raise ValueError("trace has no recorded rounds")
    n = trace.x.shape[1]
    ids = list(region_ids) if region_ids is not None else list(range(1, n + 1))
    if len(ids) != n:
        raise ValueError(f"{len(ids)} region ids for {n} regions")
    columns = (trace.eta, trace.x, trace.zeta, trace.z_min, trace.alpha, trace.p)
    if {c.shape for c in columns[1:]} | {(len(trace.eta), n)} != {(trace.rounds, n)}:
        raise ValueError(f"trace columns must hold {trace.rounds} rounds of {n} regions")
    with TraceWriter(path, ids) as writer:
        writer(1, *(np.ascontiguousarray(c, np.float64) for c in columns))
