from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshed import cli, oracle, scenario
from loadshed.criticality import SurrogateCcf, build_ccf, resolve_criticalities
from loadshed.protocol import CHUNK, RunTrace, run_protocol
from loadshed.scenario import (
    TRACE_BLOCK_ROUNDS,
    ScenarioError,
    dump_scenario,
    dumps_scenario,
    emit_trace,
    generate_scenario,
    load_scenario,
    loads_scenario,
    run_scenario,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestLoadScenario:
    def test_continuous_example_loads(self):
        config = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        assert config.mode == "continuous"
        assert config.deficit == 1.8
        assert [r.capacity for r in config.continuous_regions] == [1.2] * 4
        assert [r.criticality for r in config.continuous_regions] == [1, 2, 2, 3]

    def test_two_region_example_loads(self):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        assert config.mode == "discrete"
        assert len(config.regions) == 2
        assert scenario.build_instance(config).ramp_width == 0.05

    def test_infeasible_deficit_rejected(self):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        doc = json.loads(dumps_scenario(config))
        doc["deficit"] = 99.0
        with pytest.raises(ScenarioError, match="infeasible|deficit"):
            loads_scenario(json.dumps(doc))

    def test_oversized_ramp_rejected(self):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        doc = json.loads(dumps_scenario(config))
        doc["ramp_width"] = 0.2
        with pytest.raises(ScenarioError, match="ramp width"):
            loads_scenario(json.dumps(doc))

    @pytest.mark.parametrize("width", [0.05, "auto"])
    def test_zero_power_load_leaves_ramp_width(self, width):
        # a zero-power load adds no breakpoint: at nature criticality 0.38,
        # 0.02 from the 0.4 loads, it neither rejects the given width 0.05
        # nor narrows the default one
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["ramp_width"] = width
        doc["regions"][0]["loads"].append({"id": 99, "nature_criticality": 0.38, "power": 0.0})
        config = loads_scenario(json.dumps(doc))
        assert scenario.build_instance(config).ramp_width == pytest.approx(0.05, abs=1e-15)
        base = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        report, expected = (run_scenario(c, record_trace=False)[1] for c in (config, base))
        assert report.oracle.z_hat == pytest.approx(expected.oracle.z_hat, abs=1e-12)
        assert report.converged and report.distributed_z_star == expected.distributed_z_star == 0.4

    @pytest.mark.parametrize("width", [0, -0.01])
    def test_nonpositive_ramp_rejected(self, width, tmp_path):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        doc = json.loads(dumps_scenario(config))
        doc["ramp_width"] = width
        path = tmp_path / "ramp.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="ramp width"):
            load_scenario(path)

    def test_parse_error_carries_position(self):
        with pytest.raises(ScenarioError, match="line 1"):
            loads_scenario("{not json")

    def test_unknown_graph_kind(self):
        config = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        doc = json.loads(dumps_scenario(config))
        doc["graph"] = {"kind": "mesh"}
        with pytest.raises(ScenarioError, match="graph kind"):
            loads_scenario(json.dumps(doc))

    def test_disconnected_schedule_rejected(self):
        config = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        doc = json.loads(dumps_scenario(config))
        doc["graph"] = {"kind": "static", "edges": [[1, 2]], "window": 1}
        with pytest.raises(ScenarioError, match="connectivity"):
            loads_scenario(json.dumps(doc))

    def test_missing_field_named(self):
        with pytest.raises(ScenarioError, match="deficit"):
            loads_scenario('{"version": 1, "mode": "discrete", "graph": {"kind": "static"}, "regions": []}')

    def test_duplicate_region_ids_rejected(self):
        config = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        doc = json.loads(dumps_scenario(config))
        doc["regions"][1]["id"] = 1
        with pytest.raises(ScenarioError, match="unique"):
            loads_scenario(json.dumps(doc))

    @pytest.mark.parametrize(
        "config, where, value, message",
        [
            ("two_region_step_example.json", ("regions", 1, "loads", 0, "id"), 1,
             "regions[1].loads[0].id: duplicate load id 1 (ids must be unique)"),
            ("two_region_step_example.json", ("regions", 1, "id"), 1,
             "regions[1].id: duplicate region id 1 (ids must be unique)"),
            ("continuous_four_regions.json", ("regions", 3, "id"), 2,
             "regions[3].id: duplicate region id 2 (ids must be unique)"),
        ],
        ids=["load", "region", "continuous-region"],
    )
    def test_duplicate_ids_name_their_path(self, config, where, value, message, capsys,
                                           tmp_path):
        doc = json.loads((CONFIG_DIR / config).read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        with pytest.raises(ScenarioError) as excinfo:
            loads_scenario(json.dumps(doc))
        assert str(excinfo.value) == message
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_non_integer_continuous_criticality_rejected(self):
        config = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        doc = json.loads(dumps_scenario(config))
        doc["regions"][0]["criticality"] = 1.5
        with pytest.raises(ScenarioError, match="integer"):
            loads_scenario(json.dumps(doc))


    @pytest.mark.parametrize(
        "config, where, field",
        [
            ("two_region_step_example.json", (), "convergence_windw"),
            ("two_region_step_example.json", ("graph",), "graph.windw"),
            ("two_region_step_example.json", ("step",), "step.gian"),
            ("two_region_step_example.json", ("estimator",), "estimator.row"),
            ("two_region_step_example.json", ("regions", 1), "regions[1].critical"),
            ("two_region_step_example.json", ("regions", 0, "loads", 1), "regions[0].loads[1].pwr"),
            ("continuous_four_regions.json", ("regions", 2), "regions[2].cap"),
        ],
        ids=["root", "graph", "step", "estimator", "region", "load", "continuous-region"],
    )
    def test_unknown_field_rejected(self, config, where, field, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / config).read_text())
        target = doc
        for key in where:
            target = target[key]
        target[re.split(r"[.\]]", field)[-1]] = 5
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: unknown field {field}\n"

    @pytest.mark.parametrize(
        "config, field, value, message",
        [
            ("continuous_four_regions.json", "combiner_weight", 5, "combiner_weight"),
            ("continuous_four_regions.json", "ramp_width", -1, "ramp width"),
            ("two_region_step_example.json", "graph.edge_probability", 2, "edge_probability"),
            ("two_region_step_example.json", "estimator.rows", [], "estimator.rows"),
            ("two_region_step_example.json", "estimator.kind", "oracle", "estimator kind"),
        ],
        ids=["weight-continuous", "ramp-continuous", "probability-static", "rows-empty",
             "estimator-kind"],
    )
    def test_unused_fields_still_checked(self, config, field, value, message):
        # fields a mode or kind does not read are checked all the same
        doc = json.loads((CONFIG_DIR / config).read_text())
        *parents, key = field.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        target[key] = value
        with pytest.raises(ScenarioError, match=message):
            loads_scenario(json.dumps(doc))


def edited_example(edits) -> dict:
    """The two-region example with each (path, value) of ``edits`` applied;
    a value of DELETE removes the key."""
    doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
    for where, value in edits:
        target = doc
        for key in where[:-1]:
            target = target[key]
        if value is DELETE:
            del target[where[-1]]
        else:
            target[where[-1]] = value
    return doc


DELETE = object()


def load_at(j: int, i: int, key: str | None = None) -> tuple:
    """The document path of ``regions[j].loads[i]``, or of its ``key``."""
    return ("regions", j, "loads", i) + ((key,) if key else ())


class TestLoadFaults:
    """Each load fault, and which of several comes first, named word for
    word as a load-by-load read names it."""

    @pytest.mark.parametrize(
        "edits, message",
        [
            ([(load_at(0, 0, "power"), True)],
             "regions[0].loads[0].power must be a finite number, got True"),
            ([(load_at(0, 2, "id"), "3")],
             "regions[0].loads[2].id must be an integer, got '3'"),
            ([(load_at(1, 0, "power"), 10**400)],
             f"regions[1].loads[0].power must be a finite number, got {10**400}"),
            ([(load_at(0, 0, "power"), int(sys.float_info.max) + 1)],
             f"regions[0].loads[0].power must be a finite number, got "
             f"{int(sys.float_info.max) + 1}"),
            ([(load_at(0, 0, "power"), -1)],
             "regions[0].loads[0]: load 1: power must be nonnegative, got -1"),
            ([(load_at(1, 3, "nature_criticality"), DELETE)],
             "missing field regions[1].loads[3].nature_criticality"),
            ([(load_at(0, 1), 5)], "regions[0].loads[1] must be an object, got 5"),
            # the earlier of two faulty loads, whatever the kinds of their faults
            ([(load_at(0, 1, "power"), -2.0), (load_at(0, 3, "nature_criticality"), 2.0)],
             "regions[0].loads[1]: load 2: power must be nonnegative, got -2.0"),
            ([(load_at(0, 0, "power"), -1.0), (load_at(0, 2, "power"), "x")],
             "regions[0].loads[0]: load 1: power must be nonnegative, got -1.0"),
            ([(load_at(0, 2, "id"), True), (load_at(1, 0), [])],
             "regions[0].loads[2].id must be an integer, got True"),
            # within a load: an unknown key, then the keys in table order, then ranges
            ([(load_at(0, 0, "pwr"), 1), (load_at(0, 0, "power"), True)],
             "unknown field regions[0].loads[0].pwr"),
            ([(load_at(0, 0, "nature_criticality"), "x"), (load_at(0, 0, "power"), -1.0)],
             "regions[0].loads[0].nature_criticality must be a finite number, got 'x'"),
            # a region's loads are read before its criticality is range checked
            ([(("regions", 1, "criticality"), 1.5), (load_at(1, 2, "nature_criticality"), 1.5)],
             "regions[1].loads[2]: load 7: nature criticality 1.5 outside [0, 1]"),
            # the largest float is a power the field reader accepts; it
            # leaves the next cumulative load where it is
            ([(load_at(0, 0, "power"), sys.float_info.max)],
             "regions[0].loads[1].power: 2.0 leaves the cumulative load at criticality 0.15 "
             "unchanged"),
        ],
        ids=["bool-power", "string-id", "huge-integer-power", "integer-above-largest-float",
             "negative-integer-power", "missing-key", "not-an-object", "two-range-faults",
             "range-before-kind", "kind-before-structure", "unknown-key-first",
             "kind-before-range", "load-before-region", "largest-float-power"],
    )
    def test_first_fault_named_word_for_word(self, edits, message, capsys, tmp_path):
        doc = edited_example(edits)
        with pytest.raises(ScenarioError) as excinfo:
            loads_scenario(json.dumps(doc))
        assert str(excinfo.value) == message
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for command in ("run", "solve", "check"):
            assert cli.main([command, str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


class TestRoundTrip:
    def test_dump_load_identity(self, tmp_path):
        config = generate_scenario(3, 5, seed=11, graph="line")
        path = tmp_path / "scenario.json"
        dump_scenario(config, path)
        assert load_scenario(path) == config

    def test_dump_load_identity_random_periodic(self, tmp_path):
        config = generate_scenario(4, 6, seed=12, graph="random-periodic")
        path = tmp_path / "scenario.json"
        dump_scenario(config, path)
        assert load_scenario(path) == config

    def test_continuous_round_trip(self, tmp_path):
        config = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        path = tmp_path / "copy.json"
        dump_scenario(config, path)
        assert load_scenario(path) == config

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("line", "a6f1031aa9b78fe3c67f07a0ac3697e0d5f34eb45fbd8458dcdba57c958d853a"),
            ("line-periodic", "ea2133bd4fbcc31f9230e12098387425665c9a09ee361787b16e2fb0f191c9d0"),
            ("random-periodic", "0c7cf9d141291350bf22f53454d97736c395cd4bc0ee773863a13577206d931c"),
            ("random", "de14c8d3451552a8f74b563a411d87747c886c82116ee10efbf0ecfcb21ba860"),
        ],
    )
    def test_written_bytes_are_pinned(self, family, digest):
        # `loadshed gen --regions 3 --loads 4 --seed 1 --graph <family>` writes these bytes
        text = dumps_scenario(generate_scenario(3, 4, seed=1, graph=family))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_empty_edge_list_bytes_are_pinned(self):
        text = dumps_scenario(generate_scenario(1, 1, seed=5))
        assert '"edges": []' in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9550b6f6fdc2346af2fbb9c11fe9b38a744d8048bd632be2066c275508a85c01"
        )

    def test_edges_are_written_in_normal_form(self):
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["graph"]["edges"] = [[2, 1], [1, 2], [1, 1]]
        config = loads_scenario(json.dumps(doc))
        text = dumps_scenario(config)
        assert json.loads(text)["graph"]["edges"] == [[1, 2]]
        assert loads_scenario(text) == config

    def test_instance_runs_the_parsed_schedule_and_estimator(self):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        inst = scenario.build_instance(config)
        assert inst.schedule is config.graph
        assert inst.estimator is config.estimator

    @pytest.mark.parametrize("name", ["continuous_four_regions.json",
                                      "two_region_step_example.json"])
    def test_shipped_config_bytes_round_trip(self, name):
        text = (CONFIG_DIR / name).read_text()
        assert dumps_scenario(loads_scenario(text)) == text

    def test_integer_values_round_trip(self):
        # a JSON integer is written back as one, not as a float
        doc = edited_example([(load_at(0, 0, "power"), 1), (load_at(1, 3, "power"), 3),
                              (load_at(0, 3, "nature_criticality"), 1),
                              (load_at(1, 0, "nature_criticality"), 0),
                              (("regions", 0, "criticality"), 0)])
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert '"power": 1\n' in text and '"criticality": 0,' in text
        assert dumps_scenario(loads_scenario(text)) == text


class TestGenerateScenario:
    def test_deterministic(self):
        a = generate_scenario(4, 100, seed=7)
        b = generate_scenario(4, 100, seed=7)
        assert a == b

    def test_seed_changes_content(self):
        a = generate_scenario(4, 10, seed=1)
        b = generate_scenario(4, 10, seed=2)
        assert a != b

    def test_shape(self):
        config = generate_scenario(4, 100, seed=7)
        assert len(config.regions) == 4
        assert all(len(r.loads) == 100 for r in config.regions)
        loads = scenario.resolved_loads(config)
        assert len(loads) == 400
        crits = [l.criticality for l in loads]
        assert len(set(crits)) == 400  # combined criticalities distinct
        total = math.fsum(l.power for l in loads)
        assert config.deficit == pytest.approx(0.4 * total, rel=1e-12)

    def test_nature_criticalities_on_grid(self):
        config = generate_scenario(2, 30, seed=3)
        assert [len(region.loads) for region in config.regions] == [30, 30]
        for nature_criticality in config.load_natures:
            assert round(nature_criticality * 10_000) == pytest.approx(
                nature_criticality * 10_000, abs=1e-9
            )

    def test_single_load_scenario(self):
        config = generate_scenario(1, 1, seed=5)
        loads = scenario.resolved_loads(config)
        assert len(loads) == 1
        summary = scenario.oracle_summary(config)
        assert summary.z_star == loads[0].criticality

    def test_random_periodic_steps_are_pinned(self):
        # the last steps of both windows (steps 2 and 4) carry repair edges
        steps = scenario._random_periodic_steps(3, 4, period=4, window=2, edge_probability=0.2)
        assert steps == ({(1, 3)}, {(0, 1), (0, 2)}, {(0, 3)}, {(0, 1), (1, 2)})

    def test_validates(self):
        config = generate_scenario(4, 20, seed=9, graph="random-periodic")
        scenario.validate(config)


GEN_FAMILIES = ("line", "line-periodic", "random-periodic", "random")


def sorted_set_gap(crits) -> float | None:
    """The smallest gap as the ramp-width readers once took it: over
    ``sorted(set(...))``, or None when there are fewer than two values."""
    distinct = sorted(set(crits))
    return min(b - a for a, b in zip(distinct, distinct[1:])) if len(distinct) > 1 else None


def rejects(gap: float | None, width: float) -> bool:
    """Whether a positive width exceeds the gap by more than the check's slack."""
    return gap is not None and width > gap * (1.0 + 1e-12)


class TestRampWidthGap:
    """The ramp widths read off a CCF's breakpoints with one np.diff are the
    ones the sorted(set(...)) path gave."""

    @pytest.mark.parametrize("source", [
        *(f"{graph}-{seed}" for graph in GEN_FAMILIES for seed in range(8)),
        "two_region_step_example.json", "continuous_four_regions.json",
    ])
    def test_same_widths_and_decisions(self, source, monkeypatch):
        if source.endswith(".json"):
            config = load_scenario(CONFIG_DIR / source)
        else:
            graph, seed = source.rsplit("-", 1)
            config = generate_scenario(4, 100, seed=int(seed), graph=graph)
        loads = scenario.resolved_loads(config)
        gap = sorted_set_gap([l.criticality for l in loads if l.power > 0])
        default = 1.0 if gap is None else gap
        auto = dataclasses.replace(config, ramp_width=None)
        assert scenario.build_instance(auto).ramp_width.hex() == default.hex()

        if loads:  # the width greedy_shed_set builds its surrogate with
            widths = []
            surrogate = oracle.SurrogateCcf
            monkeypatch.setattr(oracle, "SurrogateCcf",
                                lambda ccf, width: widths.append(width) or surrogate(ccf, width))
            oracle.greedy_shed_set(config.load_ids, *scenario.load_columns(config),
                                   config.deficit)
            assert [w.hex() for w in widths] == [default.hex()]
            monkeypatch.undo()

        # accept or reject: validate against every load, each region's
        # surrogate against its own loads, the all-loads surrogate too
        ccf = build_ccf((l.power, l.criticality) for l in loads)
        slack = default * (1.0 + 1e-12)
        ends = np.cumsum([len(r.loads) for r in config.regions]).tolist()
        region_gaps = [sorted_set_gap([l.criticality for l in loads[a:b] if l.power > 0])
                       for a, b in zip([0, *ends], ends)]
        for width in (default / 2, default, math.nextafter(default, math.inf), slack,
                      math.nextafter(slack, math.inf), 2 * default):
            set_width = dataclasses.replace(config, ramp_width=width)
            if config.mode == "discrete":
                assert raises(ValueError, SurrogateCcf, ccf, width) == rejects(gap, width)
                assert raises(ValueError, scenario.build_instance, set_width) == any(
                    rejects(g, width) for g in region_gaps)
            assert raises(ScenarioError, scenario.validate, set_width) == (
                config.mode == "discrete" and rejects(gap, width))


def raises(kind, call, *args) -> bool:
    try:
        call(*args)
    except kind:
        return True
    return False


class TestRuns:
    def test_discrete_report_fields(self):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        trace, report = run_scenario(config, record_trace=False)
        assert report.converged
        assert report.oracle.z_star == 0.4
        assert report.distributed_z_star == 0.4
        assert report.distributed_shed_total == 9.0
        assert report.certificate_digest == {"window": 1, "ramp_width": 0.05, "step_gain": 1.0}
        payload = json.loads(scenario.report_json(report))
        assert payload["oracle"]["z_star"] == 0.4

    def test_oracle_values_are_python_floats(self):
        # the CCF's arrays hold float64s; a report reads Python floats off them
        solution = scenario.oracle_summary(load_scenario(CONFIG_DIR / "two_region_step_example.json"))
        for value in (solution.z_star, solution.z_hat, solution.shed_total):
            assert type(value) is float

    def test_oracle_half_populated_without_convergence(self):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        config = dataclasses.replace(config, max_rounds=5)
        trace, report = run_scenario(config, record_trace=False)
        assert not report.converged
        assert report.oracle.z_star == 0.4  # oracle fields always present

    def test_continuous_run_matches_closed_form(self):
        config = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        trace, report = run_scenario(config, record_trace=False)
        closed = report.oracle_continuous
        assert closed.z_tilde == pytest.approx(1.25, abs=1e-9)
        assert closed.per_region_shed == pytest.approx((1.2, 0.3, 0.3, 0.0), abs=1e-9)
        for estimate in report.per_region_final:
            assert abs(estimate - 1.25) < 0.01
        assert report.converged
        assert abs(report.distributed_z_star - closed.z_tilde) <= scenario.CONTINUOUS_TOLERANCE

    def test_zero_power_criticality_is_no_cutoff(self):
        # region 1 keeps loads at 0.1, 0.15 and 0.2 plus a zero-power load at
        # 0.6; the estimates settle below 0.4, so the zero-power load's
        # criticality is the only one above them in region 1
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["regions"][1]["loads"].insert(0, doc["regions"][0]["loads"].pop(3))
        doc["regions"][0]["loads"].append({"id": 9, "nature_criticality": 0.6, "power": 0.0})
        trace, report = run_scenario(loads_scenario(json.dumps(doc)), record_trace=False)
        assert 0.6 not in trace.final_zeta
        assert trace.final_zeta == (math.inf, 0.4)
        assert report.converged and report.distributed_z_star == 0.4


def recorded_trace(eta, x, zeta, z_min, alpha, p) -> RunTrace:
    """A recorded trace holding the given per-round columns."""
    return RunTrace(
        rounds=len(eta), converged=False, final_x=(), final_zeta=(), final_z=(),
        final_alpha=(), zeta_stable_rounds=0,
        eta=eta, x=x, zeta=zeta, z_min=z_min, alpha=alpha, p=p,
    )


def reference_csv(trace: RunTrace, ids) -> bytes:
    """The trace CSV written one cell at a time from numpy scalars."""
    n = trace.x.shape[1]
    ids = list(ids) if ids is not None else list(range(1, n + 1))
    lines = ["t,eta,region,x,zeta,z_min,alpha,p\n"]
    for r in range(trace.rounds):
        eta = trace.eta[r]
        for j in range(n):
            lines.append(
                f"{r + 1},{eta:.12g},{ids[j]},{trace.x[r, j]:.12g},"
                f"{trace.zeta[r, j]:.12g},{trace.z_min[r, j]:.12g},"
                f"{trace.alpha[r, j]:.12g},{trace.p[r, j]:.12g}\n"
            )
    return "".join(lines).encode()


SPECIAL_FLOATS = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
)

INTEGERS = (0, 3, -7, 10**15, 2**53 + 1, -(2**63), 2**63 - 1)


COLUMN_KINDS = ("repeat", "distinct", "mixed", "integer", "stretches")

# values that reach the writer's snprintf fallback and the edges of its
# fast path: exact ties (the second carries to 1e+12), the switch between
# fixed and exponent form, and the edges of the exact powers of ten
FORMAT_EDGES = (
    1234567890125.0, 999999999999.5,
    1e-05, 9.999999999995e-05, 99999999999.95, 1e11, 1e12, 1e16,
    1e22, 1e23, 1e-11, 1e-12,
    5e-324, -2.5e-310, 0.0, -0.0, math.inf, -math.inf, -math.nan,
)


def written_x_cells(values) -> list[str]:
    """The x cells emit_trace writes for a one-region trace of values."""
    column = np.array(values, np.float64).reshape(-1, 1)
    trace = recorded_trace(np.ones(len(column)), column, column, column, column, column)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.csv"
        emit_trace(trace, out)
        return [row.split(",")[3] for row in out.read_text().splitlines()[1:]]


@st.composite
def drawn_traces(draw, rounds: int, kinds=COLUMN_KINDS):
    """A trace of ``rounds`` rounds whose columns each repeat one value,
    repeat no value, mix signed zeros, NaNs, infinities, subnormals and
    drawn floats, hold 64-bit integers (a ``trace`` estimator given in
    JSON integers records ``p`` as such), or hold long stretches of equal
    rows whose cells change only on or next to a block boundary; plus the
    region ids to write (or None)."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(SPECIAL_FLOATS + tuple(draw(st.lists(st.floats(), max_size=4))))

    def column(shape):
        size = math.prod(shape)
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat":
            values = np.full(size, draw(st.sampled_from(pool.tolist())))
        elif kind == "distinct":
            # an odd multiplier permutes the 64-bit patterns, so none repeats
            bits = np.arange(size, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            values = (bits + np.uint64(rng.integers(2**63))).view(np.float64)
        elif kind == "mixed":
            values = rng.choice(pool, size)
            values[:2] = [0.0, -0.0][:size]
        elif kind == "integer":
            values = rng.choice(np.array(INTEGERS), size)
        else:
            # the writer carries each region's last row across blocks; with
            # two values per column, a row that differs from the last row
            # but equals an earlier one is likely
            rows = np.arange(shape[0]).reshape(-1, *[1] * (len(shape) - 1))
            near = np.isin(rows % TRACE_BLOCK_ROUNDS, (0, 1, TRACE_BLOCK_ROUNDS - 1))
            starts = near & (rng.random(shape) < 0.5)
            starts[0] = True
            since = np.maximum.accumulate(np.where(starts, rows, 0), axis=0)
            values = np.take_along_axis(rng.choice(rng.choice(pool, 2), shape), since, axis=0)
        return values.reshape(shape)

    eta = column((rounds,))
    trace = recorded_trace(eta, *(column((rounds, n)) for _ in range(5)))
    ids = draw(st.none() | st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n))
    return trace, ids


class TestEmitTrace:
    # 127..129 rounds stay well inside one block: a lone partial block
    @pytest.mark.parametrize("rounds", [
        1, 127, 128, 129, TRACE_BLOCK_ROUNDS - 1, TRACE_BLOCK_ROUNDS, TRACE_BLOCK_ROUNDS + 1,
        CHUNK - 1, CHUNK, CHUNK + 1,
    ])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_bytes_match_scalar_reference(self, rounds, data):
        trace, ids = data.draw(drawn_traces(rounds))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "trace.csv"
            emit_trace(trace, out, ids)
            assert out.read_bytes() == reference_csv(trace, ids)

    @pytest.mark.parametrize("rounds", [TRACE_BLOCK_ROUNDS + 2, 3 * TRACE_BLOCK_ROUNDS + 1])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_stretches_match_scalar_reference(self, rounds, data):
        trace, ids = data.draw(drawn_traces(rounds, kinds=("stretches",)))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "trace.csv"
            emit_trace(trace, out, ids)
            assert out.read_bytes() == reference_csv(trace, ids)

    def test_one_tail_changes_at_block_boundary(self, tmp_path):
        # region 2's zeta changes at the first row of the second block; the
        # other regions' tails come from the first block's last row
        rounds = 2 * TRACE_BLOCK_ROUNDS
        x = np.arange(rounds * 3, dtype=np.float64).reshape(rounds, 3)
        zeta = np.full((rounds, 3), math.inf)
        zeta[TRACE_BLOCK_ROUNDS:, 1] = 0.25
        rest = np.full((rounds, 3), 0.5)
        trace = recorded_trace(np.ones(rounds), x, zeta, rest, rest, rest)
        out = tmp_path / "trace.csv"
        emit_trace(trace, out, (7, 8, 9))
        assert out.read_bytes() == reference_csv(trace, (7, 8, 9))
        rows = out.read_text().splitlines()[1:]
        boundary = 3 * TRACE_BLOCK_ROUNDS
        assert [row.split(",", 4)[4] for row in rows[boundary - 3:boundary + 3]] == [
            "inf,0.5,0.5,0.5", "inf,0.5,0.5,0.5", "inf,0.5,0.5,0.5",
            "inf,0.5,0.5,0.5", "0.25,0.5,0.5,0.5", "inf,0.5,0.5,0.5",
        ]

    @staticmethod
    def emit_peak(config, path) -> int:
        """The most memory emit_trace holds while writing config's run."""
        trace, _ = run_scenario(config)
        tracemalloc.start()
        try:
            emit_trace(trace, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_stays_at_one_block(self, tmp_path):
        # 45 000 rounds of 4 regions are about 13 MB of text
        config = generate_scenario(4, 100, seed=0, graph="line")
        assert self.emit_peak(config, tmp_path / "trace.csv") < 2_000_000

    def test_memory_stays_at_one_block_of_29_regions(self, tmp_path):
        # the longest text of TRACE_BLOCK_ROUNDS rounds of 29 regions is
        # about 2.1 MB, so a block of 29 regions holds fewer rounds
        config = generate_scenario(29, 232, seed=0, graph="line", max_rounds=1500)
        assert self.emit_peak(config, tmp_path / "trace.csv") < 2_000_000

    @settings(max_examples=50, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=200), floats=st.lists(st.floats()))
    def test_cells_match_python_format(self, bits, floats):
        values = [*np.array(bits, np.uint64).view(np.float64).tolist(), *floats, *FORMAT_EDGES]
        assert written_x_cells(values) == ["%.12g" % v for v in values]

    def test_signed_zeros_stay_apart(self, tmp_path):
        # 0.0 == -0.0, so a writer that formats each distinct float value
        # once would write "0" for both
        x = np.array([[0.0], [-0.0], [0.0]])
        trace = recorded_trace(np.ones(3), x, x, x, x, x)
        out = tmp_path / "trace.csv"
        emit_trace(trace, out)
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["0", "-0", "0"]
        assert rows[1] == "2,1,1,-0,-0,-0,-0,-0"

    def test_integer_estimates_match_reference(self, tmp_path):
        # an all-integer ``trace`` estimator table records ``p`` as int64;
        # read as float bits, 3 would be written as 1.48219693752e-323
        eta = np.array([1.0, 0.5])
        x = np.array([[0.25, -0.0], [1e300, 0.0]])
        p = np.array([[3, 5], [3, 2**53 + 1]], dtype=np.int64)
        trace = recorded_trace(eta, x, x, x, x, p)
        out = tmp_path / "trace.csv"
        emit_trace(trace, out)
        assert out.read_bytes() == reference_csv(trace, None)
        assert [row.split(",")[-1] for row in out.read_text().splitlines()[1:]] == [
            "3", "5", "3", "9.00719925474e+15",
        ]

    def test_single_round_single_region(self, tmp_path):
        config = generate_scenario(1, 1, seed=5, max_rounds=1)
        inst = scenario.build_instance(config)
        trace = run_protocol(inst)
        out = tmp_path / "trace.csv"
        emit_trace(trace, out, scenario.region_ids(config))
        lines = out.read_text().splitlines()
        assert lines[0] == "t,eta,region,x,zeta,z_min,alpha,p"
        assert len(lines) == 2

    def test_continuous_run_row_count(self, tmp_path):
        config = load_scenario(CONFIG_DIR / "continuous_four_regions.json")
        trace, _ = run_scenario(config)
        out = tmp_path / "trace.csv"
        emit_trace(trace, out, scenario.region_ids(config))
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 1000 * 4

    def test_sentinel_serializes_as_inf(self, tmp_path):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        config = dataclasses.replace(config, max_rounds=3)
        trace, _ = run_scenario(config)
        out = tmp_path / "trace.csv"
        emit_trace(trace, out, scenario.region_ids(config))
        body = out.read_text()
        assert ",inf," in body

    def test_byte_identical_reruns(self, tmp_path):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        paths = []
        for name in ("a.csv", "b.csv"):
            trace, _ = run_scenario(config)
            out = tmp_path / name
            emit_trace(trace, out, scenario.region_ids(config))
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    @staticmethod
    def two_region_instance():
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        return scenario.build_instance(dataclasses.replace(config, max_rounds=40))

    def test_short_column_rejected(self, tmp_path):
        # the engine reads every column's rows by address, up to the trace's
        # rounds: each column in turn a round short
        trace = run_protocol(self.two_region_instance())
        for column in ("eta", "x", "zeta", "z_min", "alpha", "p"):
            short = dataclasses.replace(trace, **{column: getattr(trace, column)[:-1]})
            with pytest.raises(ValueError, match=f"{trace.rounds} rounds of 2 regions"):
                emit_trace(short, tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_unrecorded_trace_rejected(self, tmp_path):
        trace = run_protocol(self.two_region_instance(), record_trace=False)
        assert trace.rounds > 0 and trace.eta.shape == (0,) and trace.x.shape == (0, 2)
        empty = np.empty((0, 2))
        for unrecorded in (trace, recorded_trace(np.empty(0), *[empty] * 5)):
            with pytest.raises(ValueError, match="trace has no recorded rounds"):
                emit_trace(unrecorded, tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_non_contiguous_columns_match_reference(self, tmp_path):
        # hand-built columns of other layouts are converted, once, before the
        # engine reads them in place
        wide = np.arange(2 * 700 * 4, dtype=np.float64).reshape(2 * 700, 4) / 7
        x, p = wide[::2, 1::2], np.asfortranarray(wide[1::2, :2])
        assert not x.flags.c_contiguous and not p.flags.c_contiguous
        trace = recorded_trace(wide[::2, 3], x, x, -x, x, p)
        emit_trace(trace, tmp_path / "trace.csv", (5, 6))
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv(trace, (5, 6))


# cli stdout SHA-256 digests: name, command, exit code, digest
PINNED_STDOUT = [
    ("continuous_four_regions", "run", 0,
     "71919f174f66549348a82fbd6283e3ee9e01d8e78c7a333e2f5527b7a46a41cb"),
    ("continuous_four_regions", "solve", 0,
     "b915f5bc7f9da642d5c84230c1e77cc5a171ce2da0b0ccce664c128837e20576"),
    ("continuous_four_regions", "check", 0,
     "6eedcae0d237574cabf8cb2aa47c83ae60788afc0d0ef1bae4bb04c9b0aaa4bd"),
    ("two_region_step_example", "run", 0,
     "b32d32e1a7f50e9ce6dd99188b01f2b1dfe37e277c8101de4b060f225f4da242"),
    ("two_region_step_example", "solve", 0,
     "75c1fd95a66d29ab7cca13bf8cacbd0e8971563214ba90c8570b54ffeb53500d"),
    ("two_region_step_example", "check", 0,
     "fa528aca96861e614bdadb50d8b4c097d232687dc7baf7bbf5a4ca5bd45ba9fc"),
    ("line-0", "run", 0,
     "d03b2a7b464f2cf395a985dee8569d35af0134d4744de0adb6e3cfee429a47a0"),
    ("line-0", "solve", 0,
     "9de1edaf4c2efe7766df494f4a5d125e423e94c9c11aac82c9e48c36cfabd3e8"),
    ("line-0", "check", 0,
     "fc47d21a8d7354dfe02663641eed535d9ef1f358d4d0986ec015f3f029afdd84"),
    ("random-periodic-1", "run", 0,
     "a8b9ddfb44a3f7c83be5121cd12ef0a0643157526226f78a3da99b2325784ecb"),
    ("random-periodic-1", "solve", 0,
     "006f409666a625f2fd05aff4684aa1abd80b5d3f44a31837ffcbbcde7b8d482d"),
    ("random-periodic-1", "check", 0,
     "abad0f565c5b8ba5ae9f648079dc3b6326931f580faa7b4560fc6489c20b6874"),
    ("random-0", "run", 0,
     "d539d6b74c03f8a61f546c6f54b0444efb411d39e8c216784fc7354b3458b07c"),
    ("random-0", "check", 0,
     "8e6b9ac5915f76e3cd46665c347a1f351be2789622692c169367d47b44d68121"),
    # nonzero deficit-tracking errors, divided by eta(t) in every round
    ("two_region_step_example+noisy", "check", 0,
     "e659fa87acaea2945cbfb76468fea4c3e78de66d2c92509dccec69abbcd66c33"),
    ("two_region_step_example+miss", "check", 2,
     "0ee800ad229eb3432181db7d756603a4bc8a51e1d4897a47d819eaa83c69e992"),
]
# "config+edit": the shipped config with one estimator replaced
PINNED_ESTIMATORS = {
    "noisy": {"kind": "noisy_split"},
    # each row sums to 5.5, half a unit short of the deficit 6
    "miss": {"kind": "trace", "rows": [[3.25, 2.25], [2.5, 3.0]]},
}


class TestCli:
    def test_solve_discrete(self, capsys):
        rc = cli.main(["solve", str(CONFIG_DIR / "two_region_step_example.json")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["z_star"] == 0.4
        # every later call parses with the parser the first one built
        assert cli.build_parser() is cli.build_parser()

    def test_closed_stdout_exits_without_traceback(self):
        # the reader goes away before any output is written, as with `| head`
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "loadshed.cli", "solve",
             str(CONFIG_DIR / "two_region_step_example.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        with proc:
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr

    def test_run_on_a_directory_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unwritable_trace_exits_2(self, tmp_path, capsys):
        # the empty path records the run too, and then fails to open
        for path in (str(tmp_path / "missing" / "trace.csv"), ""):
            rc = cli.main(["run", str(CONFIG_DIR / "two_region_step_example.json"),
                           "--trace", path])
            assert rc == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: failed writing trace")

    @pytest.mark.parametrize("x0", [1e308, -1e308, sys.float_info.max])
    def test_overflowing_mean_estimate_is_not_converged(self, x0, tmp_path, capsys):
        # every final estimate is finite, but their sum is not
        doc = json.loads((CONFIG_DIR / "continuous_four_regions.json").read_text())
        doc["x0"] = x0
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(v) for v in payload["per_region_final"])
        assert payload["distributed_z_star"] is None and payload["converged"] is False

    @pytest.mark.parametrize("x0, z_dist", [(10, 5.135), (-5, -2.081)])
    def test_continuous_run_off_the_closed_form_is_not_converged(self, x0, z_dist, tmp_path,
                                                                 capsys):
        # the cutoffs settle, but the mean estimate is far from z_tilde = 1.25
        doc = json.loads((CONFIG_DIR / "continuous_four_regions.json").read_text())
        doc["x0"] = x0
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["distributed_z_star"] == pytest.approx(z_dist, abs=1e-3)
        assert payload["converged"] is False

    @pytest.mark.parametrize("command", ["run", "solve", "check"])
    def test_each_command_resolves_loads_once(self, command, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return resolve_criticalities(*args)

        monkeypatch.setattr(scenario, "resolve_criticalities", counting)
        path = CONFIG_DIR / "two_region_step_example.json"
        assert cli.main(["--quiet", command, str(path)]) == 0
        assert len(calls) == 1

    def test_run_with_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = cli.main([
            "run", str(CONFIG_DIR / "two_region_step_example.json"),
            "--trace", str(out),
        ])
        assert rc == 0
        assert out.exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["distributed_z_star"] == 0.4

    def test_run_non_convergence_exit_code(self, capsys, tmp_path):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        doc = json.loads(dumps_scenario(config))
        doc["max_rounds"] = 5
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["--quiet", "run", str(path)])
        assert rc == 3

    def test_run_trace_with_integer_estimates(self, tmp_path):
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["estimator"] = {"kind": "trace", "rows": [[3, 3]]}
        doc["max_rounds"] = 3
        path, out = tmp_path / "int.json", tmp_path / "trace.csv"
        path.write_text(json.dumps(doc))
        cli.main(["--quiet", "run", str(path), "--trace", str(out)])
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3 * 2
        assert {row.split(",")[-1] for row in rows} == {"3"}

    def test_deficit_of_total_power_is_not_converged(self, capsys, tmp_path):
        # the cutoffs settle, but the distributed threshold stays at +inf
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["deficit"] = 16.0
        path = tmp_path / "all.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle"]["z_star"] == 0.8
        assert payload["distributed_z_star"] is None
        assert payload["converged"] is False

    @pytest.mark.parametrize(
        "where, value, field",
        [
            (("deficit",), math.nan, "deficit"),
            (("deficit",), True, "deficit"),
            (("deficit",), 0.0, "deficit"),
            (("x0",), math.nan, "x0"),
            (("regions", 0, "loads", 0, "power"), math.nan, "regions[0].loads[0].power"),
            (("regions", 0, "loads", 0, "power"), "1.0", "regions[0].loads[0].power"),
            (("max_rounds",), 3000.0, "max_rounds"),
            (("estimator",), {"kind": "trace", "rows": [[2.0, 2.0, 2.0]]}, "estimator.rows[0]"),
            (("estimator",), {"kind": "trace", "rows": [[6.0]]}, "estimator.rows[0]"),
            (("estimator",), {"kind": "trace", "rows": [[3.0, 3.0], [2.0, 2.0, 2.0]]},
             "estimator.rows[1]"),
            (("regions",), "x", "regions"),
        ],
        ids=["deficit-nan", "deficit-true", "deficit-zero", "x0-nan", "power-nan", "power-string",
             "max-rounds-float", "trace-too-wide", "trace-too-narrow", "trace-mixed-widths",
             "regions-string"],
    )
    def test_non_numbers_rejected(self, where, value, field, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} ")
        with pytest.raises(ScenarioError, match=re.escape(field)):
            load_scenario(path)

    @pytest.mark.parametrize(
        "graph, window",
        [
            ({"kind": "static", "edges": [[1, 2]]}, 0),
            ({"kind": "static", "edges": [[1, 2]]}, -2),
            ({"kind": "periodic", "steps": [[[1, 2]]]}, 0),
            ({"kind": "static", "edges": [[1, 2]]}, 3001),
        ],
        ids=["static-0", "static-negative", "periodic-0", "above-max-rounds"],
    )
    def test_window_outside_horizon_rejected(self, graph, window, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        assert doc["max_rounds"] == 3000
        doc["graph"] = {**graph, "window": window}
        path = tmp_path / "window.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: graph.window {window} outside [1, max_rounds = 3000]\n"

    def test_periodic_window_default_outside_horizon_says_so(self, capsys, tmp_path):
        # three steps and no window: the window defaults to the period, 3
        doc = json.loads((CONFIG_DIR / "continuous_four_regions.json").read_text())
        doc["max_rounds"] = 2
        doc["graph"] = {"kind": "periodic", "steps": [[[1, 2]], [[2, 3]], [[3, 4]]]}
        path = tmp_path / "window.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: graph.window defaults to the period 3, which is outside "
            "[1, max_rounds = 2]\n"
        )
        doc["graph"]["window"] = 3
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "error: graph.window 3 outside [1, max_rounds = 2]\n"

    def test_periodic_window_defaults_to_the_period(self):
        # neither step is connected on its own; every two consecutive are
        doc = json.loads((CONFIG_DIR / "continuous_four_regions.json").read_text())
        doc["graph"] = {"kind": "periodic", "steps": [[[1, 2], [3, 4]], [[2, 3]]]}
        assert loads_scenario(json.dumps(doc)).graph.window == 2
        doc["graph"]["window"] = 1
        with pytest.raises(ScenarioError, match="window connectivity"):
            loads_scenario(json.dumps(doc))
        doc["graph"] = {"kind": "static", "edges": [[1, 2], [2, 3], [3, 4]]}
        assert loads_scenario(json.dumps(doc)).graph.window == 1

    def test_disconnected_window_past_the_hundredth_rejected(self, capsys, tmp_path):
        # 101 steps at window 1, the last one empty: only window 100 is
        # disconnected, and every command rejects the document
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["graph"] = {"kind": "periodic", "steps": [[[1, 2]]] * 100 + [[]], "window": 1}
        message = "communication schedule fails window connectivity at window 100 (window 1)"
        with pytest.raises(ScenarioError) as excinfo:
            loads_scenario(json.dumps(doc))
        assert str(excinfo.value) == message
        path = tmp_path / "window100.json"
        path.write_text(json.dumps(doc))
        for command in ("run", "solve", "check"):
            assert cli.main([command, str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "config, where, value, message",
        [
            ("two_region_step_example.json", ("regions", 0, "loads", 0, "power"), -1.0,
             "regions[0].loads[0]: load 1: power must be nonnegative, got -1.0"),
            ("two_region_step_example.json", ("regions", 1, "loads", 2, "nature_criticality"),
             1.5, "regions[1].loads[2]: load 7: nature criticality 1.5 outside [0, 1]"),
            ("two_region_step_example.json", ("regions", 1, "criticality"), 1.5,
             "regions[1]: region 2: criticality 1.5 outside [0, 1]"),
            ("two_region_step_example.json", ("step", "gain"), 0.0,
             "step: step gain must be positive, got 0.0"),
            ("two_region_step_example.json", ("step", "offset"), -1.0,
             "step: step offset must be positive, got -1.0"),
            ("two_region_step_example.json", ("step", "exponent"), 0.5,
             "step: step exponent must lie in (0.5, 1], got 0.5"),
            ("continuous_four_regions.json", ("regions", 2, "capacity"), -1.0,
             "regions[2]: region 3: negative capacity -1.0"),
            ("continuous_four_regions.json", ("regions", 3, "criticality"), 0,
             "regions[3]: region 4: continuous criticality must be a positive integer, got 0"),
        ],
        ids=["power", "nature", "region", "gain", "offset", "exponent", "capacity",
             "continuous-criticality"],
    )
    def test_range_error_names_its_path(self, config, where, value, message, capsys,
                                        tmp_path):
        doc = json.loads((CONFIG_DIR / config).read_text())
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        path = tmp_path / "range.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "config, key, message",
        [
            ("two_region_step_example.json", "power", "total sheddable power"),
            ("continuous_four_regions.json", "capacity", "total capacity"),
        ],
    )
    def test_total_overflow_rejected(self, config, key, message, capsys, tmp_path):
        # each amount is finite, their sum is not
        doc = json.loads((CONFIG_DIR / config).read_text())
        for target in (doc["regions"][0]["loads"][:2] if key == "power" else doc["regions"][:2]):
            target[key] = 1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == f"error: regions: {message} exceeds the largest float\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--deficit-fraction", "2"], "deficit fraction 2.0 outside (0, 1)"),
            (["--deficit-fraction", "-0.5"], "deficit fraction -0.5 outside (0, 1)"),
            (["--deficit-fraction", "0"], "deficit fraction 0.0 outside (0, 1)"),
            (["--deficit-fraction", "1"], "deficit fraction 1.0 outside (0, 1)"),
            (["--deficit-fraction", "nan"], "deficit fraction nan outside (0, 1)"),
            # one load: the deficit always sits at 0.9 of its ramp
            (["--regions", "1", "--loads", "1", "--deficit-fraction", "0.9"],
             "seed 1: no admissible power draw found"),
        ],
        ids=["above-one", "negative", "zero", "one", "nan", "no-admissible-draw"],
    )
    def test_gen_deficit_fraction_rejected(self, argv, message, capsys, tmp_path):
        out = tmp_path / "gen.json"
        argv = ["gen", "--seed", "1", "--regions", "2", "--loads", "3", *argv, "-o", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, rounds, code, line",
        [
            ([3, 3.5], [], 2, "deficit_tracking: FAIL  value=15000.5  bound 4"),
            ([3, 3], [], 0, "deficit_tracking: pass  value=0  bound 4"),
            ([3, 3.25], ["--max-rounds", "1"], 0, "deficit_tracking: pass  value=2.75  bound 4"),
        ],
        ids=["off-the-deficit", "on-the-deficit", "between-n-and-2n"],
    )
    def test_check_deficit_tracking(self, row, rounds, code, line, capsys, tmp_path):
        # theta is measured against the config's deficit (6), so a table
        # that misses it by 0.5 fails at 0.5 (t + 1) over 30 000 rounds; one
        # that misses it by 0.25 reads 0.25 * 11 over 10 rounds, within 2n
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["estimator"] = {"kind": "trace", "rows": [row]}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path), *rounds]) == code
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "graph, estimator, message",
        [
            (None, {"kind": "trace"}, "estimator.rows: trace estimator needs at least one row"),
            ({"kind": "periodic"}, None, "graph.steps: periodic schedule needs at least one step"),
            ({"kind": "static", "edges": [[1, 2], [2, 9]]}, None,
             "graph.edges[1]: unknown region id 9"),
            ({"kind": "periodic", "steps": [[[1, 2]], [[9, 1]]]}, None,
             "graph.steps[1][0]: unknown region id 9"),
            ({"kind": "mesh"}, None, "graph.kind: unknown graph kind 'mesh'"),
            (None, {"kind": "oracle"}, "estimator.kind: unknown estimator kind 'oracle'"),
        ],
        ids=["trace-without-rows", "periodic-without-steps", "edge-id", "step-id", "graph-kind",
             "estimator-kind"],
    )
    def test_build_error_names_its_path(self, graph, estimator, message, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["graph"] = graph or doc["graph"]
        doc["estimator"] = estimator or doc["estimator"]
        path = tmp_path / "build.json"
        path.write_text(json.dumps(doc))
        for command in ("run", "solve", "check"):
            assert cli.main([command, str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "load, nature, message",
        [
            ((0, 1), None, "regions[0].loads[1].power: 1e-17 leaves the cumulative load at "
                           "criticality 0.15 unchanged"),
            # merged with regions[1].loads[0] at 0.4, it moves the all-loads CCF, not its region's
            ((0, 3), None, "regions[0].loads[3].power: 1e-17 leaves the cumulative load at "
                           "criticality 0.4 unchanged"),
            # its region's first breakpoint, it moves that region's CCF, not the all-loads one
            ((1, 0), 0.45, "regions[1].loads[0].power: 1e-17 leaves the cumulative load at "
                           "criticality 0.45 unchanged"),
        ],
        ids=["both", "region-only", "all-loads-only"],
    )
    def test_load_below_the_cumulative_ulp_rejected(self, load, nature, message, capsys,
                                                     tmp_path):
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        target = doc["regions"][load[0]]["loads"][load[1]]
        target["power"] = 1e-17
        target["nature_criticality"] = nature or target["nature_criticality"]
        with pytest.raises(ScenarioError) as excinfo:
            loads_scenario(json.dumps(doc))
        assert str(excinfo.value) == message
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        for command in ("run", "solve", "check"):
            assert cli.main([command, str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_check_of_overflowing_trace_rows_fails(self, capsys, tmp_path):
        # each row entry is finite, their sums are not
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["estimator"] = {"kind": "trace", "rows": [[1e308, 1e308]]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert "deviation_rate: FAIL  value=inf  non-finite estimate sum" in lines
        assert "deficit_tracking: FAIL  value=inf  bound 4" in lines

    def test_check_takes_the_slope_of_the_limit_field(self, capsys, tmp_path):
        # estimates of 1e17 would swamp a sampled field's differences in
        # rounding; the slope is read off the CCFs, the shipped config's 80
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["estimator"] = {"kind": "trace", "rows": [[1e17, 1e17]]}
        path = tmp_path / "large.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == 2  # deficit_tracking fails
        assert "lipschitz=80" in capsys.readouterr().out.splitlines()[-1].split()

    @pytest.mark.parametrize(
        "deficit, line",
        [
            (9.0, "sign_condition: FAIL  value=1  witness=0.4  "
                  "the deficit is the cumulative load at breakpoint 0.4"),
            (1.0, "sign_condition: FAIL  value=1  witness=0.1  "
                  "the deficit is the cumulative load at breakpoint 0.1"),
        ],
        ids=["9", "1"],
    )
    def test_check_sign_condition_fails_at_a_cumulative_load(self, deficit, line, capsys,
                                                             tmp_path):
        # the averaged field vanishes from the breakpoint to the next ramp,
        # so the estimates settle anywhere on that plateau and the run
        # does not reach the oracle's threshold
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["deficit"] = deficit
        path = tmp_path / "plateau.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert line in lines
        assert [l for l in lines if "FAIL" in l] == [line]
        assert cli.main(["run", str(path)]) == 3
        assert json.loads(capsys.readouterr().out)["converged"] is False

    def test_validation_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        rc = cli.main(["--quiet", "run", str(path)])
        assert rc == 2

    @pytest.mark.parametrize("rounds", [2**63 - 1, 2**64 + 50])
    def test_max_rounds_the_engine_cannot_count_rejected(self, rounds):
        # run_protocol hands the kernel max_rounds + 1 as an int64, which ctypes wraps
        doc = (CONFIG_DIR / "two_region_step_example.json").read_text()
        message = rf"^max_rounds {rounds} outside \[1, 2\*\*63 - 2\]$"
        with pytest.raises(ScenarioError, match=message):
            loads_scenario(doc, max_rounds=rounds)

    def test_largest_countable_max_rounds_accepted(self):
        doc = (CONFIG_DIR / "two_region_step_example.json").read_text()
        assert loads_scenario(doc, max_rounds=2**63 - 2).max_rounds == 2**63 - 2

    @pytest.mark.parametrize("window", [0, 2**63 - 1, 2**64 + 1])
    def test_convergence_window_the_engine_cannot_count_rejected(self, window):
        # run_protocol hands the kernel the window as an int64, which ctypes wraps
        doc = (CONFIG_DIR / "two_region_step_example.json").read_text()
        message = rf"^convergence_window {window} outside \[1, 2\*\*63 - 2\]$"
        with pytest.raises(ScenarioError, match=message):
            loads_scenario(doc, convergence_window=window)

    def test_largest_countable_convergence_window_accepted(self):
        doc = (CONFIG_DIR / "two_region_step_example.json").read_text()
        config = loads_scenario(doc, convergence_window=2**63 - 2)
        assert config.convergence_window == 2**63 - 2

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("rounds", ["0", "-5", str(2**63 - 1)])
    def test_max_rounds_override_validated(self, command, rounds, capsys):
        config = str(CONFIG_DIR / "two_region_step_example.json")
        assert cli.main([command, config, "--max-rounds", rounds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_rounds" in captured.err

    def test_max_rounds_flag_replaces_a_faulty_key(self, capsys, tmp_path):
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["max_rounds"] = "many"
        path = tmp_path / "many.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "error: max_rounds must be an integer, got 'many'\n"
        assert cli.main(["run", str(path), "--max-rounds", "50"]) == 3
        assert json.loads(capsys.readouterr().out)["rounds"] == 50

    def test_max_rounds_flag_keeps_the_default_window_wording(self, capsys, tmp_path):
        # three steps and no window: the window defaults to the period, 3
        doc = json.loads((CONFIG_DIR / "continuous_four_regions.json").read_text())
        doc["graph"] = {"kind": "periodic", "steps": [[[1, 2]], [[2, 3]], [[3, 4]]]}
        path = tmp_path / "window.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", str(path), "--max-rounds", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: graph.window defaults to the period 3, which is outside "
            "[1, max_rounds = 2]\n"
        )

    def test_report_is_strict_json(self, capsys):
        # one round leaves the min-consensus values at their +inf sentinel
        config = str(CONFIG_DIR / "two_region_step_example.json")
        assert cli.main(["run", config, "--max-rounds", "1"]) == 3

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["per_region_final"] == ["inf", "inf"]

    def test_run_continuous_config(self, capsys):
        rc = cli.main(["run", str(CONFIG_DIR / "continuous_four_regions.json")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_continuous"]["z_tilde"] == pytest.approx(1.25, abs=1e-9)

    @pytest.mark.parametrize("command", ["solve", "run", "check"])
    def test_quiet_before_or_after_subcommand(self, command, capsys):
        config = str(CONFIG_DIR / "two_region_step_example.json")
        for argv in (["--quiet", command, config], [command, config, "--quiet"]):
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == ""

    def test_gen_and_run(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        rc = cli.main([
            "--quiet", "gen", "--regions", "2", "--loads", "6",
            "--seed", "3", "-o", str(out),
        ])
        assert rc == 0
        rc = cli.main(["--quiet", "solve", str(out)])
        assert rc == 0

    def test_ids_are_any_json_integers(self, capsys, tmp_path):
        # loads 4 and 5 share criticality 0.4: the greedy prefix takes -5 first
        doc = edited_example([(load_at(0, 3, "id"), 2**70), (load_at(1, 0, "id"), -5)])
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path)]) == 0
        solution = json.loads(capsys.readouterr().out)
        assert solution["greedy_ids"] == [1, 2, 3, -5, 2**70]
        assert solution["shed_ids"] == [1, 2, 3, 2**70, -5]
        assert cli.main(["solve", str(path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "0b113bbad8f8817aedbde409d4e67f21acbe3128dacc25d00220ea0c282b9bf4"
        )

    def test_large_id_repeated_across_regions(self, capsys, tmp_path):
        doc = edited_example([(load_at(0, 3, "id"), 2**70), (load_at(1, 1, "id"), 2**70)])
        message = f"regions[1].loads[1].id: duplicate load id {2**70} (ids must be unique)"
        with pytest.raises(ScenarioError) as excinfo:
            loads_scenario(json.dumps(doc))
        assert str(excinfo.value) == message
        path = tmp_path / "ids.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_check_subcommand(self, capsys):
        rc = cli.main(["check", str(CONFIG_DIR / "continuous_four_regions.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sign_condition: pass" in out

    @pytest.mark.parametrize(
        "name, command, code, digest", PINNED_STDOUT,
        ids=[f"{name}-{command}" for name, command, _, _ in PINNED_STDOUT],
    )
    def test_stdout_is_pinned(self, name, command, code, digest, capsys, tmp_path):
        # shipped configs, PINNED_ESTIMATORS' edits of them for "config+edit", and
        # generate_scenario(4, 100, seed, graph=family) for "family-seed"
        name, _, edit = name.partition("+")
        path = CONFIG_DIR / f"{name}.json"
        if edit:
            doc = {**json.loads(path.read_text()), "estimator": PINNED_ESTIMATORS[edit]}
            path = tmp_path / "edited.json"
            path.write_text(json.dumps(doc))
        elif not path.exists():
            family, seed = name.rsplit("-", 1)
            path = tmp_path / "gen.json"
            dump_scenario(generate_scenario(4, 100, int(seed), graph=family), path)
        assert cli.main([command, str(path)]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_max_rounds_override(self, capsys):
        rc = cli.main([
            "run", str(CONFIG_DIR / "two_region_step_example.json"),
            "--max-rounds", "4",
        ])
        assert rc == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["rounds"] == 4

    def test_seed_override_changes_noisy_trace(self, tmp_path):
        config = generate_scenario(2, 6, seed=4, max_rounds=200)
        doc = json.loads(dumps_scenario(config))
        doc["estimator"] = {"kind": "noisy_split"}
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(doc))
        outs = []
        for name, seed in (("a.csv", "4"), ("b.csv", "99")):
            out = tmp_path / name
            cli.main(["--quiet", "run", str(path), "--seed", seed, "--trace", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]
