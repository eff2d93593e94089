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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadshed import cli, scenario
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
        assert scenario.resolve_ramp_width(config) == 0.05

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

    @pytest.mark.parametrize("name", ["continuous_four_regions.json",
                                      "two_region_step_example.json"])
    def test_shipped_config_bytes_round_trip(self, name):
        text = (CONFIG_DIR / name).read_text()
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
        for region in config.regions:
            for load in region.loads:
                assert round(load.nature_criticality * 10_000) == pytest.approx(
                    load.nature_criticality * 10_000, abs=1e-9
                )

    def test_single_load_scenario(self):
        config = generate_scenario(1, 1, seed=5)
        loads = scenario.resolved_loads(config)
        assert len(loads) == 1
        summary = scenario.oracle_summary(config)
        assert summary.z_star == loads[0].criticality

    def test_random_periodic_steps_are_pinned(self):
        # the last steps of both windows (steps 2 and 4) carry repair edges
        steps = scenario._random_periodic_steps(3, [1, 2, 3, 4], period=4, window=2,
                                                edge_probability=0.2)
        assert steps == (((2, 4),), ((1, 2), (1, 3)), ((1, 4),), ((1, 2), (2, 3)))

    def test_validates(self):
        config = generate_scenario(4, 20, seed=9, graph="random-periodic")
        scenario.validate(config)


class TestRuns:
    def test_discrete_report_fields(self):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        trace, report = run_scenario(config, record_trace=False)
        assert report.converged
        assert report.oracle.z_star == 0.4
        assert report.distributed_z_star == 0.4
        assert report.distributed_shed_total == 9.0
        assert report.certificate_digest["window_connectivity"] is True
        payload = json.loads(report.to_json())
        assert payload["oracle"]["z_star"] == 0.4

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


def recorded_trace(eta, x, zeta, z_min, alpha, p) -> RunTrace:
    """A recorded trace holding the given per-round columns."""
    return RunTrace(
        rounds=len(eta), converged=False, final_x=(), final_zeta=(), final_z=(),
        final_alpha=(), zeta_stable_rounds=0, recorded=True,
        t=np.arange(1, len(eta) + 1, dtype=np.int64),
        eta=eta, x=x, zeta=zeta, z_min=z_min, alpha=alpha, p=p,
    )


def reference_csv(trace: RunTrace, ids) -> bytes:
    """The trace CSV written one cell at a time from numpy scalars."""
    n = trace.x.shape[1]
    ids = list(ids) if ids is not None else list(range(1, n + 1))
    lines = ["t,eta,region,x,zeta,z_min,alpha,p\n"]
    for r in range(trace.rounds):
        t = int(trace.t[r])
        eta = trace.eta[r]
        for j in range(n):
            lines.append(
                f"{t},{eta:.12g},{ids[j]},{trace.x[r, j]:.12g},"
                f"{trace.zeta[r, j]:.12g},{trace.z_min[r, j]:.12g},"
                f"{trace.alpha[r, j]:.12g},{trace.p[r, j]:.12g}\n"
            )
    return "".join(lines).encode()


SPECIAL_FLOATS = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
)

INTEGERS = (0, 3, -7, 10**15, 2**53 + 1, -(2**63), 2**63 - 1)


@st.composite
def drawn_traces(draw, rounds: int):
    """A trace of ``rounds`` rounds whose columns each repeat one value,
    repeat no value, mix signed zeros, NaNs, infinities, subnormals and
    drawn floats, or hold 64-bit integers (a ``trace`` estimator given in
    JSON integers records ``p`` as such); plus the region ids to write (or
    None)."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(SPECIAL_FLOATS + tuple(draw(st.lists(st.floats(), max_size=4))))

    def column(shape):
        size = math.prod(shape)
        kind = draw(st.sampled_from(["repeat", "distinct", "mixed", "integer"]))
        if kind == "repeat":
            values = np.full(size, draw(st.sampled_from(pool.tolist())))
        elif kind == "distinct":
            # an odd multiplier permutes the 64-bit patterns, so none repeats
            bits = np.arange(size, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            values = (bits + np.uint64(rng.integers(2**63))).view(np.float64)
        elif kind == "mixed":
            values = rng.choice(pool, size)
            values[:2] = [0.0, -0.0][:size]
        else:
            values = rng.choice(np.array(INTEGERS), size)
        return values.reshape(shape)

    eta = column((rounds,))
    trace = recorded_trace(eta, *(column((rounds, n)) for _ in range(5)))
    ids = draw(st.none() | st.lists(st.integers(-10**9, 10**9), min_size=n, max_size=n))
    return trace, ids


class TestEmitTrace:
    @pytest.mark.parametrize("rounds", [
        1, TRACE_BLOCK_ROUNDS - 1, TRACE_BLOCK_ROUNDS, TRACE_BLOCK_ROUNDS + 1,
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

    def test_unrecorded_trace_rejected(self):
        config = load_scenario(CONFIG_DIR / "two_region_step_example.json")
        trace, _ = run_scenario(config, record_trace=False)
        with pytest.raises(ValueError):
            emit_trace(trace, "/tmp/never.csv")


class TestCli:
    def test_solve_discrete(self, capsys):
        rc = cli.main(["solve", str(CONFIG_DIR / "two_region_step_example.json")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["z_star"] == 0.4

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
            (("x0",), math.nan, "x0"),
            (("regions", 0, "loads", 0, "power"), math.nan, "regions[0].loads[0].power"),
            (("regions", 0, "loads", 0, "power"), "1.0", "regions[0].loads[0].power"),
            (("max_rounds",), 3000.0, "max_rounds"),
            (("estimator",), {"kind": "trace", "rows": [[2.0, 2.0, 2.0]]}, "estimator.rows[0]"),
            (("estimator",), {"kind": "trace", "rows": [[6.0]]}, "estimator.rows[0]"),
            (("regions",), "x", "regions"),
        ],
        ids=["deficit-nan", "deficit-true", "x0-nan", "power-nan", "power-string",
             "max-rounds-float", "trace-too-wide", "trace-too-narrow", "regions-string"],
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
        "row, code, line",
        [
            ([3, 3.5], 2, "deficit_tracking: FAIL  value=15000.5  bound 4"),
            ([3, 3], 0, "deficit_tracking: pass  value=0  bound 4"),
        ],
        ids=["off-the-deficit", "on-the-deficit"],
    )
    def test_check_deficit_tracking(self, row, code, line, capsys, tmp_path):
        # theta is measured against the config's deficit (6), so a table
        # that misses it by 0.5 fails at 0.5 (t + 1) over 30 000 rounds
        doc = json.loads((CONFIG_DIR / "two_region_step_example.json").read_text())
        doc["estimator"] = {"kind": "trace", "rows": [row]}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == code
        assert line in capsys.readouterr().out.splitlines()

    def test_validation_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        rc = cli.main(["--quiet", "run", str(path)])
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("rounds", ["0", "-5"])
    def test_max_rounds_override_validated(self, command, rounds, capsys):
        config = str(CONFIG_DIR / "two_region_step_example.json")
        assert cli.main([command, config, "--max-rounds", rounds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_rounds" in captured.err

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

    def test_check_subcommand(self, capsys):
        rc = cli.main(["check", str(CONFIG_DIR / "continuous_four_regions.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sign_condition: pass" in out
        assert "window_connectivity: pass" in out

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
