"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from loadshed import cli, criticality, netgraph, oracle, protocol, rootfind, scenario, seeding  # noqa: E402

import golden  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PKG = SimpleNamespace(cli=cli, criticality=criticality, netgraph=netgraph, oracle=oracle,
                      protocol=protocol, rootfind=rootfind, scenario=scenario, seeding=seeding)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL_CASE = "config-two-region-step"


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=600, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_one_scenario_smoke_run(name, trace):
    proc = bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    golden_cases = len(WORKLOADS[name].golden)
    assert result["attempted"] == golden_cases + (2 if trace else 1)
    kind = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for key, value in result["metrics"].items():
        assert math.isfinite(value["value"]), key


def test_workload_seed_changes_inputs(tmp_path):
    for name, workload in WORKLOADS.items():
        labels = {}
        for seed in (0, 1, 0):
            workdir = tmp_path / f"{name}-{seed}"
            workdir.mkdir(exist_ok=True)
            items = workload.setup(PKG, seed, workdir, [])
            texts = [scenario.dumps_scenario(item.config) for item in items]
            labels.setdefault(seed, []).append(([i.label for i in items], texts))
        assert labels[0][0] == labels[0][1], f"{name}: same seed, different inputs"
        assert labels[0][0][1] != labels[1][0][1], f"{name}: seed does not change inputs"


def test_golden_digests_match_on_every_case(tmp_path):
    # the recorded cases do not depend on any workload seed
    for name in golden.CASES:
        assert golden.check_case(PKG, name, tmp_path, with_csv=True) == [], name


def test_cli_trace_matches_golden_csv(tmp_path):
    config = golden.case_config(PKG, "line-0")
    path = tmp_path / "line-0.json"
    scenario.dump_scenario(config, path)
    csv = tmp_path / "line-0.csv"
    assert cli.main(["run", str(path), "--trace", str(csv), "--quiet"]) == 0
    assert golden.file_digest(csv) == golden.load_golden()["line-0"]["csv_sha256"]


def test_flipped_csv_byte_is_flagged(tmp_path):
    expected = golden.load_golden()[SMALL_CASE]
    csv = tmp_path / "trace.csv"
    actual = golden.case_digests(PKG, SMALL_CASE, csv)
    assert golden.mismatches(expected, actual) == []
    data = bytearray(csv.read_bytes())
    data[len(data) // 2] ^= 0x01
    csv.write_bytes(bytes(data))
    actual["csv_sha256"] = golden.file_digest(csv)
    assert golden.mismatches(expected, actual) == ["csv_sha256"]


def test_perturbed_final_state_is_flagged():
    expected = golden.load_golden()[SMALL_CASE]["state_sha256"]
    trace = golden.run_config(PKG, golden.case_config(PKG, SMALL_CASE), record=False)
    assert golden.state_digest(trace) == expected
    x = list(trace.final_x)
    x[0] = math.nextafter(x[0], math.inf)
    for changed in (
        dataclasses.replace(trace, final_x=tuple(x)),
        dataclasses.replace(trace, zeta_stable_rounds=trace.zeta_stable_rounds - 1),
    ):
        assert golden.state_digest(changed) != expected


def test_check_case_reports_a_mismatch(tmp_path, monkeypatch):
    recorded = golden.load_golden()
    wrong = dict(recorded, **{SMALL_CASE: dict(recorded[SMALL_CASE], state_sha256="0" * 64)})
    monkeypatch.setattr(golden, "load_golden", lambda: wrong)
    assert golden.check_case(PKG, SMALL_CASE, tmp_path, with_csv=True) == ["state_sha256"]


def test_self_times_add_up_to_the_root_span():
    module = SimpleNamespace()
    module.inner = lambda: time.sleep(0.002)

    def outer():
        time.sleep(0.001)
        module.inner()
        module.inner()

    module.outer = outer
    tracer = Tracer()
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner")
    with tracer.span("root"):
        module.outer()
    tracer.uninstall()
    assert module.outer is outer
    self_time = tracer.self_times()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["root", "outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert self_time.sum() == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-9)
    assert all(t >= 0.0019 for t in self_time[2:])
    # an interval inside the first inner span comes out of that span only
    inside = (tracer.start[2] + 0.0005, 0.001)
    excluded = tracer.self_times([inside])
    assert excluded[2] == pytest.approx(self_time[2] - 0.001, abs=1e-12)
    assert list(excluded[[0, 1, 3]]) == list(self_time[[0, 1, 3]])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
