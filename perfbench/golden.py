"""Golden digests: the bit-exact output of fixed scenarios, recorded before any
engine change.

Two digests per case:

- ``state_sha256``: SHA-256 of ``repr((rounds, final_x, final_zeta, final_z,
  final_alpha, zeta_stable_rounds))`` with every value converted to a Python
  ``int`` or ``float`` first, so an engine that returns numpy scalars with the
  same bits still matches;
- ``csv_sha256``: SHA-256 of the bytes ``emit_trace`` writes for a recorded run.

The whole report JSON is deliberately not digested, because reports may gain
fields without any trajectory changing.

Print the digests of the current code with ``python3 perfbench/golden.py``.
Redirect that into ``perfbench/golden.json`` only in a change whose purpose is
to alter trajectories, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_FILE = BENCH_DIR / "golden.json"

# name -> where the scenario comes from; generated cases use 4 regions x 100 loads
CASES = {
    "line-0": {"family": "line", "seed": 0},
    "line-2": {"family": "line", "seed": 2},
    "random-periodic-1": {"family": "random-periodic", "seed": 1},
    "random-periodic-3": {"family": "random-periodic", "seed": 3},
    "random-0": {"family": "random", "seed": 0},
    "random-2": {"family": "random", "seed": 2},
    "config-two-region-step": {"config": "configs/two_region_step_example.json"},
    "config-continuous-four-regions": {"config": "configs/continuous_four_regions.json"},
}


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def case_config(pkg, name: str):
    source = CASES[name]
    if "config" in source:
        return pkg.scenario.load_scenario(ROOT / source["config"])
    return pkg.scenario.generate_scenario(4, 100, seed=source["seed"], graph=source["family"])


def run_config(pkg, config, record: bool):
    """The run path of ``loadshed run``: discrete or continuous mode."""
    if config.mode == "continuous":
        trace, _ = pkg.scenario.run_continuous(config, record_trace=record)
    else:
        trace, _ = pkg.scenario.run_scenario(config, record_trace=record)
    return trace


def state_digest(trace) -> str:
    state = (
        int(trace.rounds),
        tuple(float(v) for v in trace.final_x),
        tuple(float(v) for v in trace.final_zeta),
        tuple(float(v) for v in trace.final_z),
        tuple(float(v) for v in trace.final_alpha),
        int(trace.zeta_stable_rounds),
    )
    return hashlib.sha256(repr(state).encode("ascii")).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def case_digests(pkg, name: str, csv_path=None) -> dict:
    """Digests of one case; with ``csv_path`` the run is recorded and emitted there."""
    config = case_config(pkg, name)
    trace = run_config(pkg, config, record=csv_path is not None)
    digests = {"state_sha256": state_digest(trace)}
    if csv_path is not None:
        pkg.scenario.emit_trace(trace, csv_path, pkg.scenario.region_ids(config))
        digests["csv_sha256"] = file_digest(csv_path)
    return digests


def mismatches(expected: dict, actual: dict) -> list[str]:
    """Names of the digests in ``actual`` that differ from ``expected``."""
    return [key for key, value in actual.items() if expected[key] != value]


def check_case(pkg, name: str, workdir: Path, with_csv: bool) -> list[str]:
    """Compare one case against golden.json; returns the mismatching digests."""
    csv_path = workdir / f"golden-{name}.csv" if with_csv else None
    try:
        actual = case_digests(pkg, name, csv_path)
    finally:
        if csv_path is not None:
            csv_path.unlink(missing_ok=True)
    return mismatches(load_golden()[name], actual)


def main() -> int:
    import tempfile
    from types import SimpleNamespace

    sys.path.insert(0, str(ROOT / "src"))
    from loadshed import scenario

    pkg = SimpleNamespace(scenario=scenario)
    out = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for name in CASES:
            out[name] = case_digests(pkg, name, Path(tmp) / "trace.csv")
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
