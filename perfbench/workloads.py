"""The four workloads: the inputs each one makes from the workload seed, the
path one scenario takes through the package, and the check of its output.

Scenario seeds come from the range 0..99 that acceptance test 2 runs, so the
inputs are scenarios the package is known to solve.  The package receives
only the generated scenarios, never the workload seed.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from golden import ROOT

ACCEPTANCE_SEEDS = range(100)
# random-family seed whose fixed 45 000-round run ends with its cutoffs still
# moving (11 stable rounds), so the run honestly reports converged = false;
# acceptance test 2 does not cover the random family
UNSETTLED_RANDOM_SEEDS = frozenset({21})
SHIPPED_CONFIGS = (
    "configs/two_region_step_example.json",
    "configs/continuous_four_regions.json",
)


@dataclass(frozen=True)
class Item:
    label: str
    config: object  # loadshed.scenario.ScenarioConfig
    path: Path | None = None  # the file the CLI reads, for CLI workloads


def generate(pkg, family: str, seed: int, gen_times: list[float]):
    started = perf_counter()
    config = pkg.scenario.generate_scenario(4, 100, seed=seed, graph=family)
    gen_times.append(perf_counter() - started)
    return config


def oracle_threshold(pkg, config) -> float:
    loads = pkg.scenario.resolved_loads(config)
    ccf = pkg.criticality.build_ccf((l.power, l.criticality) for l in loads)
    return pkg.oracle.exact_z_star(ccf, config.deficit)


def run_verdict(pkg, item: Item, converged, threshold) -> str | None:
    """The failure conditions shared by every run: not converged, or a
    distributed threshold other than the oracle's."""
    if converged is not True:
        return f"{item.label}: converged is {converged!r}"
    expected = oracle_threshold(pkg, item.config)
    if threshold != expected:
        return f"{item.label}: distributed threshold {threshold!r} != oracle {expected!r}"
    return None


def cli_call(pkg, argv: list[str]) -> tuple[int, str]:
    """``loadshed <argv>`` in-process, with its stdout captured."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = pkg.cli.main(argv)
    return code, out.getvalue()


class Sweep:
    name = "sweep"
    why = (
        "acceptance-test-2 traffic: line and random-periodic scenarios on the fixed "
        "45 000-round horizon; the engine does ~95% of the work"
    )
    pool = 4  # scenarios per family
    golden = (("line-0", False), ("line-2", False),
              ("random-periodic-1", False), ("random-periodic-3", False))

    def setup(self, pkg, seed, workdir, gen_times):
        rng = random.Random(f"{self.name}:{seed}")
        # acceptance test 2 runs line on even seeds, random-periodic on odd ones
        line = rng.sample(ACCEPTANCE_SEEDS[0::2], self.pool)
        periodic = rng.sample(ACCEPTANCE_SEEDS[1::2], self.pool)
        items = []
        for a, b in zip(line, periodic):
            items.append(Item(f"line-{a}", generate(pkg, "line", a, gen_times)))
            items.append(Item(f"random-periodic-{b}", generate(pkg, "random-periodic", b, gen_times)))
        return items

    def execute(self, pkg, item):
        return pkg.scenario.run_scenario(item.config, record_trace=False)

    def verify(self, pkg, item, output):
        _, report = output
        return run_verdict(pkg, item, report.converged, report.distributed_z_star)


class RandomGraph(Sweep):
    name = "random-graph"
    why = (
        "random-family scenarios (window 2): per-round splitmix edge draws and window "
        "repair in netgraph do ~90% of the work and many graphs miss the mixing cache"
    )
    pool = 4
    golden = (("random-0", False),)

    def setup(self, pkg, seed, workdir, gen_times):
        rng = random.Random(f"{self.name}:{seed}")
        seeds = [s for s in ACCEPTANCE_SEEDS if s not in UNSETTLED_RANDOM_SEEDS]
        return [
            Item(f"random-{s}", generate(pkg, "random", s, gen_times))
            for s in rng.sample(seeds, self.pool)
        ]


class Export:
    name = "export"
    why = (
        "loadshed run --trace on line scenario files: parse, oracle, a recorded run "
        "and ~14 MB of CSV each; recording and emit_trace do ~80% of the work"
    )
    pool = 4
    golden = (("line-0", True),)

    def setup(self, pkg, seed, workdir, gen_times):
        rng = random.Random(f"{self.name}:{seed}")
        items = []
        for s in rng.sample(ACCEPTANCE_SEEDS, self.pool):
            config = generate(pkg, "line", s, gen_times)
            path = workdir / f"line-{s}.json"
            pkg.scenario.dump_scenario(config, path)
            items.append(Item(f"line-{s}", config, path))
        return items

    def execute(self, pkg, item):
        csv = item.path.with_suffix(".csv")
        code, text = cli_call(pkg, ["run", str(item.path), "--trace", str(csv)])
        return code, text, csv

    def verify(self, pkg, item, output):
        code, text, csv = output
        try:
            if code != 0:
                return f"{item.label}: exit code {code}"
            report = json.loads(text)
            error = run_verdict(pkg, item, report["converged"], report["distributed_z_star"])
            if error:
                return error
            rows = csv.read_bytes().count(b"\n")
            expected = 1 + report["rounds"] * len(item.config.regions)
            if rows != expected:
                return f"{item.label}: trace CSV has {rows} lines, expected {expected}"
            return None
        finally:
            csv.unlink(missing_ok=True)


class Check:
    name = "check"
    why = (
        "loadshed check and solve on both shipped configs and generated files: "
        "rootfind's assumption verifiers, parsing, validation and connectivity checks"
    )
    golden = (("config-two-region-step", True), ("config-continuous-four-regions", True))

    def setup(self, pkg, seed, workdir, gen_times):
        items = [
            Item(Path(rel).stem, pkg.scenario.load_scenario(ROOT / rel), ROOT / rel)
            for rel in SHIPPED_CONFIGS
        ]
        rng = random.Random(f"{self.name}:{seed}")
        for family in ("line", "random-periodic", "random"):
            s = rng.choice(ACCEPTANCE_SEEDS)
            config = generate(pkg, family, s, gen_times)
            path = workdir / f"{family}-{s}.json"
            pkg.scenario.dump_scenario(config, path)
            items.append(Item(f"{family}-{s}", config, path))
        return items

    def execute(self, pkg, item):
        return cli_call(pkg, ["check", str(item.path)]), cli_call(pkg, ["solve", str(item.path)])

    def verify(self, pkg, item, output):
        (check_code, certificate), (solve_code, text) = output
        if check_code != 0:
            failing = [line for line in certificate.splitlines() if "FAIL" in line]
            return f"{item.label}: check exit code {check_code} {failing}"
        if solve_code != 0:
            return f"{item.label}: solve exit code {solve_code}"
        solution = json.loads(text)
        config = item.config
        if config.mode == "continuous":
            regions = [(r.capacity, float(r.criticality)) for r in config.continuous_regions]
            expected = pkg.oracle.continuous_solution(regions, config.deficit)
            if (solution["z_tilde"], solution["per_region_shed"]) != (
                expected.z_tilde, list(expected.per_region_shed)
            ):
                return f"{item.label}: solve gave {solution}, closed form {expected}"
            return None
        expected = oracle_threshold(pkg, config)
        if solution["z_star"] != expected:
            return f"{item.label}: solve z_star {solution['z_star']!r} != oracle {expected!r}"
        return None


WORKLOADS = {w.name: w for w in (Sweep(), Export(), RandomGraph(), Check())}
