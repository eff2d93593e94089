"""The traced benchmark (perfbench/) wraps public names of the package from
outside; this guard fails when one of them is renamed or deleted."""

from __future__ import annotations

import re
import sys
from pathlib import Path
from types import SimpleNamespace

from loadshed import cli, criticality, netgraph, oracle, protocol, rootfind, scenario, seeding

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layers import LayerHooks  # noqa: E402
from tracer import Tracer  # noqa: E402

PKG = SimpleNamespace(cli=cli, criticality=criticality, netgraph=netgraph, oracle=oracle,
                      protocol=protocol, rootfind=rootfind, scenario=scenario, seeding=seeding)


def test_layer_hooks_install_and_uninstall():
    before = {
        (owner, attr): owner.__dict__[attr]
        for owner in (*(vars(PKG).values()), netgraph.StaticSchedule,
                      netgraph.PeriodicSchedule, netgraph.RandomSchedule)
        for attr in list(vars(owner))
        if callable(owner.__dict__[attr])
    }
    tracer = Tracer()
    try:
        LayerHooks().install(tracer, PKG)
        for owner, attr in (
            (cli, "run_protocol"), (cli, "check_window_connectivity"), (cli, "eval_surrogate"),
            (cli, "main"), (scenario, "run_protocol"), (scenario, "certificate_digest"),
            (scenario, "mix64"), (netgraph, "mix64"), (seeding, "mix64"),
            (netgraph.StaticSchedule, "edges_at"), (netgraph.PeriodicSchedule, "edges_at"),
            (netgraph.RandomSchedule, "edges_at"),
        ):
            assert owner.__dict__[attr] is not before[owner, attr], (owner, attr)
    finally:
        tracer.uninstall()
    for (owner, attr), value in before.items():
        assert owner.__dict__[attr] is value, (owner, attr)


def test_names_perfbench_calls_exist():
    # perfbench calls the package as pkg.<module>.<name>; a deleted name
    # would only show when the benchmark runs
    sources = (Path(__file__).resolve().parent.parent / "perfbench").glob("*.py")
    calls = {
        match for path in sources
        for match in re.findall(r"\bpkg\.(\w+)\.(\w+)", path.read_text(encoding="utf-8"))
    }
    assert calls
    missing = [f"{module}.{name}" for module, name in sorted(calls)
               if not hasattr(getattr(PKG, module), name)]
    assert not missing
