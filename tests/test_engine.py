"""The compiled round engine (loadshed/_engine.c): its chunk kernel against
the scalar composition in conftest, bit for bit, and the build that loads
it."""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loadshed
from loadshed import _engine
from loadshed.criticality import SurrogateCcf, build_ccf, min_gap
from loadshed.netgraph import RandomSchedule, mixing_block
from loadshed.protocol import StepSchedule

from conftest import block_rows, dmc_rounds, local_zeta, protocol_rounds, row_neighbors, x_rounds

PACKAGE = Path(loadshed.__file__).resolve().parent
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0]
EXPONENTS = [0.51, 0.6, 0.75, 0.9, 1.0]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).ravel().tolist()


def floats(draw, shape, low=-2.0, high=2.0, special=()) -> np.ndarray:
    """float64 values of ``shape``: NaN, +-inf, +-0.0 and ``special`` among
    ordinary ones."""
    count = int(np.prod(shape))
    value = st.sampled_from([*SPECIAL, *special]) | st.floats(low, high)
    return np.array(draw(st.lists(value, min_size=count, max_size=count)),
                    dtype=np.float64).reshape(shape)


@st.composite
def chunks(draw):
    """A chunk of rounds: regions sharing one ramp width, the rounds'
    graphs read from a random schedule (a chunk may start inside a window,
    and sparse graphs leave nodes isolated), a step schedule, the state
    and streak carried in, and a convergence window (None: never)."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    ccfs = []
    for _ in range(n):
        crits = draw(st.lists(st.integers(0, 40), max_size=5, unique=True))
        ccfs.append(build_ccf([(draw(st.floats(0.01, 5.0)), k / 40) for k in crits]))
    gaps = [min_gap(c.breakpoints) for c in ccfs if len(c.breakpoints) > 1]
    ramp = min(gaps, default=1.0) * draw(st.sampled_from([1.0, 0.5, 1e-3]))
    t0 = draw(st.integers(1, 50_000))
    schedule = RandomSchedule(n, draw(st.sampled_from([0.0, 0.2, 1.0])),
                              draw(st.integers(1, 4)), draw(st.integers(0, 2**32)))
    step = StepSchedule(draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 100.0)),
                        draw(st.sampled_from(EXPONENTS)))
    alpha = draw(st.lists(st.sampled_from([0.5, ramp / 2.0, 0.0, -0.0]), min_size=n, max_size=n))
    # estimates at, just off and a ramp below the breakpoints
    breakpoints = [b for ccf in ccfs for b in ccf.breakpoints]
    edges = breakpoints + [v for b in breakpoints for v in (
        b - ramp, math.nextafter(b, -math.inf), math.nextafter(b - ramp, math.inf))]
    return Chunk([SurrogateCcf(ccf, ramp) for ccf in ccfs],
                 schedule.edges_between(t0, t0 + m), t0, step,
                 x=floats(draw, (n,), special=edges), P=floats(draw, (m, n), -5.0, 5.0),
                 zeta=floats(draw, (n,), special=breakpoints), z=floats(draw, (n,)),
                 alpha=np.array(alpha), streak=draw(st.integers(0, 12)),
                 window=draw(st.none() | st.integers(0, 12)))


class Chunk(NamedTuple):
    surrogates: list[SurrogateCcf]
    rows: np.ndarray
    t0: int
    step: StepSchedule
    x: np.ndarray
    P: np.ndarray
    zeta: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    streak: int
    window: int | None


# n = 1, m = 1: one isolated node over one round
ONE_NODE = Chunk([SurrogateCcf(build_ccf([(2.0, 0.5)]), 0.1)], np.zeros((1, 0), dtype=bool),
                 1, StepSchedule(), x=np.zeros(1), P=np.full((1, 1), 2.0),
                 zeta=np.full(1, math.inf), z=np.full(1, math.inf), alpha=np.full(1, 0.05),
                 streak=0, window=None)
# the estimate stays on the breakpoint 0.0 (its surrogate equals its
# deficit estimate), so the cutoff goes from -0.0 to 0.0, which is no
# change: the carried streak of 3 grows to the window 4 and stops the chunk
# after a round
SIGNED_ZERO = Chunk([SurrogateCcf(build_ccf([(1.0, 0.0), (1.0, 0.5)]), 0.25)],
                    np.zeros((3, 0), dtype=bool), 7, StepSchedule(), x=np.zeros(1),
                    P=np.ones((3, 1)), zeta=np.full(1, -0.0), z=np.full(1, 0.0),
                    alpha=np.full(1, 0.125), streak=3, window=4)


def run_kernel(case: Chunk):
    """``_engine.rounds`` over the chunk: rounds run, etas, state rows, streak."""
    (m, n), step, surrogates = case.P.shape, case.step, case.surrogates
    graph, indptr, col, weight = mixing_block(case.rows, n)
    bstart = np.cumsum([0, *(len(s._bps) for s in surrogates)], dtype=np.int64)
    bps = np.concatenate([s._bps for s in surrogates])
    cum = np.concatenate([s._cum for s in surrogates])
    P = np.ascontiguousarray(case.P)
    state, etas = np.empty((4, m + 1, n)), np.empty(m)
    state[:, 0] = (case.x, case.zeta, case.z, case.alpha)
    streak = ctypes.c_int64(case.streak)
    window = np.iinfo(np.int64).max if case.window is None else case.window
    ran = _engine.rounds(n, m, case.t0, step.gain, step.offset, step.exponent, graph.ctypes.data,
                         indptr.ctypes.data, col.ctypes.data, weight.ctypes.data, P.ctypes.data,
                         bstart.ctypes.data, bps.ctypes.data, cum.ctypes.data,
                         surrogates[0].ramp_width, window, ctypes.byref(streak),
                         etas.ctypes.data, state.ctypes.data)
    return ran, etas[:ran], state[:, 1:ran + 1], streak.value


class TestKernelsMatchReferences:
    @settings(max_examples=300, deadline=None)
    @given(chunks())
    @example(ONE_NODE)
    def test_x_rounds(self, case):
        (m, n), step = case.P.shape, case.step
        ran, etas, state, _ = run_kernel(case._replace(window=None))
        assert ran == m
        expected_etas = [step.eta(t) for t in range(case.t0, case.t0 + m)]
        assert bits(etas) == bits(expected_etas)
        expected = x_rounds(case.x.tolist(), block_rows(case.rows, n), expected_etas,
                            case.P.tolist(), case.surrogates)
        assert bits(state[0]) == bits(expected)

    @settings(max_examples=300, deadline=None)
    @given(chunks())
    @example(ONE_NODE)
    @example(SIGNED_ZERO)
    def test_dmc_rounds(self, case):
        (m, n), ramp = case.P.shape, case.surrogates[0].ramp_width
        ran, _, state, _ = run_kernel(case._replace(window=None))
        assert ran == m
        X, zeta_rows = state[0].tolist(), state[1].tolist()
        crits = [s.base.breakpoints for s in case.surrogates]
        assert bits(zeta_rows) == bits([[local_zeta(c, v) for c, v in zip(crits, x)] for x in X])
        neighbors = [row_neighbors(w_rows) for w_rows in block_rows(case.rows, n)]
        z_rows, alpha_rows = dmc_rounds(case.z.tolist(), case.alpha.tolist(), zeta_rows,
                                        neighbors, ramp)
        assert bits(state[2]) == bits(z_rows)
        assert bits(state[3]) == bits(alpha_rows)

    @settings(max_examples=400, deadline=None)
    @given(chunks())
    @example(ONE_NODE)
    @example(SIGNED_ZERO)
    def test_rounds(self, case):
        m, n = case.P.shape
        ran, etas, state, streak = run_kernel(case)
        expected_etas = [case.step.eta(t) for t in range(case.t0, case.t0 + m)]
        start = tuple(v.tolist() for v in (case.x, case.zeta, case.z, case.alpha))
        rows, expected_streak = protocol_rounds(
            start, case.streak, case.window, block_rows(case.rows, n), expected_etas,
            case.P.tolist(), case.surrogates)
        assert ran == len(rows)
        assert streak == expected_streak
        assert bits(etas) == bits(expected_etas[:ran])
        for k in range(4):  # estimates, cutoffs, min-consensus values, steps
            assert bits(state[k]) == bits([row[k] for row in rows])

    def test_signed_zero_cutoff_keeps_the_streak(self):
        ran, _, state, streak = run_kernel(SIGNED_ZERO)
        assert (ran, streak) == (1, 4)
        assert bits(state[:2]) == bits([[0.0], [0.0]])  # estimate and cutoff


class TestBuild:
    def test_concurrent_builds_leave_one_artifact(self, tmp_path):
        code = ("import ctypes, sys; from pathlib import Path; from loadshed import _engine; "
                "ctypes.CDLL(str(_engine._build(Path(sys.argv[1]))))")
        env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
        procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env)
                 for _ in range(2)]
        assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
        (artifact,) = tmp_path.iterdir()
        assert artifact.name.startswith("_engine-") and artifact.suffix == ".so"

    def test_missing_compiler_fails_the_import(self, tmp_path):
        compiler = _engine._compiler()[0]
        if os.path.isabs(compiler):
            pytest.skip(f"the compiler {compiler} is found without PATH")
        shutil.copytree(PACKAGE, tmp_path / "loadshed",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "-B", "-c", "import loadshed"],
                              env={"PATH": "", "PYTHONPATH": str(tmp_path)},
                              capture_output=True, text=True, timeout=120, check=False)
        assert done.returncode == 1
        assert "ImportError" in done.stderr and repr(compiler) in done.stderr
        assert not list((tmp_path / "loadshed" / "__pycache__").iterdir())

    def test_unwritable_directory_fails_the_import(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(ImportError, match="cannot build loadshed's engine in"):
            _engine._build(tmp_path / "file" / "cache")

    def test_command_keeps_float_contraction_off(self, tmp_path, monkeypatch):
        commands = []
        run = subprocess.run

        def recorded(command, **kwargs):
            commands.append(command)
            return run(command, **kwargs)

        monkeypatch.setattr(_engine.subprocess, "run", recorded)
        _engine._build(tmp_path)
        (command,) = commands
        assert "-ffp-contract=off" in command
        assert not [flag for flag in command if flag.startswith(("-ffast-math", "-march"))]
