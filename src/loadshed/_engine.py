"""The compiled kernels of the round engine, of the random schedules'
graphs, of the trace CSV's rows, of ``check``'s deficit-tracking error
(``deviation``, which sums a row that repeats only once) and of a CCF's
exact prefix sums (``prefix_sums``): ``_engine.c``, built on first import.

The source is compiled with the C compiler this Python was built with
(``sysconfig``'s ``CC``) into ``__pycache__/_engine-<digest>.so`` beside
it, where the digest is the SHA-256 of the source and the compile command.
A process compiles to a name of its own and renames the result into
place, so concurrent first imports leave one artifact; it then removes the
artifacts of other digests, which no import of this source reads.  Later
imports hash the source and load the artifact with ctypes.  A missing
compiler or an unwritable directory is an ``ImportError`` that names it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
from pathlib import Path

SOURCE = Path(__file__).with_name("_engine.c")
# no FMA contraction: the kernels must round as Python's float arithmetic does
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _compiler() -> list[str]:
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        raise ImportError("loadshed's engine needs a C compiler, and this Python names none "
                          "(sysconfig CC)")
    return cc


def _build(directory: Path) -> Path:
    """The compiled kernels in ``directory``, compiled there first if absent."""
    command = [*_compiler(), *FLAGS]
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source + "\0".join(command).encode()).hexdigest()
    target = directory / f"_engine-{digest}.so"
    if target.exists():
        return target
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ImportError(f"cannot build loadshed's engine in {directory}: {exc}") from exc
    partial = directory / f"_engine-{digest}.{os.getpid()}.tmp"
    try:
        try:
            done = subprocess.run([*command, "-o", str(partial), str(SOURCE), "-lm"],
                                  capture_output=True, text=True, check=False)
        except FileNotFoundError as exc:
            raise ImportError(f"loadshed's engine needs the C compiler {command[0]!r}, "
                              "which was not found") from exc
        if done.returncode:
            raise ImportError(f"compiling {SOURCE} into {directory} with {command[0]} "
                              f"failed:\n{done.stderr}")
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)
    for stale in directory.glob("_engine-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


_lib = ctypes.CDLL(str(_build(SOURCE.parent / "__pycache__")))
_i64, _u64, _f64, _ptr = ctypes.c_int64, ctypes.c_uint64, ctypes.c_double, ctypes.c_void_p

# The kernels take plain addresses: ndpointer's checks cost more per call
# than a scalar surrogate or a short chunk does, and every caller makes or
# owns the C-ordered arrays it passes, of the dtypes the signatures name.
surrogate = _lib.surrogate
surrogate.argtypes = [_i64, _ptr, _ptr, _i64, _ptr, _f64, _ptr]
surrogate.restype = None
rounds = _lib.rounds
rounds.argtypes = [_i64, _i64, _i64, _f64, _f64, _f64, _ptr, _i64, _ptr, _ptr, _ptr, _ptr, _ptr,
                   _f64, _i64, ctypes.POINTER(_i64), _ptr, _ptr]
rounds.restype = _i64
components = _lib.components
components.argtypes = [_i64, _i64, _i64, _ptr, _ptr]
components.restype = None
# c_uint64 arguments wrap modulo 2**64, as seeding.mix64 reduces its parts
draw_repaired = _lib.draw_repaired
draw_repaired.argtypes = [_u64, _u64, _u64, _i64, _f64, _u64, _i64, _i64, _i64, _ptr, _ptr]
draw_repaired.restype = _i64
trace_rows = _lib.trace_rows
trace_rows.argtypes = [_i64, _i64, _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr]
trace_rows.restype = _i64
deviation = _lib.deviation
deviation.argtypes = [_i64, _i64, _i64, _f64, _f64, _f64, _ptr, _i64, _f64, _ptr]
deviation.restype = None
prefix_sums = _lib.prefix_sums
prefix_sums.argtypes = [_i64, _ptr, _ptr, _ptr, _ptr]
prefix_sums.restype = _i64
