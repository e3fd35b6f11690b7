"""Fixed reference work that measures how fast the machine runs right now.

The benchmark's machine shares its cores: its speed changes by up to 2x in
phases of seconds to minutes, which no run of a few tens of seconds can
average out. So every timed piece of work sits between two runs of this
kernel, and the benchmark reports the piece's time as a ratio to the
kernel's. The kernel uses no code of the package, so a change to the package
moves the piece and not the kernel; a change of machine phase moves both.

The kernel mixes the two kinds of work the package does: scalar float math in
Python loops (the bisection and the power recursion) and small numpy calls
(the fading sampler and the sweeps).

Set-up is mostly a fresh interpreter's imports, whose speed follows file and
memory access more than arithmetic, so set-up has its own reference: a fresh
interpreter that imports a fixed set of standard-library modules.
"""
from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# A nominal kernel time, about the kernel's time in the usual phase of the
# 2-vCPU Xeon (2.1 GHz) the baseline was recorded on. Ratios are scaled by
# it, so that normalised figures read in seconds of that machine.
REF_S = 0.010

# the same for the import reference, in a fresh interpreter
IMPORT_REF_S = 0.075
_IMPORTS = "argparse, json, decimal, email.mime.multipart, http.client, xml.dom.minidom, logging.handlers, tarfile, unittest"
_IMPORT_CODE = f"import time; t = time.perf_counter(); import {_IMPORTS}; print(time.perf_counter() - t)"

_SCALAR_STEPS = 35000
_ARRAY_STEPS = 1250
_ARRAY = np.linspace(1.0, 2.0, 64)


def _kernel() -> float:
    acc, x = 0.0, 1.2345
    for _ in range(_SCALAR_STEPS):
        x = math.sqrt(x * x + 1.0) - 0.5 * x
        acc += math.log(x) if x > 1.0 else -x
    for i in range(_ARRAY_STEPS):
        acc += float(np.sort(_ARRAY * (1.0 + 1e-6 * i))[3]) + math.log1p(i)
    return acc


def reference_s() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def import_reference_s() -> float:
    """Time a fresh, isolated interpreter takes to import the fixed modules."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_CODE], capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout)


class PieceClock:
    """Records pieces of work, each between two runs of the kernel.

    `add(seconds)` takes the time of the piece just done and stores it as a
    ratio to the mean of the kernel runs before and after it."""

    def __init__(self):
        self.ratios: list[float] = []
        self._before = reference_s()

    def add(self, seconds: float) -> None:
        after = reference_s()
        self.ratios.append(2.0 * seconds / (self._before + after))
        self._before = after
