"""What a result was measured on, and control of the BLAS thread count."""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import platform
import sys
from pathlib import Path

import numpy as np


class Blas:
    """OpenBLAS's thread-count calls, when the loaded BLAS exposes them."""

    _NAMES = (("scipy_openblas_", "64_"), ("openblas_", ""), ("openblas_", "64_"))

    def __init__(self):
        self._get = self._set = None
        libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
        candidates = sorted(str(p) for p in libdir.glob("*openblas*.so*"))
        system = ctypes.util.find_library("openblas")
        if system:
            candidates.append(system)
        for path in candidates:
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for prefix, suffix in self._NAMES:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    self._get, self._set = get, put
                    return

    @property
    def available(self) -> bool:
        return self._get is not None

    def threads(self) -> int | None:
        return self._get() if self._get is not None else None

    def set_threads(self, n: int) -> None:
        if self._set is None:
            raise RuntimeError("the loaded BLAS exposes no thread-count call")
        self._set(n)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_build() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": deps.get("name"), "version": deps.get("version")}


def environment(blas: Blas) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    build = _blas_build()
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": build.get("name"),
        "blas_version": build.get("version"),
        "blas_threads": blas.threads(),
        "nproc": nproc,
        "cpu": _cpu_model(),
    }
