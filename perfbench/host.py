"""The host record written into every result file.

Timings on a shared machine drift (the same command was seen 35-40% slower
minutes apart), so each result carries the load average before and after,
a measured copy bandwidth and the time of a fixed reference kernel. Compare
those before reading a change in the other figures as a change in the code.
"""

import os
import platform
import statistics
import time
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str:
    """Size of the highest cache level, as the kernel reports it."""
    best = (0, "unknown")
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def _blas(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        return {"name": "unknown", "version": None}


def copy_gbps(np, mb: int = 32, repeats: int = 7) -> float:
    """Median bandwidth of an array copy, counting bytes read plus written."""
    src = np.ones(mb * (1 << 20) // 8)
    dst = np.empty_like(src)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def calib_ms(np, repeats: int = 7) -> float:
    """Median time of a fixed kernel mixing interpreter work and small BLAS calls."""
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((256, 256))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 0.5
        a = a0
        for _ in range(40):
            a = np.tanh(a @ a.T / 256.0)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def record(blas_threads: str) -> dict:
    import numpy as np  # noqa: PLC0415  (after the caller fixed the BLAS thread env)

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": blas_threads,
        "cpu_model": _cpu_model(),
        "llc": _llc(),
        "copy_gbps": copy_gbps(np),
        "calib_ms": calib_ms(np),
    }
