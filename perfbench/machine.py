"""The machine record stored with every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

# BLAS threads are pinned before numpy loads: one caller, one thread, which
# keeps the count at or below nproc and the timings free of thread jitter.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"


def pin_blas_threads():
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, BLAS_THREADS)


def _first_line(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record(root: Path, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    threads = {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS}
    nproc = os.cpu_count() or 0
    return {
        "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else nproc,
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "git_commit": git_commit(root),
        "workload": workload,
        "seed": seed,
    }
