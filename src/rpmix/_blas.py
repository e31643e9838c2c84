"""One OpenBLAS thread for the length of a scope.

The experiments factor and invert small matrices (at most a few thousand rows
by a few hundred columns), where OpenBLAS's extra threads cost more in hand-off
than they save. So every sweep's trials (entered in `experiments._run_trials`)
and every CLI command run inside `single_blas_thread()`, which sets every
OpenBLAS the process has loaded to one thread and restores each count on exit.

numpy and scipy each bundle their own OpenBLAS, and EM uses both (scipy's
for `cholesky`, `dtrtri` and `dlauum`, numpy's for matmul and `eigvalsh`),
so each mapped copy is set. The copies are found on first use
from `/proc/self/maps`; rpmix imports numpy and scipy.linalg at import time,
so both are mapped by then. Where none is found (another BLAS, or no `/proc`),
the scope changes nothing.

`environment()` records the setting that a run's numbers were measured in:
these thread counts among them, and the kernel each copy picked for the CPU.
Reports replay byte for byte on one kernel: another kernel may round a
product differently.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
from contextlib import contextmanager

import numpy
import scipy

# OpenBLAS symbol (prefix, suffix) pairs: numpy's and scipy's wheels rename them.
BLAS_SYMBOLS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))


def _mapped_openblas_paths():
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as f:
            lines = f.read().splitlines()
    except OSError:
        return []
    paths = set()
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]):
            paths.add(fields[5])
    return sorted(paths)


def _symbol(lib, name):
    for prefix, suffix in BLAS_SYMBOLS:
        fn = getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
        if fn is not None:
            return fn
    return None


def _libraries():
    """A handle on each mapped OpenBLAS."""
    return [ctypes.CDLL(path) for path in _mapped_openblas_paths()]


@functools.cache
def openblas_controls():
    """(get_num_threads, set_num_threads) for each mapped OpenBLAS."""
    controls = []
    for lib in _libraries():
        get, set_ = _symbol(lib, "get_num_threads"), _symbol(lib, "set_num_threads")
        if get is None or set_ is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return tuple(controls)


def openblas_kernels():
    """The kernel name (`openblas_get_corename`) of each mapped OpenBLAS: the
    one its `DYNAMIC_ARCH` build picked for this CPU, or `OPENBLAS_CORETYPE`
    forced."""
    names = []
    for lib in _libraries():
        corename = _symbol(lib, "get_corename")
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            names.append(corename().decode())
    return names


@contextmanager
def single_blas_thread():
    """Run the body on one OpenBLAS thread; restore the previous counts after.

    Usable as a decorator (`@single_blas_thread()`). Scopes nest: each exit
    restores the counts its own entry saw.

    A library already on one thread is left alone. OpenBLAS stops its
    threads at `fork`, and its next `set_num_threads`, whatever the count,
    starts them again; they then spin for about 0.1 s of CPU before they
    sleep. A pool worker forked inside a scope inherits one thread, so a
    scope it enters makes no call and starts no thread to compete with the
    trials.
    """
    changed = []
    for get, set_ in openblas_controls():
        count = get()
        if count != 1:
            set_(1)
            changed.append((set_, count))
    try:
        yield
    finally:
        for set_, count in changed:
            set_(count)


def environment():
    """What a run's numbers may depend on besides the code: the Python, numpy
    and scipy versions, the cores in this process's affinity mask, and the
    thread count and kernel of each mapped OpenBLAS. Read it outside any
    `single_blas_thread()` scope, which sets every count to one."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "openblas_threads": [get() for get, _ in openblas_controls()],
        "openblas_kernels": openblas_kernels(),
    }
