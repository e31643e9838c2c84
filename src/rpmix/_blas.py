"""One OpenBLAS thread for the length of a scope.

The experiments factor and invert small matrices (at most a few thousand rows
by a few hundred columns). On such sizes OpenBLAS's extra threads cost more in
hand-off than they save, so experiment bodies and CLI commands run inside
`single_blas_thread()`, which sets every OpenBLAS the process has loaded to
one thread and restores each library's previous count on exit.

numpy and scipy each bundle their own OpenBLAS, and EM uses both (scipy's
for `cholesky`, `dtrtri` and `dlauum`, numpy's for matmul and `eigvalsh`),
so each mapped copy is set. The copies are found on first use
from `/proc/self/maps`; rpmix imports numpy and scipy.linalg at import time,
so both are mapped by then. Where none is found (another BLAS, or no `/proc`),
the scope changes nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

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


@functools.cache
def openblas_controls():
    """(get_num_threads, set_num_threads) for each mapped OpenBLAS."""
    controls = []
    for path in _mapped_openblas_paths():
        lib = ctypes.CDLL(path)
        get, set_ = _symbol(lib, "get_num_threads"), _symbol(lib, "set_num_threads")
        if get is None or set_ is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return tuple(controls)


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
