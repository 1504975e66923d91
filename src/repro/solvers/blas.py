"""One BLAS thread per process, whatever the host.

numpy and scipy wheels each bundle their own OpenBLAS: numpy links
``scipy-openblas64`` (symbols suffixed ``64_``), scipy links the
32-bit-integer ``scipy-openblas`` that LAPACK calls such as the
barrier's ``potrf`` factorizations go through.  OpenBLAS starts one
thread per CPU.  Its threaded kernels split sums differently from the
single-threaded ones, so decisions would change bitwise with the
core count (and on this library's problem sizes threads only add
synchronization: slots run many times slower).

Importing :mod:`repro.solvers` calls :func:`pin_threads`, which sets
both libraries to one thread through their own ``set_num_threads``
entry points, reached with ctypes through the extension modules that
link them.  A BLAS build without these symbols is left as it is.
:func:`blas_info` reports what is in effect; serve events and
checkpoints record it.
"""

from __future__ import annotations

import ctypes
import importlib

#: (label, extension module that links the library, symbol suffix).
_LIBRARIES = (
    ("numpy", "numpy._core._multiarray_umath", "64_"),
    ("scipy", "scipy.linalg._flapack", ""),
)

#: label -> (get_num_threads, config string) of each pinned library.
_PINNED: "dict[str, tuple]" = {}


def _openblas(module: str, suffix: str):
    """``(set, get, config)`` of the OpenBLAS ``module`` links, or ``None``."""
    try:
        lib = ctypes.CDLL(importlib.import_module(module).__file__)
        set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
        get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
    except (ImportError, OSError, AttributeError, TypeError):
        return None
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    return set_threads, get_threads, get_config().decode("ascii", "replace")


def pin_threads() -> None:
    """Set every bundled OpenBLAS found to one thread."""
    for label, module, suffix in _LIBRARIES:
        found = _openblas(module, suffix)
        if found is None:
            continue
        set_threads, get_threads, config = found
        set_threads(1)
        _PINNED[label] = (get_threads, config)


def blas_info() -> dict:
    """``{label: {"config", "threads"}}`` of each library; ``{}`` if none."""
    return {
        label: {"config": config, "threads": int(get_threads())}
        for label, (get_threads, config) in _PINNED.items()
    }
