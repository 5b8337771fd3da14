"""Ask or set the thread count of the OpenBLAS that NumPy loaded."""

from __future__ import annotations

import ctypes
from typing import Optional

_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _function(name: str):
    """``<prefix><name><suffix>`` from the loaded OpenBLAS, or ``None``."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for prefix in _PREFIXES:
            for suffix in _SUFFIXES:
                fn = getattr(handle, prefix + name + suffix, None)
                if fn is not None:
                    return fn
    return None


def threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, if it can be asked."""
    fn = _function("get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    return int(fn())


def set_threads(n: int) -> bool:
    """Set the loaded OpenBLAS's thread count; ``False`` if it cannot be
    set.  Processes forked afterwards inherit the setting."""
    fn = _function("set_num_threads")
    if fn is None:
        return False
    fn(ctypes.c_int(n))
    return True
