"""Infinite-order kernel neural operator library.

Kronecker-structured resolvent operators on a latent grid, a learnable
multi-scale product kernel, a desk-scale operator network with analytic
gradients, synthetic PDE datasets with independent oracles, and a CLI
benchmark/verification harness.
"""

import ctypes
import os

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1  # mallopt parameters, from glibc's <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_working_set_mapped() -> None:
    """Fix glibc's mmap and trim thresholds so freed arrays stay mapped.

    A training step or forward pass allocates and frees tens of MB of
    arrays. With glibc's default dynamic thresholds those are mapped,
    unmapped and trimmed again on every op, and each re-mapped page costs a
    minor fault. Arrays above 32 MiB are still mmapped and returned to the
    OS when freed; a free heap top under 256 MiB is kept for reuse.

    A threshold the user set through glibc's own environment variables wins,
    and where there is no ``mallopt`` (musl, macOS, Windows) this does
    nothing.
    """
    if {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & os.environ.keys():
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol or no C library
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_working_set_mapped()
