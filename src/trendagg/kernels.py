"""Kernel lookup.

The engine kernels live in ``trendagg._kernels_py``, the one
implementation. Engines and the benchmark find the kernel classes through
``get_backend`` and name them with ``backend_name``.
"""

from __future__ import annotations

from . import _kernels_py


def get_backend():
    return _kernels_py


def backend_name(module) -> str:
    return module.BACKEND_NAME
