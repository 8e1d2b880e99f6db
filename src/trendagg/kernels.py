"""Kernel lookup for the benchmark.

The engine kernels live in ``trendagg._kernels_py``, the one
implementation, and the engines import them from there. Only the benchmark
(``e2ebench/``) still finds them through ``get_backend`` and names them
with ``backend_name``.
"""

from __future__ import annotations

from . import _kernels_py


def get_backend():
    return _kernels_py


def backend_name(module) -> str:
    return module.BACKEND_NAME
