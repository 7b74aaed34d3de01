"""Every package name the benchmark tracer patches still exists.

``perfbench/bench_trace.py`` wraps package functions by name.  A rename
or deletion there would only surface when the benchmark runs; this test
reads the tracer's tables and resolves each name in the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tropical_transient import _kernels

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_trace = load_bench_trace()


@pytest.mark.parametrize("mod_name, attr, span", bench_trace.SPANS)
def test_span_targets_resolve(mod_name, attr, span):
    module = importlib.import_module(f"{bench_trace.PACKAGE}.{mod_name}")
    if "." in attr:
        cls_name, member = attr.split(".")
        assert member in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_kernel_backend_names_resolve():
    assert isinstance(_kernels.ACTIVE, _kernels.Backend)
    assert isinstance(_kernels.NUMPY_BACKEND, _kernels.Backend)
    assert _kernels.NUMBA_BACKEND is None or isinstance(_kernels.NUMBA_BACKEND, _kernels.Backend)
    for field in ("matmul", "fold") + bench_trace.SWEEPS:
        assert field in _kernels.Backend._fields
        assert callable(getattr(_kernels.ACTIVE, field))


def test_matmul_counter_target_resolves():
    from tropical_transient.matrix import TropicalMatrix

    assert "__matmul__" in vars(TropicalMatrix)
