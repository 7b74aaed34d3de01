"""Every package name the benchmark tracer patches still exists, and a
traced CLI run prints what an untraced one prints.

``perfbench/bench_trace.py`` wraps package functions by name.  A rename
or deletion there would only surface when the benchmark runs; these tests
read the tracer's tables, resolve each name in the package, and run the
CLI in process with the tracer installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conftest import fixture_path
from tropical_transient import _kernels, cli

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


@pytest.mark.parametrize("argv", [("check", "FAMILY", "SEQ44", "--lemmas"),
                                  ("bound", "FAMILY", "SEQ44")])
def test_traced_cli_output_is_byte_identical(argv, capsys):
    paths = {"FAMILY": fixture_path("five_node_family.json"),
             "SEQ44": fixture_path("product_len44.json")}
    argv = [paths.get(a, a) for a in argv]
    code = cli.main(argv)
    plain = capsys.readouterr().out
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        patched = list(tracer._undo)
        traced_code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert (traced_code, capsys.readouterr().out) == (code, plain)
    assert {name for name, *_ in tracer.spans} >= {"cli.main", "kernels.sweep"}
    assert patched and tracer._undo == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    assert _kernels.ACTIVE is _kernels.NUMPY_BACKEND
