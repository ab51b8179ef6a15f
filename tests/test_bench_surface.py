"""The program surface that ``bench/`` reaches into stays in place.

``bench/tracing.py`` wraps functions by (module, attribute) and methods by
class, reads ``moi_eval``'s and ``eigen_tuple_density``'s arguments by
position, and patches every import site that holds a traced function.
The file is loaded from its path, as ``tests/test_range.py`` loads
``bench/oracles.py``, so the spans checked here are the bench's own.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from opshift import approx, cli, cov, functions, moi, ssf

_spec = importlib.util.spec_from_file_location("tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("name", sorted(tracing.FUNCTION_SPANS))
def test_function_span_resolves(name):
    module, attr, _ = tracing.FUNCTION_SPANS[name]
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("name", sorted(tracing.METHOD_SPANS))
def test_method_span_resolves(name):
    cls, attr = tracing.METHOD_SPANS[name]
    assert callable(cls.__dict__.get(attr)), f"{cls.__name__}.{attr}"


@pytest.mark.parametrize(
    "fn, params",
    [
        (moi.moi_eval, ["symbol", "optuple"]),
        (cov.eigen_tuple_density, ["U0", "Us", "Hs"]),
        (cli.run, ["command", "cfg", "out_dir"]),
    ],
)
def test_positional_signatures(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_import_sites_hold_one_object():
    assert approx.taylor_remainder is cli.taylor_remainder is moi.taylor_remainder
    assert moi.divided_difference is cov.divided_difference is functions.divided_difference
    assert ssf.moi_eval is moi.moi_eval
    assert approx.ssf_compute is ssf.ssf_compute


def test_kernel_cache_and_config_loader():
    assert callable(functions._bspline_kernel.cache_info)
    assert cli.ExperimentConfig.load(None, 7).seed == 7


def test_main_accepts_threads(tmp_path):
    assert cli.main(["ssf", "--threads", "2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "report.json").is_file()
