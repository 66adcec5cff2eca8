"""The benchmark's tracer wraps package functions by (module, name); a
rename would otherwise only fail inside a traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from socialgraph.index import SocialSets

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans_module()


@pytest.mark.parametrize(
    "layer, name", [*SPANS.SPANNED, *SPANS.COUNTED], ids=lambda v: v if isinstance(v, str) else None
)
def test_traced_function_is_defined_in_its_module(layer, name):
    module = importlib.import_module(f"socialgraph.{layer}")
    fn = getattr(module, name, None)
    assert inspect.isfunction(fn), f"socialgraph.{layer}.{name}"
    assert fn.__module__ == module.__name__


def test_counted_method_exists():
    assert inspect.isfunction(SocialSets.all_taggers)
