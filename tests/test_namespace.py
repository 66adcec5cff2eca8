"""The lazy package namespace serves every name the eager one exported,
as the same object, and loads a module only when one of its names is
first used."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys

import pytest

import socialgraph
from conftest import child_env
from reference import EAGER_EXPORTS, EAGER_SUBMODULES

EXPORTED = [(module, name) for module, names in EAGER_EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_exported_name_is_the_defining_modules_object(module, name):
    namespace: dict = {}
    exec(f"from socialgraph import {name}", namespace)
    defining = importlib.import_module(f"socialgraph.{module}")
    assert namespace[name] is getattr(defining, name)
    assert getattr(socialgraph, name) is getattr(defining, name)


@pytest.mark.parametrize("module", EAGER_SUBMODULES)
def test_submodule_is_an_attribute(module):
    assert getattr(socialgraph, module) is importlib.import_module(f"socialgraph.{module}")


def test_star_import_gives_the_eager_public_names():
    namespace: dict = {}
    exec("from socialgraph import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {*EAGER_SUBMODULES, *(name for _, name in EXPORTED)}
    for module, name in EXPORTED:
        assert namespace[name] is getattr(importlib.import_module(f"socialgraph.{module}"), name)


def test_dir_lists_every_name_before_it_is_loaded():
    assert {*EAGER_SUBMODULES, *(name for _, name in EXPORTED), "__version__"} <= set(dir(socialgraph))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        socialgraph.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from socialgraph import no_such_name", {})


_CHILD = """
import json, sys
import socialgraph
loaded = lambda: sorted(m for m in sys.modules if m.startswith("socialgraph."))
steps = [loaded()]
from socialgraph import jaccard
steps.append(loaded())
socialgraph.topk_query
steps.append(loaded())
print(json.dumps(steps))
"""


def test_a_module_loads_on_first_use_of_one_of_its_names():
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    bare, after_jaccard, after_topk = json.loads(out)
    assert bare == []
    assert after_jaccard == ["socialgraph.aggfn", "socialgraph.errors"]
    assert after_topk == [*after_jaccard, "socialgraph.index"]


def test_a_name_follows_its_defining_modules_binding(monkeypatch):
    """The namespace reads a name from its module on every access, so a
    rebinding there (a monkeypatch, a tracer's wrapper) and its undo are
    both seen, also after the name was first read."""
    original = socialgraph.compose
    stand_in = object()
    with monkeypatch.context() as patch:
        patch.setattr(socialgraph.algebra, "compose", stand_in)
        assert socialgraph.compose is stand_in
    assert socialgraph.compose is original is socialgraph.algebra.compose
