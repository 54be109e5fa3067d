"""Every package's lazy public API, and the lazily resolved strategy
registry.

Each package ``__init__`` names its exports once in a table
(:func:`repro.exports.lazy_exports`); these tests hold every package to
the behaviour the eager imports used to give: each ``__all__`` name
resolves and is listed by ``dir()``, ``import *`` binds exactly
``__all__``, an unknown name is an ``AttributeError``, and no export is
hidden behind a submodule of the same name.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.exports import lazy_exports

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in SRC.joinpath("repro").rglob("__init__.py")
)
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts)
    for path in SRC.joinpath("repro").rglob("*.py")
    if path.name != "__init__.py"
)


@pytest.fixture(scope="module", autouse=True)
def _import_every_module():
    # Importing a submodule binds it on its package: with every module
    # loaded, an export that shares its submodule's name would read as
    # the module if the package did not guard it.
    for name in MODULES:
        importlib.import_module(name)


def test_every_package_is_covered():
    assert {"repro", "repro.core", "repro.ir.models"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve_and_are_listed(name):
    package = importlib.import_module(name)
    assert package.__all__ == sorted(set(package.__all__))
    listed = set(dir(package))
    for export in package.__all__:
        value = getattr(package, export)
        assert not isinstance(value, types.ModuleType), (name, export)
        assert export in listed, (name, export)


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_exactly_all(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == importlib.import_module(name).__all__


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"'{name}'.*'no_such_export'"):
        getattr(package, "no_such_export")
    assert not hasattr(package, "no_such_export")


def test_exports_that_share_a_submodule_name_stay_functions():
    import repro.baselines
    import repro.core

    assert isinstance(repro.core.finetune, types.FunctionType)
    assert isinstance(repro.baselines.random_search, types.FunctionType)
    assert repro.core.finetune is sys.modules["repro.core.finetune"].finetune
    assert (
        repro.baselines.random_search
        is sys.modules["repro.baselines.random_search"].random_search
    )


def test_a_name_exported_twice_is_rejected():
    with pytest.raises(ValueError, match="'x' twice"):
        lazy_exports("repro", {"a": ("x",), "b": ("x",)})


REGISTRY_PROBE = """
import json, sys
from repro.core.searcher import (
    StrategyError, available_strategies, get_searcher_class,
)
names = available_strategies()
loaded_before = sorted(
    m for m in ("repro.core.mcmc", "repro.core.bandit") if m in sys.modules
)
resolved = {n: get_searcher_class(n).strategy for n in names}
try:
    get_searcher_class("bogus")
    codes = None
except StrategyError as exc:
    codes = [d.code for d in exc.diagnostics]
print(json.dumps([names, loaded_before, resolved, codes]))
"""


def test_registry_lists_and_resolves_builtins_in_a_fresh_interpreter():
    result = subprocess.run(
        [sys.executable, "-c", REGISTRY_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    names, loaded_before, resolved, codes = json.loads(result.stdout)
    assert names == ["bandit", "greedy", "mcmc"]
    assert loaded_before == []
    assert resolved == {n: n for n in names}
    assert codes == ["ACE212"]
