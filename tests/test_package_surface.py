"""The package's public surface: exported names resolve and examples import.

A name left in an ``__all__`` after its definition is deleted, or an example
that imports a deleted name, fails here rather than at a user's first import.
"""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)
EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} declares no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names undefined attributes: {missing}"


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_cleanly(path, monkeypatch):
    # A non-__main__ name keeps the example's `main()` from running.
    name = f"_example_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
