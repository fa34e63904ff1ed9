"""The references the kernel is checked against stay outside it.

``adom_oracle`` and ``count_oracle`` import nothing from ``viewflux``, so they
are independent of the code they check.  The frozen references call the
library's public functions, never a private name, so a change to the
kernel's internals cannot reach them unseen.  Read off the import
statements with ``ast``, without importing the modules.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def _viewflux_imports(name: str) -> list[tuple[str, str]]:
    """``(module, name)`` for each name a test module imports from ``viewflux``;
    ``name`` is empty for a plain ``import viewflux...``."""
    found = []
    for node in ast.walk(ast.parse((TESTS / name).read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.module or "", alias.name) for alias in node.names]
    return [(module, n) for module, n in found if module.split(".")[0] == "viewflux"]


@pytest.mark.parametrize("name", ["adom_oracle.py", "count_oracle.py"])
def test_oracles_import_nothing_from_viewflux(name):
    assert _viewflux_imports(name) == []


@pytest.mark.parametrize("name", ["frozen_closure.py", "frozen_pullback.py"])
def test_frozen_references_import_no_private_name(name):
    imported = _viewflux_imports(name)
    assert imported  # the references do read the library
    private = [
        (module, n) for module, n in imported
        if n.startswith("_") or any(part.startswith("_") for part in module.split("."))
    ]
    assert private == []
