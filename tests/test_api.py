"""The public surface: ``pastures.__all__`` and the README's Python API.

The package exports an agreed set of names; constructions that only tests
compare against (free algebras, quotients by elements, structural
validation) live in ``tests/oracles.py`` instead.  A name added to or
dropped from ``__all__`` fails here until this set is changed with it.
"""

import ast
import importlib
import pathlib
import re

import pastures

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "AbelianGroup", "GroupMap",
    "Pasture", "PastureElement", "ZERO", "named", "finite_field", "product",
    "tensor",
    "Hexagon", "hexagons", "fundamental_pairs", "census",
    "PastureMorphism", "SearchStats", "make", "hom_set", "compose",
    "iso_check",
    "LiftResult", "binary_lift", "ternary_lift", "wlum_lift", "grs_lift",
    "lift_descriptor_iso",
    "Matroid", "Representation", "representation_classes",
}


def test_all_is_the_agreed_public_set():
    assert len(pastures.__all__) == len(PUBLIC)
    assert set(pastures.__all__) == PUBLIC
    assert all(hasattr(pastures, name) for name in PUBLIC)


def readme_imports():
    """(module, name) for each ``from ... import`` in the README's Python
    code blocks."""
    out = []
    for block in re.findall(r"```python\n(.*?)```", README.read_text(),
                            re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                out += [(node.module, a.name) for a in node.names]
    return out


def test_readme_python_api_names_exist():
    imports = readme_imports()
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)
