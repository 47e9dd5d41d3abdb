"""Rules that hold across the modules of the package, checked on their source."""

import ast
import sys
from pathlib import Path

import regionsep

PACKAGE = Path(regionsep.__file__).parent


def _private_uses(source: str):
    """Names starting with ``_`` that the source takes from another module of
    the package: ``from .stft import _window``, or ``stft._window`` after
    ``from . import stft``."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "regionsep"
            for alias in node.names if ours else ():
                if alias.name.startswith("_"):
                    yield f"line {node.lineno}: {alias.name}"
                elif node.module is None or node.module == "regionsep":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("regionsep.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            yield f"line {node.lineno}: {node.value.id}.{node.attr}"


def test_the_private_name_rule_finds_each_form():
    source = (
        "from .stft import _window, stft\n"
        "from . import features\n"
        "import regionsep.parallel as par\n"
        "features._low_bins(1, 2); par._installed; features.FeatureGrid\n"
    )
    assert sorted(_private_uses(source)) == [
        "line 1: _window",
        "line 4: features._low_bins",
        "line 4: par._installed",
    ]


def test_no_module_uses_another_modules_private_names():
    found = [
        f"{path.name} {use}"
        for path in sorted(PACKAGE.glob("*.py"))
        for use in _private_uses(path.read_text())
    ]
    assert found == []


def _top_level_imports(source: str):
    """The top-level module names an absolute import of the source names."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_the_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy", "regionsep"}
    found = [
        f"{path.name} line {line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _top_level_imports(path.read_text())
        if name not in allowed
    ]
    assert found == []


def test_the_import_rule_finds_each_form():
    source = "import scipy.signal\nfrom numpy import fft\nfrom . import stft\n"
    assert list(_top_level_imports(source)) == [(1, "scipy"), (2, "numpy")]
