"""Rules that hold across the modules of the package, checked on their source."""

import ast
import sys
from pathlib import Path

import regionsep

PACKAGE = Path(regionsep.__file__).parent
REPO = Path(__file__).resolve().parents[1]


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


def _root_bindings(source: str):
    """The names a package root's top-level imports and assignments bind,
    with their lines. ``from . import x`` binds the submodule ``x`` and is
    left out."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def _root_uses(source: str):
    """The names the source takes from the package root: ``from regionsep
    import x``, or ``alias.x`` after ``import regionsep as alias``."""
    aliases = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "regionsep":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "regionsep" and not alias.asname:
                    aliases.add("regionsep")
                elif alias.name == "regionsep":
                    aliases.add(alias.asname)
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            yield node.attr


def _root_surface_faults(root: str, submodules: set, users: list, rebinds: set):
    """Root names, dunders aside, that no user source takes from the root,
    and root names that rebind a submodule other than those in ``rebinds``."""
    used = {name for source in users for name in _root_uses(source)}
    for name, line in _root_bindings(root):
        if name.startswith("__"):
            continue
        if name in submodules and name not in rebinds:
            yield f"line {line}: {name} rebinds its submodule"
        if name not in used:
            yield f"line {line}: {name} has no caller outside tests/"


def test_the_root_surface_rule_finds_each_form():
    root = (
        "from .stft import istft, stft\n"
        "from .audio import read_wav as audio\n"
        "from .features import unused, used\n"
        "from . import parallel\n"
        "__version__ = '0'\n"
        "limit = 1\n"
    )
    users = [
        "import regionsep as rs\nrs.stft(x); rs.istft(y)\n",
        "from regionsep import audio\n",
        "import regionsep.cli\nregionsep.used\n",
    ]
    submodules = {"audio", "features", "parallel", "stft"}
    assert sorted(_root_surface_faults(root, submodules, users, {"stft"})) == [
        "line 2: audio rebinds its submodule",
        "line 3: unused has no caller outside tests/",
        "line 6: limit has no caller outside tests/",
    ]


def test_the_package_root_exports_only_what_a_caller_outside_tests_uses():
    # `stft` stays the function over its submodule: perfbench's traced
    # replay calls rs.stft(...) and rs.istft(...), perfbench/selftest.py
    # runs that replay, and perfbench/ changes only with the benchmark.
    # `from regionsep.stft import X` still reaches the module's names.
    package = REPO / "src" / "regionsep"
    users = sorted([*package.glob("*.py"), *(REPO / "perfbench").glob("*.py")])
    found = list(
        _root_surface_faults(
            (package / "__init__.py").read_text(),
            {path.stem for path in package.glob("*.py")},
            [path.read_text() for path in users],
            {"stft"},
        )
    )
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


def _sample_store_uses(source: str):
    """Where the source names a sample-store file (a ``".f64"`` string) or
    maps one (``memmap``)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and ".f64" in str(node.value):
            yield f"line {node.lineno}: {node.value!r}"
        elif isinstance(node, ast.Attribute) and node.attr == "memmap":
            yield f"line {node.lineno}: .memmap"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "memmap":
                    yield f"line {node.lineno}: import memmap"


def test_the_sample_store_rule_finds_each_form():
    source = (
        'name = f"{pid}.f64"\n'
        "arr = np.memmap(path)\n"
        "from numpy import memmap\n"
        'other = "x.f32"\n'
    )
    assert sorted(_sample_store_uses(source)) == [
        "line 1: '.f64'",
        "line 2: .memmap",
        "line 3: import memmap",
    ]


def test_only_the_dataset_module_knows_the_sample_store_layout():
    found = [
        f"{path.name} {use}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "dataset.py"
        for use in _sample_store_uses(path.read_text())
    ]
    assert found == []
    assert list(_sample_store_uses((PACKAGE / "dataset.py").read_text()))


def _seed_splits(source: str):
    """Where the source splits a seed: a ``.spawn(...)`` call or a
    ``SeedSequence(...)`` construction."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "spawn":
            yield f"line {node.lineno}: .spawn("
        elif getattr(func, "attr", getattr(func, "id", None)) == "SeedSequence":
            yield f"line {node.lineno}: SeedSequence("


def test_the_seed_split_rule_finds_each_form():
    source = (
        "root = np.random.SeedSequence(seed)\n"
        "from numpy.random import SeedSequence\n"
        "children = SeedSequence(1).spawn(4)\n"
        "def draw(seq: np.random.SeedSequence): return np.random.default_rng(seq)\n"
        "spawn(3)\n"
    )
    assert sorted(_seed_splits(source)) == [
        "line 1: SeedSequence(",
        "line 3: .spawn(",
        "line 3: SeedSequence(",
    ]


def test_only_the_parallel_module_splits_a_seed():
    # every seeded task list is parallel.seeded_tasks
    found = [
        f"{path.name} {use}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "parallel.py"
        for use in _seed_splits(path.read_text())
    ]
    assert found == []
    assert list(_seed_splits((PACKAGE / "parallel.py").read_text()))


def _block_size_uses(source: str):
    """Where the source names ``BLOCK_FRAMES``: imported, read as a name, or
    read as a module attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "BLOCK_FRAMES":
                    yield f"line {node.lineno}: import BLOCK_FRAMES"
        elif isinstance(node, ast.Name) and node.id == "BLOCK_FRAMES":
            yield f"line {node.lineno}: BLOCK_FRAMES"
        elif isinstance(node, ast.Attribute) and node.attr == "BLOCK_FRAMES":
            yield f"line {node.lineno}: .BLOCK_FRAMES"


def test_the_block_size_rule_finds_each_form():
    source = (
        "from .stft import BLOCK_FRAMES, frame_blocks\n"
        "n = stft.BLOCK_FRAMES\n"
        "for s in range(0, n, BLOCK_FRAMES): pass\n"
        '"""blocks of BLOCK_FRAMES frames"""\n'
    )
    assert sorted(_block_size_uses(source)) == [
        "line 1: import BLOCK_FRAMES",
        "line 2: .BLOCK_FRAMES",
        "line 3: BLOCK_FRAMES",
    ]


def test_only_the_stft_module_names_the_frame_block_size():
    # every blocked pass over a spectrogram grid takes stft.frame_blocks
    found = [
        f"{path.name} {use}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "stft.py"
        for use in _block_size_uses(path.read_text())
    ]
    assert found == []
    assert list(_block_size_uses((PACKAGE / "stft.py").read_text()))


def _allocator_uses(source: str):
    """Where the source imports ``ctypes`` or names ``mallopt``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ctypes":
                    yield f"line {node.lineno}: import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "ctypes":
                yield f"line {node.lineno}: from {node.module}"
            for alias in node.names:
                if alias.name == "mallopt":
                    yield f"line {node.lineno}: import mallopt"
        elif isinstance(node, ast.Name) and node.id == "mallopt":
            yield f"line {node.lineno}: mallopt"
        elif isinstance(node, ast.Attribute) and node.attr == "mallopt":
            yield f"line {node.lineno}: .mallopt"


def test_the_allocator_rule_finds_each_form():
    source = (
        "import ctypes\n"
        "from ctypes import CDLL\n"
        "import os, ctypes.util as cu\n"
        "libc.mallopt(-3, 1 << 25)\n"
        "from libc import mallopt\n"
        "mallopt = None\n"
        '"""glibc\'s mallopt"""\n'
    )
    assert sorted(_allocator_uses(source)) == [
        "line 1: import ctypes",
        "line 2: from ctypes",
        "line 3: import ctypes.util",
        "line 4: .mallopt",
        "line 5: import mallopt",
        "line 6: mallopt",
    ]


def test_only_the_cli_module_sets_an_allocator_policy():
    # library callers keep glibc's defaults; only the processes the CLI
    # owns pin its thresholds
    found = [
        f"{path.name} {use}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for use in _allocator_uses(path.read_text())
    ]
    assert found == []
    assert list(_allocator_uses((PACKAGE / "cli.py").read_text()))
