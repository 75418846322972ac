"""Every name a pdov module imports is read in it or listed in its __all__,
every private module-level helper is referred to outside its own
definition, every log-gamma is read from coefficients.lgamma_lookup,
the one functools cache sits on coefficients._store, a module takes
another's private names only as an allow-list has them, and no module
imports threading or collections.OrderedDict."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pdov"


def unused_imports(source: str) -> list[str]:
    """Names that source imports but neither reads nor lists in __all__;
    an import line marked `# noqa: F401` is exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import concurrent.futures\n"
        "import os.path\n"
        "from collections import OrderedDict, deque\n"
        "from itertools import islice as take  # noqa: F401\n"
        "from .ldp import phi2\n"
        "__all__ = ['phi2']\n"
        "cache = OrderedDict()\n"
        "pool = concurrent.futures.ThreadPoolExecutor\n"
    )
    assert unused_imports(source) == ["os", "deque"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_helpers(source: str, others: list[str]) -> list[str]:
    """Module-level functions and classes of source named with one leading
    underscore that neither source nor others refer to outside their own
    definition."""
    tree = ast.parse(source)
    helpers = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    referred = set()
    for module in [tree] + [ast.parse(other) for other in others]:
        for top in module.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    referred.add(name)
    return [name for name in helpers if name not in referred]


def test_unreferenced_helpers_are_found():
    source = (
        "import functools\n"
        "def _used(): return 1\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "@functools.cache\n"
        "def _cached(): return 2\n"
        "class _Orphan: pass\n"
        "def public(): return _used()\n"
    )
    assert unreferenced_helpers(source, []) == ["_recursive", "_cached", "_Orphan"]
    # another module's m._cached() refers to it
    assert unreferenced_helpers(source, ["m._cached()\n"]) == ["_recursive", "_Orphan"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unreferenced_helpers(path):
    others = [p.read_text() for p in sorted(SRC.glob("*.py")) if p != path]
    assert unreferenced_helpers(path.read_text(), others) == []


def lgamma_calls(source: str, allowed: str | None = None) -> list[int]:
    """Lines of source that call a function named lgamma (math.lgamma,
    lgamma, ...) outside the module-level function named allowed."""
    tree = ast.parse(source)
    lines = []
    for top in tree.body:
        if getattr(top, "name", None) == allowed:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                if name == "lgamma":
                    lines.append(node.lineno)
    return lines


def test_lgamma_calls_are_found():
    source = (
        "import math\n"
        "from math import lgamma\n"
        "def lookup(n): return [math.lgamma(k) for k in range(n)]\n"
        "def other(k):\n"
        "    # lgamma( in a comment is no call\n"
        "    return math.lgamma(k) + lgamma(k + 1)\n"
    )
    assert lgamma_calls(source, "lookup") == [6, 6]
    assert lgamma_calls(source) == [3, 6, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_lgamma_comes_from_the_lookup(path):
    allowed = "lgamma_lookup" if path.name == "coefficients.py" else None
    assert lgamma_calls(path.read_text(), allowed) == []


CACHES = {"lru_cache", "cache"}


def cache_sites(source: str) -> list[str]:
    """The functions source decorates with functools' lru_cache or cache,
    by name, and each other use of either (a call lru_cache(16)(f), say) by
    its line."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name in CACHES}

    def is_cache(node):
        if isinstance(node, ast.Attribute):
            return (node.attr in CACHES and isinstance(node.value, ast.Name)
                    and node.value.id == "functools")
        return isinstance(node, ast.Name) and node.id in names

    sites, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if is_cache(target):
                    sites.append(node.name)
                    decorators.add(target)
    others = [node for node in ast.walk(tree) if is_cache(node) and node not in decorators]
    return sites + [f"line {node.lineno}" for node in others]


def test_cache_sites_are_found():
    source = (
        "import functools\n"
        "from functools import lru_cache as memo, partial\n"
        "@memo(maxsize=16)\n"
        "def _store(theta): return {}\n"
        "@functools.cache\n"
        "def _other(n): return n\n"
        "@partial\n"
        "def plain(): pass\n"
        "held = functools.lru_cache(4)(plain)\n"
    )
    assert cache_sites(source) == ["_store", "_other", "line 9"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_caches_only_on_the_store(path):
    # every per-theta run belongs in coefficients._store, under its one bound
    allowed = {"coefficients.py": ["_store"]}
    assert cache_sites(path.read_text()) == allowed.get(path.name, [])


def private_imports(source: str) -> list[str]:
    """The names with one leading underscore that source takes from another
    pdov module, as module._name, sorted: by `from .module import _name`,
    or as an attribute of a module bound by `from . import module`."""
    tree = ast.parse(source)
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    modules = {alias.asname or alias.name: alias.name
               for node in relative if node.module is None for alias in node.names}
    taken = {(node.module, alias.name) for node in relative if node.module for alias in node.names}
    taken |= {(modules[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules}
    return sorted(f"{module}.{name}" for module, name in taken
                  if name.startswith("_") and not name.startswith("__"))


def test_private_imports_are_found():
    source = (
        "import numpy as np\n"
        "from . import __version__, ldp\n"
        "from . import coefficients as coefs\n"
        "from .moments import _check_moment_run, log_moments\n"
        "def f(h): return coefs._store(1.0) + coefs.cached_table + np._private + ldp.__name__\n"
    )
    assert private_imports(source) == ["coefficients._store", "moments._check_moment_run"]


# what each module takes of another's private names: a change here is a change of interface
PRIVATE_IMPORTS = {
    "mc.py": ["ldp._fsum_rows", "ldp._unchecked"],
    "moments.py": ["coefficients._held_run"],
    "tilted.py": ["ldp._level", "moments._check_moment_run"],
}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_imports_are_on_the_allow_list(path):
    assert private_imports(path.read_text()) == PRIVATE_IMPORTS.get(path.name, [])


def threads_and_ordered_dicts(source: str) -> list[int]:
    """Lines of source that import threading (or a name from it) or
    collections.OrderedDict, by import or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "threading" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "threading" or (
                node.module == "collections" and any(a.name == "OrderedDict" for a in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "OrderedDict"
                   and isinstance(node.value, ast.Name) and node.value.id == "collections")
        if hit:
            lines.append(node.lineno)
    return lines


def test_threads_and_ordered_dicts_are_found():
    source = (
        "import threading as th\n"
        "from threading import Lock\n"
        "from collections import Counter, OrderedDict as OD\n"
        "import collections\n"
        "held = collections.OrderedDict()\n"
        "counts = collections.Counter()  # OrderedDict in a comment is no import\n"
    )
    assert threads_and_ordered_dicts(source) == [1, 2, 3, 5]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_threads_or_ordered_dicts(path):
    # pdov draws on the calling thread, and its one cache is coefficients._store
    assert threads_and_ordered_dicts(path.read_text()) == []
