"""Module boundaries of the package: no module of ``durastm`` imports a
private (``_``-prefixed) name of another, or reaches one through a module it
imported.  What one module needs from another is public API.  And no
module-level name of the package is dead: something in the source, the
tests, the demos or the benchmark mentions it.  Nor is any module-level
``lru_cache`` unbounded, the interning caches of actions aside; and every
``lru_cache`` in the source, per-instance memos too, takes its size from a
named module constant."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "durastm"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_uses(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    modules = set()  # local names bound to durastm modules
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and node.module.split(".")[0] != "durastm":
            continue
        package = node.module in (None, "durastm")
        for alias in node.names:
            if _is_private(alias.name):
                found.append(f"line {node.lineno}: imports {alias.name}")
            if package:  # ``from . import histories as H``
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(
                f"line {node.lineno}: uses {node.value.id}.{node.attr}")
    return found


def test_no_module_imports_private_names_of_another() -> None:
    offenders = {path.name: _private_uses(path.read_text(encoding="utf-8"))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert len(offenders) >= 9
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def test_private_use_detector_sees_each_form() -> None:
    source = ("from __future__ import annotations\n"
              "from .dtms2 import _closure\n"
              "from durastm.opacity import _legal\n"
              "from . import histories as H\n"
              "from durastm import explorer as E\n"
              "from .histories import Domain\n"
              "H._txn_moves, E._Pipeline, H.wf_start\n")
    assert len(_private_uses(source)) == 4


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every module-level function, class and assigned
    constant, dunders aside."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        found.append((sub.id, node.lineno))
    return [(name, line) for name, line in found if not _is_dunder(name)]


def _mentions(source: str) -> set[str]:
    """Every name a source reads: loaded names, attributes, imported names
    and the dotted parts of string constants (``"DtmlMachine.step"``
    names a method to look up by string)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def _dead_names(modules: dict[str, str], users: list[str]) -> list[str]:
    mentioned = set().union(*map(_mentions, [*modules.values(), *users]))
    return [f"{module}:{line}: {name}"
            for module, source in modules.items()
            for name, line in _definitions(source)
            if name not in mentioned]


def test_no_module_level_name_is_dead() -> None:
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    users = [path.read_text(encoding="utf-8")
             for folder in ("tests", "demos", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(modules) >= 9 and len(users) >= 10
    assert _dead_names(modules, users) == []


def test_dead_name_detector_sees_each_form() -> None:
    module = ("from __future__ import annotations\n"
              "__all__ = ['used_by_all']\n"
              "DEAD, _DEAD_TOO = 0, 1\n"
              "LIVE: int = 2\n"
              "_Alias = tuple[int, int]\n"
              "def used_by_all(): return LIVE\n"
              "def by_string(): pass\n"
              "def dead_function(): pass\n"
              "class Dead:\n"
              "    def method(self): pass\n"
              "class ByImport: pass\n"
              "class ByAttribute: pass\n")
    user = ("from m import ByImport\n"
            "import m\n"
            "m.ByAttribute\n"
            "SPANS = [('m', 'by_string.__call__')]\n"
            "dead_function = None  # a store is no mention\n")
    assert _dead_names({"m.py": module}, [user]) == [
        "m.py:3: DEAD", "m.py:3: _DEAD_TOO", "m.py:5: _Alias",
        "m.py:8: dead_function", "m.py:9: Dead"]


# caches whose keys come from a finite alphabet: the interned actions
_UNBOUNDED_OK = frozenset({"durastm.dtml.act", "durastm.dtms2.mact"})


def _unbounded_caches(namespaces: list[dict]) -> list[str]:
    """Qualified names of the module-level ``lru_cache`` functions with no
    size bound, the interning caches aside."""
    found = set()
    for namespace in namespaces:
        for value in namespace.values():
            params = getattr(value, "cache_parameters", None)
            if callable(params) and params()["maxsize"] is None:
                found.add(f"{value.__module__}.{value.__qualname__}")
    return sorted(found - _UNBOUNDED_OK)


def test_no_module_level_cache_is_unbounded() -> None:
    # a memo keyed on histories or states grows with the run it serves
    names = ["durastm" if path.stem == "__init__" else f"durastm.{path.stem}"
             for path in sorted(PACKAGE.glob("*.py"))]
    modules = [importlib.import_module(name) for name in names]
    assert len(modules) >= 9
    assert _unbounded_caches([vars(m) for m in modules]) == []


def test_unbounded_cache_detector_sees_each_form() -> None:
    source = ("from functools import lru_cache, cache\n"
              "@lru_cache(maxsize=None)\n"
              "def unbounded(x): return x\n"
              "@cache\n"
              "def also_unbounded(x): return x\n"
              "@lru_cache(maxsize=16)\n"
              "def bounded(x): return x\n"
              "@lru_cache\n"
              "def default_size(x): return x\n"
              "def act(x): return x\n"
              "act = lru_cache(maxsize=None)(act)\n")
    namespace = {"__name__": "m"}
    exec(source, namespace)
    assert _unbounded_caches([namespace]) == [
        "m.act", "m.also_unbounded", "m.unbounded"]


# caches sized otherwise on purpose: the interned actions (a finite
# alphabet) and count_histories' table, which lives for one call
_CACHE_SIZE_OK = frozenset({
    "dtml.act", "dtms2.mact", "histories.count_histories.cnt"})


def _cache_kind(node: ast.AST) -> str | None:
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name if name in ("lru_cache", "cache") else None


def _owner(node: ast.AST, parents: dict) -> str:
    """Dotted names of the functions and classes around a cache use, the
    one it decorates included, or the name it is assigned to."""
    names = []
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif (isinstance(node, ast.Assign) and not names
              and isinstance(node.targets[0], ast.Name)):
            names.append(node.targets[0].id)
    return ".".join(reversed(names))


def _unnamed_cache_sizes(modules: dict[str, str],
                         allowed: frozenset[str]) -> list[str]:
    """Every ``lru_cache`` or ``cache`` use whose size is not a named
    constant of its own module: ``maxsize=None``, a literal, a local, the
    default of a bare ``@lru_cache``.  Uses are named module.owner."""
    found = []
    for module, source in modules.items():
        tree = ast.parse(source)
        constants = {name for name, _ in _definitions(source)}
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        decorators = {d for node in ast.walk(tree)
                      for d in getattr(node, "decorator_list", ())}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _cache_kind(node.func):
                sizes = [kw.value for kw in node.keywords
                         if kw.arg == "maxsize"] + node.args[:1]
                # cache(f) has no size; its argument is the function
                size = (sizes[0] if sizes
                        and _cache_kind(node.func) == "lru_cache" else None)
            elif _cache_kind(node) and node in decorators:
                size = None  # bare @lru_cache or @cache
            else:
                continue
            if isinstance(size, ast.Name) and size.id in constants:
                continue
            name = f"{module}.{_owner(node, parents)}"
            if name not in allowed:
                found.append(f"{name}:{node.lineno}")
    return sorted(found)


def test_every_cache_is_sized_by_a_named_constant() -> None:
    # a per-instance memo lives as long as its owner, for the explorer's
    # acceptor a whole run, which the module-level test cannot see
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert "MEMO_SIZE" in modules["dtms2"]
    assert _unnamed_cache_sizes(modules, _CACHE_SIZE_OK) == []


def test_cache_size_detector_sees_each_form() -> None:
    source = ("import functools\n"
              "from functools import lru_cache, cache\n"
              "SIZE = 64\n"
              "@lru_cache(maxsize=None)\n"
              "def unbounded(x): return x\n"
              "@cache\n"
              "def also_unbounded(x): return x\n"
              "@lru_cache\n"
              "def default_size(x): return x\n"
              "@functools.lru_cache(maxsize=16)\n"
              "def literal(x): return x\n"
              "@functools.lru_cache(SIZE)\n"
              "def named_positional(x): return x\n"
              "@lru_cache(maxsize=SIZE)\n"
              "def named(x): return x\n"
              "class Memo:\n"
              "    def __init__(self, n):\n"
              "        self.local = lru_cache(maxsize=n)(len)\n"
              "        self.named = lru_cache(maxsize=SIZE)(len)\n"
              "def outer():\n"
              "    @lru_cache(maxsize=None)\n"
              "    def cnt(x): return x\n"
              "def act(x): return x\n"
              "act = lru_cache(maxsize=None)(act)\n"
              "mact = cache(act)\n")
    everything = _unnamed_cache_sizes({"m": source}, frozenset())
    assert everything == [
        "m.Memo.__init__:18", "m.act:24", "m.also_unbounded:6",
        "m.default_size:8", "m.literal:10", "m.mact:25",
        "m.outer.cnt:21", "m.unbounded:4"]
    assert _unnamed_cache_sizes(
        {"m": source}, frozenset({"m.act", "m.outer.cnt"})) == [
        "m.Memo.__init__:18", "m.also_unbounded:6", "m.default_size:8",
        "m.literal:10", "m.mact:25", "m.unbounded:4"]
