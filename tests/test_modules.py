"""Module boundaries of the package: no module of ``durastm`` imports a
private (``_``-prefixed) name of another, or reaches one through a module it
imported.  What one module needs from another is public API.  And no
module-level name of the package is dead: something in the source, the
tests, the demos or the benchmark mentions it.  Nor is any module-level
``lru_cache`` unbounded, the interning caches of actions aside; and every
``lru_cache`` in the source, per-instance memos too, takes its size from a
named module constant.  Every function the benchmark's tracer wraps by name
still exists.  And there is one search loop: no ``while x:`` loop that pops
from ``x`` outside ``durastm.reach``.  No checker knows the faults: only the
machine that injects them names one.  And a run records a violation in one
place: nothing appends to or extends a ``violations`` list outside
``CheckReport.add``.  And both machines step by one action type: only
``histories.act`` calls ``Action(...)``, and no other class is an action
class."""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

from durastm.dtml import MUTATIONS

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
_UNBOUNDED_OK = frozenset({"durastm.histories.act"})


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
_CACHE_SIZE_OK = frozenset({"histories.act", "histories.count_histories.cnt"})


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


# the search kernel
_WORKLIST_OK = frozenset({"reach.reach"})


def _worklist_loops(modules: dict[str, str],
                    allowed: frozenset[str]) -> list[str]:
    """Every ``while x:`` loop whose body pops from ``x``: a hand-rolled
    search.  Loops are named module.owner:line."""
    found = []
    for module, source in modules.items():
        tree = ast.parse(source)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.While)
                    and isinstance(node.test, ast.Name)):
                continue
            pops = [sub for stmt in node.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr.startswith("pop")
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == node.test.id]
            name = f"{module}.{_owner(node, parents)}"
            if pops and name not in allowed:
                found.append(f"{name}:{node.lineno}")
    return sorted(found)


def test_one_search_loop() -> None:
    modules = {path.stem: path.read_text(encoding="utf-8")
               for folder in (PACKAGE, ROOT / "tests")
               for path in sorted(folder.glob("*.py"))}
    assert "reach" in modules and "test_transitions" in modules
    # each exemption names a loop that is still there
    assert {loop.split(":")[0] for loop in
            _worklist_loops(modules, frozenset())} == _WORKLIST_OK
    assert _worklist_loops(modules, _WORKLIST_OK) == []


def test_worklist_loop_detector_sees_each_form() -> None:
    source = ("def bfs(queue):\n"
              "    while queue:\n"
              "        key = queue.popleft()\n"
              "def dfs(stack):\n"
              "    while stack:\n"
              "        for x in [stack.pop()]:\n"
              "            pass\n"
              "def countdown(n, q):\n"
              "    while n:\n"
              "        n -= 1\n"
              "    while q is not None:\n"
              "        q = q.pop()\n"
              "    while True:\n"
              "        q.pop()\n"
              "class Walker:\n"
              "    def walk(self, todo, other):\n"
              "        while todo:\n"
              "            other.pop()\n"
              "            todo.pop(0)\n")
    assert _worklist_loops({"m": source}, frozenset()) == [
        "m.Walker.walk:17", "m.bfs:2", "m.dfs:5"]
    assert _worklist_loops({"m": source}, frozenset({"m.bfs"})) == [
        "m.Walker.walk:17", "m.dfs:5"]


def _violation_writes(modules: dict[str, str]) -> list[str]:
    """Every ``append`` or ``extend`` call on, or ``+=`` to, a name or
    attribute called ``violations``, outside ``CheckReport.add``.  Writes
    are named module.owner:line."""
    def is_violations(node: ast.AST) -> bool:
        return ((isinstance(node, ast.Name) and node.id == "violations")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "violations"))

    found = []
    for module, source in modules.items():
        tree = ast.parse(source)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                write = (isinstance(node.func, ast.Attribute)
                         and node.func.attr in ("append", "extend")
                         and is_violations(node.func.value))
            else:
                write = (isinstance(node, ast.AugAssign)
                         and is_violations(node.target))
            name = f"{module}.{_owner(node, parents)}"
            if write and name != "explorer.CheckReport.add":
                found.append(f"{name}:{node.lineno}")
    return sorted(found)


def test_violations_are_recorded_in_one_place() -> None:
    # CheckReport.add keeps the report's set of failed checks in step, and
    # is where a bound on the kept violations would go
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert "CheckReport" in modules["explorer"]
    assert _violation_writes(modules) == []


def test_violation_write_detector_sees_each_form() -> None:
    source = ("class CheckReport:\n"
              "    def add(self, v):\n"
              "        self.violations.append(v)\n"
              "def run(report, v, viols):\n"
              "    report.violations.append(v)\n"
              "    report.violations.extend(viols)\n"
              "    report.violations += viols\n"
              "    violations = []\n"
              "    violations.append(v)\n"
              "    viols.append(v)\n"
              "    report.add(v)\n"
              "    len(report.violations)\n")
    assert _violation_writes({"explorer": source}) == [
        "explorer.run:5", "explorer.run:6", "explorer.run:7",
        "explorer.run:9"]
    assert _violation_writes({"other": source}) == [
        "other.CheckReport.add:3", "other.run:5", "other.run:6",
        "other.run:7", "other.run:9"]


# the one action type and its one interner
_ACTION_OK = frozenset({"histories.Action", "histories.act"})


def _action_makers(modules: dict[str, str],
                   allowed: frozenset[str]) -> list[str]:
    """Every call of ``Action(...)``, bare or through a module, and every
    class that is an action class: one whose name ends in ``Action`` or
    that declares a ``kind`` field.  Named module.owner:line, a class by
    its own name; ``a._replace(...)`` makes no new kind of action and is
    not a call of ``Action``."""
    found = []
    for module, source in modules.items():
        tree = ast.parse(source)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                fields = {stmt.target.id for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)}
                if not (node.name.endswith("Action") or "kind" in fields):
                    continue
                owner = ".".join(filter(None, (_owner(node, parents),
                                               node.name)))
            elif isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "Action"
                    or getattr(node.func, "attr", None) == "Action"):
                owner = _owner(node, parents)
            else:
                continue
            name = f"{module}.{owner}"
            if name not in allowed:
                found.append(f"{name}:{node.lineno}")
    return sorted(found)


def test_one_action_type_and_one_interner() -> None:
    # the logging machine and the automaton share their invocations and
    # responses, so they build them from one type through one interner
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(modules) >= 9
    # each exemption names a definition that is still there
    assert {found.split(":")[0] for found in
            _action_makers(modules, frozenset())} == _ACTION_OK
    assert _action_makers(modules, _ACTION_OK) == []


def test_action_maker_detector_sees_each_form() -> None:
    source = ("from typing import NamedTuple\n"
              "from . import histories as H\n"
              "class StepAction(NamedTuple):\n"
              "    kind: str\n"
              "class Step(NamedTuple):\n"
              "    kind: str\n"
              "    tx: int\n"
              "class Event(NamedTuple):\n"
              "    ev: str\n"
              "def act(kind):\n"
              "    return Action(kind)\n"
              "def build(a):\n"
              "    return H.Action('crash'), a._replace(idx=1), act('C1')\n"
              "class Machine:\n"
              "    class InnerAction:\n"
              "        pass\n")
    assert _action_makers({"m": source}, frozenset()) == [
        "m.Machine.InnerAction:15", "m.Step:5", "m.StepAction:3",
        "m.act:11", "m.build:13"]
    assert _action_makers({"m": source}, frozenset({"m.act", "m.Step"})) == [
        "m.Machine.InnerAction:15", "m.StepAction:3", "m.build:13"]


def _fault_names(source: str, faults: tuple[str, ...]) -> list[str]:
    """line: fault for every string literal, docstrings and the parts of
    f-strings included, that names one of ``faults``."""
    return [f"{node.lineno}: {fault}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for fault in faults if fault in node.value]


def test_checkers_do_not_know_the_faults() -> None:
    # a checker that reads a fault's name can excuse that fault, as the
    # store-diff invariant once excused the skipped flush
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert _fault_names(modules.pop("dtml.py"), MUTATIONS)
    assert len(modules) >= 8
    assert {name: found for name, source in modules.items()
            if (found := _fault_names(source, MUTATIONS))} == {}


def test_fault_name_detector_sees_each_form() -> None:
    source = ('"""Docstring naming skip_a."""\n'
              'def check(mutation, s):\n'
              '    if mutation != "skip_a":\n'
              '        return {"skip_b": 1}\n'
              '    return f"{s} under skip_b" or "skip" or "skip_c"\n')
    assert _fault_names(source, ("skip_a", "skip_b")) == [
        "1: skip_a", "3: skip_a", "4: skip_b", "5: skip_b"]


def _span_target(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return vars(owner)[attr]


def test_benchmark_spans_resolve_and_restore() -> None:
    # the benchmark's tracer wraps package functions by name, so a renamed
    # function breaks its traced runs; load it by path, as it only reads
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(module, path) for module, path, _ in spans.SPANS]
    assert len(targets) >= 20
    before = [_span_target(*target) for target in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
        wrapped = [_span_target(*target) for target in targets]
    finally:
        tracer.restore()  # raises if a wrapper is left installed
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(_span_target(*target) is b
               for target, b in zip(targets, before))
