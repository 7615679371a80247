"""Whole-program structure: the import graph and an approximate call graph.

The per-file rules of :mod:`repro.lint.rules` see one file at a time;
the cross-module analyses (determinism taint tracking, RNG stream
lineage, worker-boundary safety) need to know *who calls whom* across
the whole of ``src/repro``.  :class:`ProjectGraph` supplies that: every
parsed file becomes a :class:`ModuleInfo`, every ``def`` (top-level,
method, or nested) a :class:`FunctionInfo`, and every call site a
:class:`CallSite` whose targets are resolved as precisely as the static
evidence allows:

* ``f(...)`` — a name defined in the same module (or a sibling nested
  function), an imported symbol, or a builtin;
* ``mod.f(...)`` — through ``import``/``from``-``import`` aliases, into
  other project modules;
* ``self.m(...)`` — the method in the lexically enclosing class;
* ``obj.m(...)`` — *dynamic dispatch fallback*: every project method
  with that bare name becomes a candidate, capped at
  :data:`MAX_DYNAMIC_CANDIDATES` (past that the call is treated as
  unresolved — a documented soundness limit, see DESIGN section 6j).

The graph is deliberately approximate: no aliasing of function objects,
no ``getattr`` strings, no decorator unwrapping beyond the plain node.
It errs toward *resolving* (dynamic fallback over-approximates callees)
because the analyses built on top are reachability- and taint-style,
where a missed edge is a missed bug but a spurious edge is at worst a
suppressible finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: An attribute call whose bare method name matches more project methods
#: than this is left unresolved rather than fanned out to all of them.
MAX_DYNAMIC_CANDIDATES = 6


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    raw: str                      # the callee as written ("self.rng.child")
    targets: Tuple[str, ...]      # resolved project function ids
    external: Optional[str] = None  # dotted external name when unresolved
    dynamic: bool = False         # resolved by bare-method-name fallback


@dataclass
class FunctionInfo:
    """One ``def`` (module-level, method, or nested) in the project."""

    fid: str                      # "module:qualname", the graph-wide id
    module: str                   # dotted module name
    qualname: str                 # "Class.method", "func", "outer.inner"
    name: str                     # bare name
    node: ast.AST                 # FunctionDef / AsyncFunctionDef
    path: str                     # display path (as reported in findings)
    rel: str                      # package-relative path (layer checks)
    lineno: int
    is_async: bool
    params: Tuple[str, ...]
    class_name: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)

    @property
    def pretty(self) -> str:
        """Human form used in finding messages: ``qualname (path:line)``."""
        return f"{self.qualname} ({self.path}:{self.lineno})"


@dataclass
class ModuleInfo:
    """One parsed file as the whole-program analyses see it."""

    name: str                     # dotted module name ("repro.store.npz")
    package: str                  # first component under repro ("store")
    path: str                     # display path
    rel: str                      # package-relative path
    tree: ast.AST
    #: ``import a.b as c`` -> {"c": "a.b"}
    imports: Dict[str, str] = field(default_factory=dict)
    #: ``from a.b import f as g`` -> {"g": "a.b.f"}
    from_imports: Dict[str, str] = field(default_factory=dict)
    #: qualnames of functions defined here -> fid
    functions: Dict[str, str] = field(default_factory=dict)
    #: module-level names bound to mutable literals/constructors -> lineno
    module_mutables: Dict[str, int] = field(default_factory=dict)


def module_name_for(rel: str) -> str:
    """Dotted module name from a package-relative path.

    ``store/npz.py`` -> ``repro.store.npz``; ``api.py`` ->
    ``repro.api``.  Files outside the package reduce to a basename rel
    (see the engine's ``_package_relative``), so a fixture or scratch
    file becomes ``repro.<stem>`` — a one-module graph of its own that
    cannot be confused with real package modules by the analyses, which
    key on resolved imports rather than name shape.
    """
    stem = rel[:-3] if rel.endswith(".py") else rel
    parts = [p for p in stem.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro"] + parts) if parts else "repro"


@dataclass
class _MutableScan(ast.NodeVisitor):
    """Collect module-level names assigned mutable containers."""

    out: Dict[str, int] = field(default_factory=dict)

    _CTORS = ("list", "dict", "set", "deque", "defaultdict", "OrderedDict",
              "Counter")

    def _mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._CTORS
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr in self._CTORS
        return False

    def scan(self, tree: ast.AST) -> Dict[str, int]:
        for node in getattr(tree, "body", []):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not self._mutable(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    self.out.setdefault(target.id, node.lineno)
        return self.out


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ProjectGraph:
    """The project-wide module/function/call structure.

    Build once per lint run from the engine's parsed
    :class:`~repro.lint.rules.FileContext` objects (anything with
    ``path``/``rel``/``tree`` attributes), then query from the
    graph-aware rules.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: bare method name -> fids of methods so named (dynamic fallback)
        self._methods_by_name: Dict[str, List[str]] = {}
        #: bare function name -> fids (module-level defs)
        self._functions_by_name: Dict[str, List[str]] = {}
        self._callers: Optional[Dict[str, Set[str]]] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[object]) -> "ProjectGraph":
        graph = cls()
        for ctx in contexts:
            graph._add_module(
                path=str(getattr(ctx, "path")),
                rel=str(getattr(ctx, "rel")),
                tree=getattr(ctx, "tree"),
            )
        for module in graph.modules.values():
            graph._collect_functions(module)
        for module in graph.modules.values():
            graph._resolve_calls(module)
        return graph

    def _add_module(self, path: str, rel: str, tree: ast.AST) -> None:
        name = module_name_for(rel)
        if name in self.modules:
            # Two files mapping to one dotted name (e.g. scratch files
            # with equal basenames): keep both, disambiguated by path.
            name = f"{name}#{path}"
        package = name.split(".")[1] if name.startswith("repro.") else name
        info = ModuleInfo(
            name=name, package=package, path=path, rel=rel, tree=tree,
            module_mutables=_MutableScan().scan(tree),
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        info.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        info.imports[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports are not used in this tree
                for alias in node.names:
                    info.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        self.modules[name] = info

    def _collect_functions(self, module: ModuleInfo) -> None:
        def visit(nodes: Iterable[ast.AST], prefix: str,
                  class_name: Optional[str]) -> None:
            for node in nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{node.name}"
                    fid = f"{module.name}:{qual}"
                    args = node.args
                    params = tuple(
                        a.arg for a in (
                            list(args.posonlyargs) + list(args.args)
                        )
                    )
                    fn = FunctionInfo(
                        fid=fid, module=module.name, qualname=qual,
                        name=node.name, node=node, path=module.path,
                        rel=module.rel, lineno=node.lineno,
                        is_async=isinstance(node, ast.AsyncFunctionDef),
                        params=params, class_name=class_name,
                    )
                    self.functions[fid] = fn
                    module.functions[qual] = fid
                    if class_name is not None:
                        self._methods_by_name.setdefault(
                            node.name, []).append(fid)
                    else:
                        self._functions_by_name.setdefault(
                            node.name, []).append(fid)
                    visit(node.body, f"{qual}.", class_name)
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.", node.name)
                elif isinstance(node, (ast.If, ast.Try)):
                    # Conditionally-defined functions still exist.
                    body = list(node.body) + list(getattr(node, "orelse", []))
                    body += [h for hs in getattr(node, "handlers", [])
                             for h in hs.body]
                    visit(body, prefix, class_name)
        visit(getattr(module.tree, "body", []), "", None)

    # -- call resolution -------------------------------------------------------

    def _resolve_calls(self, module: ModuleInfo) -> None:
        for qual, fid in module.functions.items():
            fn = self.functions[fid]
            for call in self._walk_own_calls(fn.node):
                fn.calls.append(self._resolve_one(module, fn, call))

    @staticmethod
    def _walk_own_calls(func_node: ast.AST) -> Iterable[ast.Call]:
        """Call nodes in a function body, excluding nested ``def`` bodies."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested functions own their calls
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    def _project_function(self, dotted: str) -> Optional[str]:
        """``repro.store.npz.save_npz`` -> its fid, when it exists."""
        mod, _, attr = dotted.rpartition(".")
        info = self.modules.get(mod)
        if info is not None and attr in info.functions:
            return info.functions[attr]
        # Classes: ``repro.x.Cls`` called as a constructor -> __init__.
        if info is None and "." in mod:
            pkg, _, cls = mod.rpartition(".")
            info = self.modules.get(pkg)
            if info is not None and f"{cls}.{attr}" in info.functions:
                return info.functions[f"{cls}.{attr}"]
        return None

    def _resolve_one(self, module: ModuleInfo, fn: FunctionInfo,
                     call: ast.Call) -> CallSite:
        func = call.func
        raw = dotted_name(func) or "<expr>"
        # Plain name: local def, sibling nested def, import, or builtin.
        if isinstance(func, ast.Name):
            name = func.id
            parent = fn.qualname.rsplit(".", 1)[0] if "." in fn.qualname else ""
            for candidate in (
                f"{fn.qualname}.{name}",            # own nested def
                f"{parent}.{name}" if parent else "",  # sibling nested def
                name,                                # module-level def
            ):
                if candidate and candidate in module.functions:
                    return CallSite(call, raw,
                                    (module.functions[candidate],))
            if name in module.from_imports:
                dotted = module.from_imports[name]
                target = self._project_function(dotted)
                if target is None:
                    # ``from x import Cls`` then ``Cls(...)``.
                    target = self._project_function(f"{dotted}.__init__")
                if target is not None:
                    return CallSite(call, raw, (target,))
                return CallSite(call, raw, (), external=dotted)
            return CallSite(call, raw, (), external=name)
        # Attribute chain.
        if isinstance(func, ast.Attribute):
            method = func.attr
            root = func.value
            dotted = dotted_name(func)
            if isinstance(root, ast.Name):
                if root.id == "self" and fn.class_name is not None:
                    qual = f"{fn.class_name}.{method}"
                    if qual in module.functions:
                        return CallSite(call, raw,
                                        (module.functions[qual],))
                alias = module.imports.get(root.id)
                if alias is None and root.id in module.from_imports:
                    alias = module.from_imports[root.id]
                if alias is not None and dotted is not None:
                    full = alias + dotted[len(root.id):]
                    target = self._project_function(full)
                    if target is None:
                        target = self._project_function(f"{full}.__init__")
                    if target is not None:
                        return CallSite(call, raw, (target,))
                    return CallSite(call, raw, (), external=full)
            # Dynamic dispatch fallback: every project method so named.
            candidates = self._methods_by_name.get(method, [])
            if 0 < len(candidates) <= MAX_DYNAMIC_CANDIDATES:
                return CallSite(call, raw, tuple(sorted(candidates)),
                                dynamic=True)
            return CallSite(call, raw, (), external=dotted or method,
                            dynamic=True)
        return CallSite(call, raw, (), external=None, dynamic=True)

    # -- queries ---------------------------------------------------------------

    def function(self, fid: str) -> FunctionInfo:
        return self.functions[fid]

    def callers(self) -> Dict[str, Set[str]]:
        """fid -> set of fids with a call site targeting it (cached)."""
        if self._callers is None:
            callers: Dict[str, Set[str]] = {}
            for fn in self.functions.values():
                for call in fn.calls:
                    for target in call.targets:
                        callers.setdefault(target, set()).add(fn.fid)
            self._callers = callers
        return self._callers

    def reachable(self, seeds: Iterable[str],
                  include_dynamic: bool = True) -> Set[str]:
        """Function ids reachable from ``seeds`` along call edges."""
        seen: Set[str] = set()
        stack = [fid for fid in seeds if fid in self.functions]
        while stack:
            fid = stack.pop()
            if fid in seen:
                continue
            seen.add(fid)
            for call in self.functions[fid].calls:
                if call.dynamic and not include_dynamic:
                    continue
                stack.extend(t for t in call.targets if t not in seen)
        return seen
