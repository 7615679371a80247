"""The determinism & invariant rules, one AST visitor per rule.

Each rule encodes one invariant the reproduction's byte-identical-store /
worker-count-invariance guarantee rests on (see DESIGN section 6e).  Rules
are named, individually suppressible (``# repro: lint-ok[rule-id]``), and
carry a fix hint pointing at the sanctioned idiom:

================== ==========================================================
``global-random``  randomness outside named ``RngStream`` s
``wall-clock``     real-time reads outside the ``obs`` layer
``unordered-iter`` iteration over set-typed values (order is interpreter-
                   and hash-seed-dependent)
``mutable-default`` mutable default arguments (shared across calls)
``bare-except``    ``except:`` swallowing ``KeyboardInterrupt``/``SystemExit``
``unsorted-listing`` ``os.listdir``/``glob`` results used unsorted
``registry-names`` metric names / trace kinds not declared in
                   ``repro.obs.names``
================== ==========================================================

Rules see a :class:`FileContext` (path + parsed tree) and yield
:class:`~repro.lint.findings.Finding` objects; the engine handles
inline suppressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.dataflow import DataflowAnalysis
from repro.lint.findings import Finding
from repro.lint.graph import FunctionInfo, ModuleInfo, ProjectGraph, \
    dotted_name
from repro.obs import names as _names


@dataclass
class FileContext:
    """One file as the rules see it."""

    path: str       # as reported in findings (posix, cwd-relative if possible)
    rel: str        # path relative to the ``repro`` package root, or basename
    tree: ast.AST
    source: str

    def in_layer(self, *prefixes: str) -> bool:
        """True when the file lives under one of the package-relative
        ``prefixes`` (exact file names also match)."""
        for prefix in prefixes:
            if self.rel == prefix or self.rel.startswith(prefix):
                return True
        return False


class Rule:
    """Base class: rule id, one-line summary, and the sanctioned fix."""

    id: str = ""
    summary: str = ""
    hint: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str,
        hint: Optional[str] = None,
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            hint=self.hint if hint is None else hint,
        )


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _func_name(call: ast.Call) -> Optional[str]:
    """The terminal name of a call's function (``x.y.inc`` -> ``inc``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _module_aliases(tree: ast.AST, module: str) -> Set[str]:
    """Names the file binds to ``module`` (``import numpy as np`` -> np)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


class GlobalRandomRule(Rule):
    """All randomness must flow through named ``RngStream`` s.

    ``random`` and the ``numpy.random`` module-level generator are global
    mutable state: a draw anywhere perturbs every draw after it, so adding
    a consumer silently re-deals the whole simulation — the exact failure
    the named-stream design exists to prevent.  Only ``simulation/rng.py``
    (the one wrapper around a seeded generator) may touch numpy's RNG
    machinery.
    """

    id = "global-random"
    summary = "randomness outside named RngStreams"
    hint = ("draw from a named RngStream (repro.simulation.rng); "
            "derive sub-streams with .child()")

    ALLOWED = ("simulation/rng.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_layer(*self.ALLOWED):
            return
        numpy_aliases = _module_aliases(ctx.tree, "numpy")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            ctx, node, "import of the stdlib `random` module"
                        )
                    elif alias.name.startswith("numpy.random"):
                        yield self.finding(
                            ctx, node, f"import of `{alias.name}`"
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random" or module.startswith("random."):
                    yield self.finding(
                        ctx, node, "import from the stdlib `random` module"
                    )
                elif module == "numpy.random" or module.startswith("numpy.random."):
                    yield self.finding(ctx, node, "import from `numpy.random`")
                elif module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            yield self.finding(
                                ctx, node, "import of `numpy.random`"
                            )
            elif isinstance(node, ast.Attribute) and node.attr == "random":
                if isinstance(node.value, ast.Name) \
                        and node.value.id in numpy_aliases:
                    yield self.finding(
                        ctx, node, "use of the `numpy.random` module"
                    )


class WallClockRule(Rule):
    """Only the ``obs`` layer may read real time.

    A wall-clock read inside simulation, workload, honeypot, store or
    analysis code leaks host timing into results that must be a pure
    function of (config, seed).  Code that wants to *measure* itself asks
    the obs layer (``Metrics.timer`` / ``Stopwatch``), keeping every real
    clock read in one auditable module.
    """

    id = "wall-clock"
    summary = "real-time read outside the obs layer"
    hint = ("time spans with repro.obs Metrics.timer()/span() or a "
            "repro.obs.Stopwatch; simulation code uses sim-time stamps")

    ALLOWED = ("obs/", "lint/", "__main__.py")

    _DATETIME_CALLS = ("now", "utcnow", "today", "fromtimestamp")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_layer(*self.ALLOWED):
            return
        datetime_names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        yield self.finding(
                            ctx, node, "import of the `time` module"
                        )
                    elif alias.name == "datetime":
                        datetime_names.add(alias.asname or "datetime")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    yield self.finding(
                        ctx, node, "import from the `time` module"
                    )
                elif node.module == "datetime":
                    for alias in node.names:
                        datetime_names.add(alias.asname or alias.name)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if not dotted or "." not in dotted:
                continue
            root = dotted.partition(".")[0]
            terminal = dotted.rsplit(".", 1)[-1]
            if root in datetime_names and terminal in self._DATETIME_CALLS:
                yield self.finding(
                    ctx, node, f"wall-clock read `{dotted}(...)`"
                )


class UnorderedIterRule(Rule):
    """Iteration order over sets is a worker-count/hash-seed hazard.

    ``set``/``frozenset`` iteration order depends on insertion history and
    the per-process string hash seed, so any set-driven loop that feeds
    emission order, store columns, trace events or merge logic breaks
    byte-identity between runs and worker counts.  Normalise first:
    ``sorted(s)``, or dedup with order-preserving ``dict.fromkeys(seq)``.
    """

    id = "unordered-iter"
    summary = "iteration over an unordered set"
    hint = ("iterate sorted(the_set), or dedup order-preserving with "
            "dict.fromkeys(seq)")

    _SET_OPS = {"union", "intersection", "difference", "symmetric_difference"}
    _ORDERED_CONSUMERS = {"list", "tuple", "enumerate", "iter"}
    #: Reducers whose result cannot depend on iteration order (``sum`` is
    #: absent on purpose: float addition is order-sensitive).
    _ORDER_FREE_REDUCERS = {"any", "all", "len", "min", "max",
                            "set", "frozenset"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        set_vars = self._set_variables(ctx.tree)
        exempt: Set[int] = set()
        for node in ast.walk(ctx.tree):
            # A comprehension fed straight into an order-insensitive
            # reducer (any/all/min/...) cannot leak iteration order.
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in self._ORDER_FREE_REDUCERS
                    and node.args):
                exempt.add(id(node.args[0]))
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._unordered(node.iter, set_vars):
                    yield self.finding(
                        ctx, node.iter, self._message(node.iter)
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                if id(node) in exempt:
                    continue
                for gen in node.generators:
                    # Set comprehensions *produce* a set; iterating an
                    # unordered source inside one is still unordered in,
                    # unordered out — flag the source, not the result.
                    if self._unordered(gen.iter, set_vars):
                        yield self.finding(ctx, gen.iter, self._message(gen.iter))
            elif isinstance(node, ast.Call):
                name = _func_name(node)
                if (name in self._ORDERED_CONSUMERS
                        and isinstance(node.func, ast.Name)
                        and node.args
                        and self._unordered(node.args[0], set_vars)):
                    yield self.finding(
                        ctx, node.args[0],
                        f"`{name}(...)` materialises an unordered set",
                    )
                elif (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join"
                        and node.args
                        and self._unordered(node.args[0], set_vars)):
                    yield self.finding(
                        ctx, node.args[0], "`.join(...)` over an unordered set"
                    )

    def _message(self, node: ast.AST) -> str:
        dotted = _dotted(node)
        what = f"`{dotted}`" if dotted else "a set expression"
        return f"iteration over {what} (unordered)"

    def _set_variables(self, tree: ast.AST) -> Set[str]:
        """Names assigned a set literal / ``set()`` / ``frozenset()``."""
        out: Set[str] = set()
        for node in ast.walk(tree):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None or not self._set_expr(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
        return out

    def _set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def _unordered(self, node: ast.expr, set_vars: Set[str]) -> bool:
        if self._set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_vars
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in self._SET_OPS:
                return self._unordered(node.func.value, set_vars)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return (self._unordered(node.left, set_vars)
                    or self._unordered(node.right, set_vars))
        return False


class MutableDefaultRule(Rule):
    """Mutable default arguments are shared across calls.

    A ``def f(acc=[])`` default is evaluated once and mutated forever
    after — cross-call state that makes results depend on call history
    (and with sharded generation, on which worker handled what).
    """

    id = "mutable-default"
    summary = "mutable default argument"
    hint = "default to None and create the value inside the function body"

    _CTORS = ("list", "dict", "set")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in `{name}(...)`",
                    )

    def _mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in self._CTORS
        return False


class BareExceptRule(Rule):
    """``except:`` hides real failures (and catches KeyboardInterrupt).

    Pipeline code that swallows everything converts a correctness bug into
    silently-wrong measurement output.  Catch the exceptions the operation
    can actually raise.
    """

    id = "bare-except"
    summary = "bare `except:` clause"
    hint = "name the exception types the guarded operation can raise"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(ctx, node, "bare `except:`")


class UnsortedListingRule(Rule):
    """Directory listing order is filesystem-dependent.

    ``os.listdir`` / ``glob`` return entries in on-disk order, which
    varies across filesystems and inode history; feeding that order into
    pipeline logic makes output machine-dependent.  Wrap the call in
    ``sorted(...)`` at the call site.
    """

    id = "unsorted-listing"
    summary = "unsorted directory listing"
    hint = "wrap the listing call in sorted(...) at the call site"

    _OS_FUNCS = ("os.listdir", "os.scandir", "os.walk")
    _GLOB_FUNCS = ("glob.glob", "glob.iglob")
    _PATH_METHODS = ("glob", "rglob", "iterdir")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        sorted_wrapped: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "sorted"):
                for arg in node.args:
                    sorted_wrapped.add(id(arg))
        glob_imports = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "glob":
                for alias in node.names:
                    glob_imports.add(alias.asname or alias.name)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in sorted_wrapped:
                continue
            dotted = _dotted(node.func)
            listing = None
            if dotted in self._OS_FUNCS or dotted in self._GLOB_FUNCS:
                listing = dotted
            elif isinstance(node.func, ast.Name) \
                    and node.func.id in glob_imports:
                listing = f"glob.{node.func.id}"
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._PATH_METHODS
                    and not isinstance(node.func.value, ast.Name)):
                # Path-object methods; skip module-level x.glob handled above.
                listing = f".{node.func.attr}"
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._PATH_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id not in ("os", "glob")):
                listing = f"{node.func.value.id}.{node.func.attr}"
            if listing:
                yield self.finding(
                    ctx, node, f"unsorted listing `{listing}(...)`"
                )


class RegistryNamesRule(Rule):
    """Metric names and trace kinds must be declared in ``repro.obs.names``.

    ``Metrics`` is schema-free, so a typo at a call site silently forks a
    counter into two series that ``Metrics.merge`` folds without
    complaint.  Literal names are checked exactly; f-string names must
    have a literal head that can reach a declared ``*`` family.
    """

    id = "registry-names"
    summary = "undeclared metric name / trace kind"
    hint = "declare the name in repro/obs/names.py (or fix the typo)"

    #: The obs layer defines the instruments; the lint layer quotes them.
    EXEMPT = ("obs/", "lint/")

    _FAMILY_OF_FUNC = {
        "inc": "counter",
        "_metric_inc": "counter",
        "counter": "counter",
        "gauge_set": "gauge",
        "gauge_max": "gauge",
        "observe": "histogram",
        "histogram": "histogram",
        "timer": "histogram",
        "span": "span",
        "emit": "trace",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.in_layer(*self.EXEMPT):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            family = self._FAMILY_OF_FUNC.get(_func_name(node) or "")
            if family is None:
                continue
            declared = _names.FAMILIES[family]
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                if not _names.is_declared(arg.value, declared):
                    yield self.finding(
                        ctx, arg,
                        f"{family} name {arg.value!r} is not declared in "
                        f"repro.obs.names",
                    )
            elif isinstance(arg, ast.JoinedStr):
                head = ""
                if arg.values and isinstance(arg.values[0], ast.Constant):
                    head = str(arg.values[0].value)
                if not _names.prefix_may_match(head, declared):
                    yield self.finding(
                        ctx, arg,
                        f"dynamic {family} name (head {head!r}) matches no "
                        f"declared family in repro.obs.names",
                    )


# -- graph-aware (whole-program) rules -----------------------------------------


class ProjectRule(Rule):
    """A rule that sees the whole :class:`~repro.lint.graph.ProjectGraph`.

    Per-file :meth:`check` is a no-op; the engine builds the graph once
    per run and calls :meth:`check_project`.  Findings anchor at real
    source locations, so inline ``# repro: lint-ok[rule-id]`` comments
    apply exactly as they do for per-file rules.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(
        self, path: str, node: ast.AST, message: str,
    ) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            hint=self.hint,
        )


class DeterminismFlowRule(ProjectRule):
    """Nondeterministic values must not reach deterministic output.

    The interprocedural taint engine (:mod:`repro.lint.dataflow`) seeds
    taint at wall-clock reads, env reads, ``id()``/``hash()`` identity,
    process identity and unsorted listings, and propagates it along the
    call graph into store appends, trace payloads and hashed output.
    Each finding anchors at the sink and carries the full source→sink
    call path.  The obs/lint layers are sanitizers: values they return
    are trusted clean (their own clock reads are audited by the per-file
    ``wall-clock`` rule and the volatile-fields contracts).
    """

    id = "determinism-flow"
    summary = "nondeterministic value flows into deterministic output"
    hint = ("derive the value from (config, seed), or route the "
            "measurement through the obs layer (the sanctioned clock "
            "boundary); sort listings at the source")

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for flow in DataflowAnalysis(graph).run():
            yield Finding(
                path=flow.path, line=flow.line, col=flow.col,
                rule=self.id, message=flow.message, hint=self.hint,
            )


@dataclass(frozen=True)
class _StreamSite:
    """One statically-resolved RNG stream construction/derivation."""

    name: str                 # resolved stream name; families end with "*"
    exact: bool               # False for f-string families
    module: str
    package: str
    scope: Tuple[str, str]    # (module, class name or function qualname)
    path: str
    line: int
    col: int
    fid: str
    var: Optional[str]        # local variable the stream was bound to


class RngLineageRule(ProjectRule):
    """The named-stream derivation tree must stay collision-free.

    Statically resolves every stream name reaching ``RngStream`` /
    ``derive_stream_seed`` / ``.child`` — literals, f-string heads, and
    chains through locals and ``self.<attr>`` bindings — then flags:

    * **collisions** — the same exact name constructed in two unrelated
      scopes (two modules, or two top-level scopes of one module).  Two
      constructions of one name draw the *same* underlying sequence, so
      a consumer added to either silently re-deals the other;
    * **orphans** — a stream bound to a local that is never used (a dead
      derivation that still shifts nothing today but documents intent
      that no code implements);
    * **headless dynamic names** — f-string names with no literal head
      (unauditable: the derivation tree can't place them);
    * **multi-module draws** — one stream object drawn from in two or
      more modules (the worker-count-invariance hazard: shard boundaries
      split the draw sequence between processes).
    """

    id = "rng-lineage"
    summary = "RNG stream lineage violation (collision/orphan/dynamic)"
    hint = ("give every stream one owning construction site; derive "
            "variants with .child(); keep each stream's draws in one "
            "module")

    _CTOR_NAMES = ("RngStream", "derive_stream_seed")

    #: The stream implementation itself derives names dynamically.
    ALLOWED = ("simulation/rng.py",)

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        sites: List[_StreamSite] = []
        headless: List[Tuple[str, ast.AST]] = []
        draws: Dict[str, Dict[str, Tuple[str, int]]] = {}
        class_attrs: Dict[Tuple[str, str, str], str] = {}
        param_streams: Dict[str, Dict[str, str]] = {}

        # Two passes: the first fills class-attribute and callee-parameter
        # stream bindings, the second resolves chains through them.
        for final in (False, True):
            sites.clear()
            headless.clear()
            draws.clear()
            for fid in sorted(graph.functions):
                fn = graph.functions[fid]
                self._scan_function(
                    graph, fn, sites, headless, draws,
                    class_attrs, param_streams, final,
                )

        flagged: Set[Tuple[str, int, int]] = set()

        # Headless dynamic names.
        for path, node in headless:
            yield self.project_finding(
                path, node,
                "dynamic stream name with no literal head (the derivation "
                "tree cannot place it)",
            )

        # Collisions: one exact name, several unrelated scopes.
        by_name: Dict[str, List[_StreamSite]] = {}
        for site in sites:
            if site.exact:
                by_name.setdefault(site.name, []).append(site)
        for name in sorted(by_name):
            group = sorted(by_name[name],
                           key=lambda s: (s.module, s.line, s.col))
            scopes = {s.scope for s in group}
            if len(scopes) < 2:
                continue
            owner = self._owner(name, group)
            for site in group:
                if site.scope == owner.scope:
                    continue
                key = (site.path, site.line, site.col)
                if key in flagged:
                    continue
                flagged.add(key)
                yield Finding(
                    path=site.path, line=site.line, col=site.col,
                    rule=self.id,
                    message=(
                        f"stream name {name!r} collides with its owning "
                        f"construction in {owner.path}:{owner.line} — two "
                        f"constructions share one draw sequence"
                    ),
                    hint=self.hint,
                )

        # Orphans: bound to a local that is never read.
        for site in sites:
            if site.var is None:
                continue
            fn = graph.functions[site.fid]
            if self._loads_of(fn.node, site.var) > 0:
                continue
            key = (site.path, site.line, site.col)
            if key in flagged:
                continue
            flagged.add(key)
            yield Finding(
                path=site.path, line=site.line, col=site.col,
                rule=self.id,
                message=(
                    f"orphan stream {site.name!r}: bound to "
                    f"`{site.var}` but never drawn, derived or passed on"
                ),
                hint=self.hint,
            )

        # Multi-module draws.
        for name in sorted(draws):
            modules = draws[name]
            if len(modules) < 2:
                continue
            group = sorted((s for s in sites if s.name == name),
                           key=lambda s: (s.module, s.line, s.col))
            anchor = group[0] if group else None
            if anchor is None:
                continue
            key = (anchor.path, anchor.line, anchor.col)
            if key in flagged:
                continue
            flagged.add(key)
            where = ", ".join(
                f"{mod} ({loc[0]}:{loc[1]})"
                for mod, loc in sorted(modules.items())
            )
            yield Finding(
                path=anchor.path, line=anchor.line, col=anchor.col,
                rule=self.id,
                message=(
                    f"stream {name!r} is drawn from in "
                    f"{len(modules)} modules: {where} — one draw sequence "
                    f"split across shard boundaries"
                ),
                hint=self.hint,
            )

    # -- scanning ----------------------------------------------------------

    def _scan_function(
        self, graph: ProjectGraph, fn: FunctionInfo,
        sites: List[_StreamSite], headless: List[Tuple[str, ast.AST]],
        draws: Dict[str, Dict[str, Tuple[str, int]]],
        class_attrs: Dict[Tuple[str, str, str], str],
        param_streams: Dict[str, Dict[str, str]],
        final: bool,
    ) -> None:
        if fn.rel in self.ALLOWED:
            return
        module = graph.modules[fn.module]
        env: Dict[str, str] = dict(param_streams.get(fn.fid, {}))

        def resolve_stream(expr: ast.expr) -> Optional[str]:
            """The stream name an expression evaluates to, if resolvable."""
            if isinstance(expr, ast.Name):
                return env.get(expr.id)
            if isinstance(expr, ast.Attribute) \
                    and isinstance(expr.value, ast.Name) \
                    and expr.value.id == "self" and fn.class_name:
                return class_attrs.get(
                    (fn.module, fn.class_name, expr.attr))
            if isinstance(expr, ast.Call):
                resolved = self._resolve_ctor(expr, resolve_stream, module)
                if resolved is not None:
                    return resolved[0]
            return None

        def record(call: ast.Call, var: Optional[str]) -> Optional[str]:
            resolved = self._resolve_ctor(call, resolve_stream, module)
            if resolved is None:
                if final and self._is_headless(call, resolve_stream):
                    headless.append((fn.path, call))
                return None
            name, exact = resolved
            if final:
                scope = (fn.module, fn.class_name or fn.qualname)
                sites.append(_StreamSite(
                    name=name, exact=exact, module=fn.module,
                    package=module.package, scope=scope, path=fn.path,
                    line=call.lineno, col=call.col_offset, fid=fn.fid,
                    var=var,
                ))
            return name

        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if isinstance(value, ast.BoolOp):
                    # ``rng = rng or RngStream(...)`` default idiom.
                    calls = [v for v in value.values
                             if isinstance(v, ast.Call)]
                    value = calls[0] if len(calls) == 1 else value
                if not isinstance(value, ast.Call):
                    continue
                if isinstance(target, ast.Name):
                    name = record(value, target.id)
                    if name is not None:
                        env[target.id] = name
                elif isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self" and fn.class_name:
                    name = record(value, None)
                    if name is not None:
                        class_attrs[(fn.module, fn.class_name,
                                     target.attr)] = name
            elif isinstance(node, ast.Call):
                if not self._is_assigned_call(node, fn.node):
                    record(node, None)

        # Draw sites + one level of stream propagation into callees.
        for call in ast.walk(fn.node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr not in (
                    "child",) + self._CTOR_NAMES:
                receiver = resolve_stream(func.value)
                if receiver is not None:
                    draws.setdefault(receiver, {}).setdefault(
                        fn.module, (fn.path, call.lineno))
        for site in fn.calls:
            if len(site.targets) != 1:
                continue
            target = graph.functions[site.targets[0]]
            offset = 1 if target.class_name is not None \
                and isinstance(site.node.func, ast.Attribute) else 0
            for pos, arg in enumerate(site.node.args):
                name = resolve_stream(arg)
                if name is None:
                    continue
                index = pos + offset
                if index >= len(target.params):
                    continue
                bound = param_streams.setdefault(target.fid, {})
                param = target.params[index]
                if bound.get(param, name) != name:
                    bound[param] = ""   # ambiguous: two caller streams
                elif name:
                    bound[param] = name
            for kw in site.node.keywords:
                if kw.arg is None or kw.arg not in target.params:
                    continue
                name = resolve_stream(kw.value)
                if name is None:
                    continue
                bound = param_streams.setdefault(target.fid, {})
                if bound.get(kw.arg, name) != name:
                    bound[kw.arg] = ""
                elif name:
                    bound[kw.arg] = name

    def _resolve_ctor(
        self, call: ast.Call, resolve_stream, module: ModuleInfo,
    ) -> Optional[Tuple[str, bool]]:
        """(resolved name, exact) for a stream construction, else None."""
        func = call.func
        terminal = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if terminal in self._CTOR_NAMES:
            name_arg: Optional[ast.expr] = None
            if len(call.args) >= 2:
                name_arg = call.args[1]
            else:
                for kw in call.keywords:
                    if kw.arg == "name":
                        name_arg = kw.value
            if name_arg is None:
                return None
            return self._resolve_name_expr(name_arg, resolve_stream)
        if isinstance(func, ast.Attribute) and func.attr == "child" \
                and call.args:
            parent = resolve_stream(func.value)
            suffix = call.args[0]
            if parent is None or parent.endswith("*"):
                return None
            resolved = self._resolve_name_expr(suffix, resolve_stream)
            if resolved is None:
                return None
            suffix_name, exact = resolved
            return f"{parent}.{suffix_name}", exact
        return None

    def _resolve_name_expr(
        self, expr: ast.expr, resolve_stream,
    ) -> Optional[Tuple[str, bool]]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value, True
        if isinstance(expr, ast.JoinedStr) and expr.values:
            first = expr.values[0]
            if isinstance(first, ast.Constant):
                head = str(first.value)
                return (head + "*", False) if head else None
            if isinstance(first, ast.FormattedValue) \
                    and isinstance(first.value, ast.Attribute) \
                    and first.value.attr == "name":
                # ``f"{stream.name}.suffix..."``: resolvable prefix.
                parent = resolve_stream(first.value.value)
                if parent is not None and not parent.endswith("*"):
                    tail = "".join(
                        str(v.value) for v in expr.values[1:]
                        if isinstance(v, ast.Constant)
                    )
                    return f"{parent}{tail}*", False
        return None

    def _is_headless(self, call: ast.Call, resolve_stream) -> bool:
        """True for a stream ctor whose f-string name has no usable head."""
        func = call.func
        terminal = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if terminal not in self._CTOR_NAMES:
            return False
        name_arg: Optional[ast.expr] = None
        if len(call.args) >= 2:
            name_arg = call.args[1]
        else:
            for kw in call.keywords:
                if kw.arg == "name":
                    name_arg = kw.value
        if not isinstance(name_arg, ast.JoinedStr):
            return False
        return self._resolve_name_expr(name_arg, resolve_stream) is None

    @staticmethod
    def _is_assigned_call(call: ast.Call, fn_node: ast.AST) -> bool:
        """True when ``call`` is the RHS (or or-default) of an Assign."""
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign):
                value = node.value
                if value is call:
                    return True
                if isinstance(value, ast.BoolOp) \
                        and any(v is call for v in value.values):
                    return True
        return False

    @staticmethod
    def _loads_of(fn_node: ast.AST, var: str) -> int:
        return sum(
            1 for node in ast.walk(fn_node)
            if isinstance(node, ast.Name) and node.id == var
            and isinstance(node.ctx, ast.Load)
        )

    @staticmethod
    def _owner(name: str, group: List[_StreamSite]) -> _StreamSite:
        """The site that legitimately owns ``name``.

        The head component of a dotted stream name doubles as the owning
        package (``"workload.deployment"`` belongs to ``workload``);
        fall back to the first site in (module, line) order.
        """
        head = name.split(".")[0]
        for site in group:
            if site.package == head:
                return site
        return group[0]


class WorkerBoundaryRule(ProjectRule):
    """What crosses a scheduler worker boundary must be safe to ship.

    Worker entry points are the targets of ``Process(target=...)``.
    Everything reachable from them executes in a worker, where:

    * module-level mutable state diverges per process — mutations there
      are lost or doubled depending on worker count.  Names ending in
      ``_CACHE``/``_MEMO`` are sanctioned per-process memo caches (the
      naming convention is the audit trail);
    * payloads shipped across the boundary (``Process`` args, queue
      ``put``, backend ``submit``) must pickle — lambdas, nested
      functions, generators and open file handles do not;
    * blocking calls reachable from ``async def`` entry points would
      stall the event loop the always-on farm service plans to run
      (ROADMAP item 1).

    The obs/lint layers are exempt from the mutation check: their
    per-process state (metrics registries) merges through explicit
    telemetry channels audited by the scheduler contract.
    """

    id = "worker-boundary"
    summary = "unsafe state or payload at a worker boundary"
    hint = ("ship plain picklable data; keep per-worker state inside the "
            "worker function (or a *_CACHE per-process memo); never "
            "block an async path")

    EXEMPT_LAYERS: Tuple[str, ...] = ("obs/", "lint/")
    CACHE_SUFFIXES: Tuple[str, ...] = ("_CACHE", "_MEMO")

    _SHIP_METHODS = ("put", "put_nowait", "submit")
    _BLOCKING_DOTTED = ("time.sleep", "subprocess.run", "subprocess.call",
                        "subprocess.check_output", "subprocess.check_call")

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        entries = self._worker_entries(graph)
        reachable = graph.reachable(entries)
        for fid in sorted(reachable):
            fn = graph.functions[fid]
            if any(fn.rel == p or fn.rel.startswith(p)
                   for p in self.EXEMPT_LAYERS):
                continue
            yield from self._check_mutations(graph, fn)
        for fid in sorted(graph.functions):
            yield from self._check_payloads(graph, graph.functions[fid])
        yield from self._check_async_blocking(graph)

    # -- worker entries ----------------------------------------------------

    def _worker_entries(self, graph: ProjectGraph) -> List[str]:
        entries: List[str] = []
        for fn in graph.functions.values():
            module = graph.modules[fn.module]
            for call in ast.walk(fn.node):
                if not isinstance(call, ast.Call):
                    continue
                terminal = call.func.attr \
                    if isinstance(call.func, ast.Attribute) else (
                        call.func.id if isinstance(call.func, ast.Name)
                        else None)
                if terminal != "Process":
                    continue
                for kw in call.keywords:
                    if kw.arg == "target" and isinstance(kw.value, ast.Name):
                        fid = self._function_named(
                            graph, module, kw.value.id)
                        if fid is not None:
                            entries.append(fid)
        return sorted(set(entries))

    @staticmethod
    def _function_named(graph: ProjectGraph, module: ModuleInfo,
                        name: str) -> Optional[str]:
        if name in module.functions:
            return module.functions[name]
        dotted = module.from_imports.get(name)
        if dotted is not None:
            mod, _, attr = dotted.rpartition(".")
            info = graph.modules.get(mod)
            if info is not None and attr in info.functions:
                return info.functions[attr]
        return None

    # -- module-level mutable state ----------------------------------------

    def _check_mutations(
        self, graph: ProjectGraph, fn: FunctionInfo,
    ) -> Iterator[Finding]:
        module = graph.modules[fn.module]
        watched = {
            name for name in module.module_mutables
            if not name.endswith(self.CACHE_SUFFIXES)
        }
        if not watched:
            return
        local: Set[str] = set(fn.params)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local.add(target.id)
        globals_declared: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        watched -= (local - globals_declared)

        def flag(node: ast.AST, name: str, how: str) -> Finding:
            return self.project_finding(
                fn.path, node,
                f"module-level mutable `{name}` {how} in worker-executed "
                f"`{fn.qualname}` — per-process state diverges with "
                f"worker count",
            )

        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    root = target
                    while isinstance(root, (ast.Subscript, ast.Attribute)):
                        root = root.value
                    if isinstance(root, ast.Name) and root.id in watched \
                            and root is not target:
                        yield flag(node, root.id, "mutated")
                    elif isinstance(target, ast.Name) \
                            and target.id in watched \
                            and target.id in globals_declared:
                        yield flag(node, target.id, "rebound")
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATING_METHODS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in watched:
                yield flag(node, node.func.value.id,
                           f"mutated via `.{node.func.attr}(...)`")

    # -- unpicklable payloads ----------------------------------------------

    def _check_payloads(
        self, graph: ProjectGraph, fn: FunctionInfo,
    ) -> Iterator[Finding]:
        module = graph.modules[fn.module]
        nested = {
            qual.rsplit(".", 1)[-1]
            for qual in module.functions
            if qual.startswith(f"{fn.qualname}.")
        }
        for call in ast.walk(fn.node):
            if not isinstance(call, ast.Call):
                continue
            payloads: List[ast.expr] = []
            func = call.func
            terminal = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if terminal == "Process":
                for kw in call.keywords:
                    if kw.arg in ("args", "kwargs"):
                        payloads.append(kw.value)
            elif isinstance(func, ast.Attribute) \
                    and terminal in self._SHIP_METHODS:
                payloads.extend(call.args)
                payloads.extend(kw.value for kw in call.keywords
                                if kw.arg is not None)
            for payload in payloads:
                for problem, node in self._unpicklable(payload, nested):
                    yield self.project_finding(
                        fn.path, node,
                        f"{problem} crosses a worker boundary in "
                        f"`{fn.qualname}` — it cannot pickle",
                    )

    @staticmethod
    def _unpicklable(
        payload: ast.expr, nested: Set[str],
    ) -> Iterator[Tuple[str, ast.AST]]:
        for node in ast.walk(payload):
            if isinstance(node, ast.Lambda):
                yield "a lambda", node
            elif isinstance(node, ast.GeneratorExp):
                yield "a generator expression", node
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id == "open":
                yield "an open file handle", node
            elif isinstance(node, ast.Name) and node.id in nested \
                    and isinstance(node.ctx, ast.Load):
                yield f"nested function `{node.id}`", node

    # -- blocking calls on async paths -------------------------------------

    def _check_async_blocking(
        self, graph: ProjectGraph,
    ) -> Iterator[Finding]:
        async_entries = [fid for fid, fn in graph.functions.items()
                         if fn.is_async]
        if not async_entries:
            return
        reachable = graph.reachable(async_entries, include_dynamic=False)
        for fid in sorted(reachable):
            fn = graph.functions[fid]
            module = graph.modules[fn.module]
            for call in ast.walk(fn.node):
                if not isinstance(call, ast.Call):
                    continue
                blocking = self._blocking_desc(call, module)
                if blocking is not None:
                    origin = "" if fn.is_async else (
                        " (reachable from an async entry point)")
                    yield self.project_finding(
                        fn.path, call,
                        f"blocking call {blocking} on an async path in "
                        f"`{fn.qualname}`{origin} — it stalls the event "
                        f"loop",
                    )

    def _blocking_desc(
        self, call: ast.Call, module: ModuleInfo,
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "input":
            return "`input()`"
        dotted = dotted_name(func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        base = module.imports.get(root) or module.from_imports.get(root)
        resolved = f"{base}.{rest}" if base and rest else (
            base if base else dotted)
        if resolved in self._BLOCKING_DOTTED:
            return f"`{resolved}(...)`"
        return None


#: Mutating container methods the worker-boundary rule watches for.
_MUTATING_METHODS = frozenset({
    "append", "add", "update", "pop", "popitem", "extend", "setdefault",
    "clear", "remove", "discard", "insert", "appendleft", "extendleft",
})


#: Every rule, in reporting order.  The engine instantiates from here.
ALL_RULES: Tuple[type, ...] = (
    GlobalRandomRule,
    WallClockRule,
    UnorderedIterRule,
    MutableDefaultRule,
    BareExceptRule,
    UnsortedListingRule,
    RegistryNamesRule,
    DeterminismFlowRule,
    RngLineageRule,
    WorkerBoundaryRule,
)


def default_rules() -> List[Rule]:
    return [rule() for rule in ALL_RULES]


def rules_by_id() -> Dict[str, type]:
    return {rule.id: rule for rule in ALL_RULES}


def select_rules(ids: Sequence[str]) -> List[Rule]:
    """Instantiate the rules named by ``ids`` (unknown ids raise)."""
    table = rules_by_id()
    unknown = [i for i in ids if i not in table]
    if unknown:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown rule(s) {unknown!r}; known: {known}")
    return [table[i]() for i in ids]
