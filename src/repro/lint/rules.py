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

from repro.lint.findings import Finding
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


def _func_name(call: ast.Call) -> Optional[str]:
    """The terminal name of a call's function (``x.y.inc`` -> ``inc``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
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
            dotted = _dotted_name(node.func)
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
        dotted = _dotted_name(node)
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
            dotted = _dotted_name(node.func)
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


#: Every rule, in reporting order.  The engine instantiates from here.
ALL_RULES: Tuple[type, ...] = (
    GlobalRandomRule,
    WallClockRule,
    UnorderedIterRule,
    MutableDefaultRule,
    BareExceptRule,
    UnsortedListingRule,
    RegistryNamesRule,
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
