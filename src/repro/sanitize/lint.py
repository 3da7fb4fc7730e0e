"""A repo-specific static lint pass over ``src/repro``.

Four rules, each guarding an invariant the runtime sanitizer cannot see:

* **REP101 backend-bypass** — calling ``load`` / ``store`` / ``discard``
  on a ``Backend`` outside ``storage/disk.py``.  Every page access must
  go through :class:`~repro.storage.PageStore` so it is charged to the
  :class:`~repro.storage.IOStats` ledger; a direct backend call silently
  falsifies the paper's λ/ρ measurements.
* **REP102 float-equality** — ``==`` / ``!=`` against a float literal.
  Pseudo-key codes are exact integers; a float comparison anywhere near
  key handling indicates a lossy encode step leaking into index logic.
* **REP103 mutable-default** — a mutable object (list/dict/set display,
  comprehension, or a constructor call — including dotted forms like
  ``collections.defaultdict(list)`` and ``bytearray()``) as a default
  argument: shared across calls, the classic aliasing bug.
* **REP104 missing-annotations** — a public function in ``core/``
  without full parameter and return annotations.  The core API is the
  contract every later layer builds on; annotations are load-bearing
  documentation there.
* **REP105 wal-flush-bypass** — calling ``flush()`` directly on a WAL
  (or raw backend) object outside the storage layer.  A WAL flush is a
  durability point: index and bench code must reach it through
  ``PageStore.flush()`` / ``PageStore.group()`` / ``checkpoint()`` so
  group commit can defer it and the commit count stays truthful — a
  stray ``backend.flush()`` splits a batch into extra commits.
* **REP106 server-mutation-bypass** — calling an index mutation method
  (``insert`` / ``delete`` / ``insert_many`` / ``delete_many``) from
  service-layer code (``server/``) outside the write aggregator
  (``server/aggregator.py``).  Every served mutation must flow through
  the aggregator so concurrent writes coalesce into one group commit
  and the latch discipline holds; a session or handler mutating the
  index directly races the aggregator's batches and splits commits.
* **REP107 hot-path-json** — calling ``json.dumps`` / ``json.loads``
  (or their file-object forms) from service-layer code.  Wire payloads
  are binary (``server/binpayload.py``), so no request pays a JSON
  round-trip; a stray ``json.*`` call in the protocol, a session, the
  aggregator, router or client quietly reintroduces that cost.  Two
  modules are exempt: ``server/binpayload.py`` for the migration
  digest's canonical record blob, and ``server/shard.py``, whose JSON
  is the on-disk topology file, written once per topology change — an
  administrative cold path, not wire traffic.
* **REP108 replica-mutation** — follower code (``server/replica.py``)
  calling an index mutator (``insert`` / ``delete`` / ``*_many``), a
  store mutator (``allocate`` / ``free`` / ``mark_dirty``), or
  ``.write()`` on a store/index-named receiver.  A read replica's state
  must change **only** by applying the primary's committed WAL batches
  through ``PageStore.apply_replicated`` (which preserves versions for
  open snapshots, then calls ``WALBackend.apply_replicated``) — any
  other mutation forks the follower's state from the primary's
  history, and the divergence survives promotion.  The mirror of REP106: that rule keeps served
  mutations inside the aggregator; this one keeps replicas read-only.

Run via ``repro lint`` (exit 1 on findings) or ``repro check``;
``repro analyze`` applies REP107 and REP108 with the same scoping.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

__all__ = ["LintIssue", "lint_paths", "lint_source", "repo_source_root"]

#: Files allowed to touch a Backend directly: the accounting layer itself,
#: and the WAL wrapper that interposes between the store and the page file.
BACKEND_ALLOWED = ("storage/disk.py", "storage/wal.py")

#: Service-layer files allowed to issue index mutations: the write
#: aggregator, where concurrent mutations coalesce into group commits,
#: and the shard migrator, which mutates no in-process index — its
#: ``insert``/``delete`` calls are :class:`QueryClient` wire requests
#: that the *receiving* worker routes through its own aggregator.
SERVER_MUTATION_ALLOWED = ("server/aggregator.py", "server/migrate.py")

#: Service-layer files allowed to call ``json.*``: the payload codec
#: (the migration digest's canonical record blob, never wire traffic)
#: and the shard manager (whose JSON is the on-disk topology file —
#: administrative cold path, not per-op wire traffic).
SERVER_JSON_ALLOWED = (
    "server/binpayload.py",
    "server/shard.py",
)

_BACKEND_METHODS = frozenset({"load", "store", "discard"})
_JSON_CODEC_FUNCS = frozenset({"dumps", "loads", "dump", "load"})
_INDEX_MUTATORS = frozenset(
    {"insert", "delete", "insert_many", "delete_many"}
)
#: REP108: beyond the index mutators, the store-level mutation surface a
#: replica must never touch directly (``apply_replicated`` is the one
#: sanctioned channel — replicated state changes only by replaying the
#: primary's committed batches).
_REPLICA_STORE_MUTATORS = frozenset({"allocate", "free", "mark_dirty"})
#: Constructor names (terminal identifier, so dotted forms like
#: ``collections.defaultdict`` match) whose call as a default argument
#: shares one mutable object across every call.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray",
     "defaultdict", "OrderedDict", "Counter", "deque"}
)


@dataclass(frozen=True)
class LintIssue:
    """One finding of the static pass."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def repo_source_root() -> Path:
    """The ``src/repro`` package directory this module is installed in."""
    return Path(__file__).resolve().parent.parent


def _terminal_name(node: ast.expr) -> str | None:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, *, check_backend: bool,
                 check_annotations: bool,
                 check_server_mutation: bool = False,
                 check_hot_json: bool = False,
                 check_replica_mutation: bool = False) -> None:
        self.path = path
        self.check_backend = check_backend
        self.check_annotations = check_annotations
        self.check_server_mutation = check_server_mutation
        self.check_hot_json = check_hot_json
        self.check_replica_mutation = check_replica_mutation
        self.issues: list[LintIssue] = []
        # Nesting stack of 'class' / 'function' scopes: REP104 applies to
        # module-level functions and methods, not to nested helpers.
        self._scopes: list[str] = []
        # REP107 alias tracking: names bound to the json module
        # (``import json [as j]``) and to its codec functions
        # (``from json import dumps [as d]``).
        self._json_modules: set[str] = set()
        self._json_funcs: set[str] = set()

    # -- REP107 import tracking ------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "json":
                self._json_modules.add(alias.asname or "json")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "json":
            for alias in node.names:
                if alias.name in _JSON_CODEC_FUNCS:
                    self._json_funcs.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _issue(self, node: ast.AST, code: str, message: str) -> None:
        self.issues.append(
            LintIssue(self.path, node.lineno, node.col_offset, code, message)
        )

    # -- REP101 / REP105: storage-layer bypass ---------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.check_backend and isinstance(node.func, ast.Attribute):
            receiver = _terminal_name(node.func.value)
            lowered = receiver.lower() if receiver is not None else ""
            if (
                node.func.attr in _BACKEND_METHODS
                and "backend" in lowered
            ):
                self._issue(
                    node,
                    "REP101",
                    f"direct Backend.{node.func.attr}() bypasses PageStore "
                    "I/O accounting — route the access through the store",
                )
            if node.func.attr == "flush" and (
                "wal" in lowered or "backend" in lowered
            ):
                self._issue(
                    node,
                    "REP105",
                    "direct WAL/backend flush() is a durability point that "
                    "bypasses group commit — use PageStore.flush(), "
                    "PageStore.group() or checkpoint()",
                )
        if (
            self.check_server_mutation
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _INDEX_MUTATORS
        ):
            self._issue(
                node,
                "REP106",
                f"server code calls .{node.func.attr}() directly — every "
                "served mutation must flow through the write aggregator "
                "(server/aggregator.py) so concurrent writes coalesce "
                "into one group commit",
            )
        if self.check_replica_mutation and isinstance(
            node.func, ast.Attribute
        ):
            receiver = _terminal_name(node.func.value)
            lowered = receiver.lower() if receiver is not None else ""
            method = node.func.attr
            store_write = method == "write" and (
                "store" in lowered or "index" in lowered
            )
            if (
                method in _INDEX_MUTATORS
                or method in _REPLICA_STORE_MUTATORS
                or store_write
            ):
                self._issue(
                    node,
                    "REP108",
                    f"replica code calls .{method}() — a read replica's "
                    "state changes only by replaying the primary's "
                    "committed batches through "
                    "PageStore.apply_replicated(); any direct mutation "
                    "forks the follower from the primary's history",
                )
        if self.check_hot_json:
            hot_json = (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _JSON_CODEC_FUNCS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in self._json_modules
            ) or (
                isinstance(node.func, ast.Name)
                and node.func.id in self._json_funcs
            )
            if hot_json:
                name = _terminal_name(node.func)
                self._issue(
                    node,
                    "REP107",
                    f"json.{name}() on the service hot path — wire "
                    "payloads are binary (server/binpayload.py)",
                )
        self.generic_visit(node)

    # -- REP102: float equality ------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if isinstance(side, ast.Constant) and isinstance(
                    side.value, float
                ):
                    self._issue(
                        node,
                        "REP102",
                        f"equality comparison against float literal "
                        f"{side.value!r}; key codes are exact integers — "
                        "compare with a tolerance or restate in integers",
                    )
                    break
        self.generic_visit(node)

    # -- REP103 / REP104: function definitions ----------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scopes.append("class")
        self.generic_visit(node)
        self._scopes.pop()

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._check_annotations(node)
        self._scopes.append("function")
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _check_mutable_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set,
                 ast.ListComp, ast.DictComp, ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and _terminal_name(default.func) in _MUTABLE_CONSTRUCTORS
            )
            if mutable:
                self._issue(
                    default,
                    "REP103",
                    f"mutable default argument in {node.name}(); the "
                    "object is shared across calls — default to None",
                )

    def _check_annotations(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if not self.check_annotations or node.name.startswith("_"):
            return
        if "function" in self._scopes:
            return  # nested helper, not public API
        args = [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]
        if node.args.vararg is not None:
            args.append(node.args.vararg)
        if node.args.kwarg is not None:
            args.append(node.args.kwarg)
        missing = [
            a.arg
            for a in args
            if a.annotation is None and a.arg not in ("self", "cls")
        ]
        if node.returns is None:
            missing.append("return")
        if missing:
            self._issue(
                node,
                "REP104",
                f"public core function {node.name}() missing annotations "
                f"for: {', '.join(missing)}",
            )


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    check_backend: bool = True,
    check_annotations: bool = False,
    check_server_mutation: bool = False,
    check_hot_json: bool = False,
    check_replica_mutation: bool = False,
) -> list[LintIssue]:
    """Lint one module's source text; returns findings (possibly empty)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintIssue(
                path, exc.lineno or 0, exc.offset or 0,
                "REP100", f"syntax error: {exc.msg}",
            )
        ]
    linter = _Linter(
        path,
        check_backend=check_backend,
        check_annotations=check_annotations,
        check_server_mutation=check_server_mutation,
        check_hot_json=check_hot_json,
        check_replica_mutation=check_replica_mutation,
    )
    linter.visit(tree)
    return sorted(linter.issues, key=lambda i: (i.line, i.col, i.code))


def hot_json_scoped(path: str) -> bool:
    """Whether REP107 applies to the file at ``path``: service-layer
    code minus the JSON allow-list."""
    posix = path.replace("\\", "/")
    return "/server/" in posix and not any(
        posix.endswith(a) for a in SERVER_JSON_ALLOWED
    )


def replica_scoped(path: str) -> bool:
    """Whether REP108 applies to the file at ``path``: the follower
    code path only."""
    return path.replace("\\", "/").endswith("server/replica.py")


def lint_paths(paths: Sequence[str | Path] | None = None) -> list[LintIssue]:
    """Lint files or directory trees (default: the installed ``repro``).

    Rule scoping: REP101 everywhere except the accounting layer itself;
    REP104 only under ``core/``; REP102/REP103 everywhere; REP106 under
    ``server/`` except the write aggregator; REP107 under ``server/``
    except the digest blob codec and the topology file; REP108
    only in ``server/replica.py`` (the follower code path).
    """
    roots = [Path(p) for p in paths] if paths else [repo_source_root()]
    files: list[Path] = []
    for root in roots:
        if root.is_dir():
            files.extend(sorted(root.rglob("*.py")))
        else:
            files.append(root)
    issues: list[LintIssue] = []
    for file in files:
        posix = file.as_posix()
        check_backend = not any(posix.endswith(a) for a in BACKEND_ALLOWED)
        check_annotations = "/core/" in posix or "\\core\\" in str(file)
        in_server = "/server/" in posix or "\\server\\" in str(file)
        check_server_mutation = in_server and not any(
            posix.endswith(a) for a in SERVER_MUTATION_ALLOWED
        )
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            issues.append(
                LintIssue(str(file), 0, 0, "REP100", f"unreadable: {exc}")
            )
            continue
        issues.extend(
            lint_source(
                source,
                str(file),
                check_backend=check_backend,
                check_annotations=check_annotations,
                check_server_mutation=check_server_mutation,
                check_hot_json=hot_json_scoped(str(file)),
                check_replica_mutation=replica_scoped(str(file)),
            )
        )
    return issues


def format_issues(issues: Iterable[LintIssue]) -> str:
    """Render findings one per line, compiler style."""
    return "\n".join(str(issue) for issue in issues)
