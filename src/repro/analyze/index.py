"""Parsed-source index: files, the cross-file class hierarchy, and caching.

The analyzer is whole-program: interface-conformance needs to know that
``DetailedMemorySystem`` is (transitively) a :class:`repro.sim.module.Module`
even though the two classes live in different files, and the wiring pass
needs every instantiation site of every sink class.  :class:`ProgramIndex`
builds that view once from a set of :class:`SourceFile`\\ s; rules then
query it.

Parsing dominates lint wall time on large trees, so the parsed-AST index
can be persisted (:class:`AstCache`): entries are keyed by content hash
and analyzer version, letting CI share one parse between the ``repro
lint`` and ``repro check --mode static`` steps.
"""

from __future__ import annotations

import ast
import hashlib
import io
import pickle
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import AnalysisError

#: Bump when parsing/extraction changes, to invalidate persisted caches.
ANALYZER_VERSION = 3

#: Framework root classes: subclassing one of these (by name, transitively
#: through the index) makes a class part of the modeled-module hierarchy.
MODULE_ROOTS = frozenset({"Module", "ClockedModule"})
CLOCKED_ROOTS = frozenset({"ClockedModule"})
SINK_ROOTS = frozenset({"InstructionSink", "CompletionListener", "BlockSource"})

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")
_PAYLOAD_RE = re.compile(r"#\s*repro:\s*sweep-payload")

#: Statement kinds whose noqa coverage is their *header* only (covering
#: the whole body would let one comment waive a hundred lines).
_COMPOUND_STMTS = tuple(
    getattr(ast, name)
    for name in ("If", "For", "AsyncFor", "While", "With", "AsyncWith",
                 "Try", "TryStar", "FunctionDef", "AsyncFunctionDef",
                 "ClassDef", "Match")
    if hasattr(ast, name)
)


@dataclass
class ClassInfo:
    """One class definition, with what rules need pre-extracted."""

    name: str
    qualname: str              #: "<module>.<Class>" (dotted module path)
    path: str                  #: repo-relative source path
    node: ast.ClassDef
    base_names: List[str]      #: last-segment names of the bases as written
    source: "SourceFile"
    #: method name -> FunctionDef/AsyncFunctionDef defined in this body
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: names assigned at class level (class attributes)
    class_attrs: Set[str] = field(default_factory=set)
    #: names assigned as ``self.<name> = ...`` anywhere in the body
    self_attrs: Set[str] = field(default_factory=set)
    #: whether any method carries @abstractmethod
    is_abstract: bool = False


class SourceFile:
    """One parsed Python source file plus its lint annotations."""

    def __init__(self, path: Path, root: Path, text: str,
                 tree: Optional[ast.Module] = None) -> None:
        self.abspath = path
        try:
            self.path = str(path.relative_to(root))
        except ValueError:
            self.path = str(path)
        self.text = text
        self.content_hash = hashlib.sha1(text.encode("utf-8")).hexdigest()
        try:
            self.tree = tree if tree is not None else ast.parse(text, filename=self.path)
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {self.path}: {exc}") from exc
        self.module_name = _module_name(path)
        #: line -> None (suppress all rules) or frozenset of rule IDs
        self.noqa: Dict[int, Optional[FrozenSet[str]]] = {}
        #: lines carrying a ``# repro: sweep-payload`` marker
        self.payload_lines: Set[int] = set()
        # Markers are honored only in *actual comments* (tokenize), never
        # inside string literals — otherwise documentation that merely
        # mentions the noqa/payload syntax would suppress (or, with
        # unknown-rule validation, reject) findings on its own line.
        for lineno, comment in _comment_lines(text):
            match = _NOQA_RE.search(comment)
            if match:
                ids = match.group(1)
                self.noqa[lineno] = (
                    frozenset(i.strip() for i in ids.split(",") if i.strip())
                    if ids else None
                )
            if _PAYLOAD_RE.search(comment):
                self.payload_lines.add(lineno)
        #: noqa coverage widened to the enclosing statement: a suppression
        #: on any physical line of a multi-line statement (or on a
        #: decorator / def header) covers findings reported anywhere in
        #: that statement's span.  Compound statements cover their header
        #: only, never their body.
        self._noqa_ranges: List[Tuple[int, int, Optional[FrozenSet[str]]]] = []
        if self.noqa:
            spans = _statement_spans(self.tree)
            for lineno, rules in self.noqa.items():
                best: Optional[Tuple[int, int]] = None
                for start, end in spans:
                    if start <= lineno <= end:
                        if best is None or end - start < best[1] - best[0]:
                            best = (start, end)
                if best is not None:
                    self._noqa_ranges.append((best[0], best[1], rules))
        #: local names bound to imported *modules* (``import os`` -> "os")
        self.imported_modules: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imported_modules.add(
                        alias.asname or alias.name.split(".")[0]
                    )

    def suppressed(self, line: int, rule_id: str) -> bool:
        """True when a ``# repro: noqa`` covers ``rule_id`` at ``line`` —
        either written on that exact line, or anywhere within the same
        (simple) statement / compound-statement header."""
        rules = self.noqa.get(line, False)
        if rules is not False and (rules is None or rule_id in rules):
            return True
        for start, end, rules in self._noqa_ranges:
            if start <= line <= end and (rules is None or rule_id in rules):
                return True
        return False


def _comment_lines(text: str) -> List[Tuple[int, str]]:
    """(lineno, comment_text) for every comment token in ``text``.

    Falls back to a whole-line scan if tokenization fails (the file
    already parsed, so this is a defensive path, not an expected one).
    """
    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return list(enumerate(text.splitlines(), start=1))


def _statement_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """(start, end) line spans noqa comments extend over.

    Simple statements span all their physical lines (decorator lines
    included, via the enclosing def).  Compound statements span only
    their header — first decorator line through the line before the
    first body statement — so one comment cannot waive a whole block.
    """
    spans: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        end = getattr(node, "end_lineno", None) or node.lineno
        if isinstance(node, _COMPOUND_STMTS):
            decorators = getattr(node, "decorator_list", [])
            if decorators:
                start = min([d.lineno for d in decorators] + [start])
            body = getattr(node, "body", [])
            if body:
                end = max(start, body[0].lineno - 1)
        spans.append((start, end))
    return spans


def _module_name(path: Path) -> str:
    """Best-effort dotted module name from a file path."""
    parts = list(path.with_suffix("").parts)
    for anchor in ("src", "site-packages"):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1:]
            break
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts[-4:]) if parts else str(path)


def _base_name(node: ast.expr) -> Optional[str]:
    """Last-segment name of a base-class expression, if resolvable."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def called_name(func: ast.expr) -> Optional[str]:
    """Name a :class:`ast.Call`'s callee resolves to, last segment."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _extract_class(info: ClassInfo) -> None:
    """Populate methods/attrs/abstractness for one class body."""
    for stmt in info.node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = stmt
            for decorator in stmt.decorator_list:
                name = _base_name(decorator) or called_name(
                    decorator.func if isinstance(decorator, ast.Call) else decorator
                )
                if name in ("abstractmethod", "abstractproperty"):
                    info.is_abstract = True
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    info.class_attrs.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            info.class_attrs.add(stmt.target.id)
    for node in ast.walk(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.self_attrs.add(target.attr)


class ProgramIndex:
    """Whole-program view the rules run against."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        #: bare class name -> definitions (collisions keep all)
        self.classes: Dict[str, List[ClassInfo]] = {}
        #: class names instantiated anywhere (Call to the bare name)
        self.instantiated: Set[str] = set()
        for source in self.files:
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    info = ClassInfo(
                        name=node.name,
                        qualname=f"{source.module_name}.{node.name}",
                        path=source.path,
                        node=node,
                        base_names=[
                            name for base in node.bases
                            if (name := _base_name(base)) is not None
                        ],
                        source=source,
                    )
                    _extract_class(info)
                    self.classes.setdefault(node.name, []).append(info)
                elif isinstance(node, ast.Call):
                    name = called_name(node.func)
                    if name is not None:
                        self.instantiated.add(name)

    # ------------------------------------------------------------------
    # hierarchy queries

    def ancestry(self, info: ClassInfo) -> Iterator[ClassInfo]:
        """All in-index ancestors of ``info``, depth-first, cycle-safe."""
        seen: Set[Tuple[str, str]] = {(info.path, info.name)}
        stack = list(info.base_names)
        while stack:
            base = stack.pop()
            for candidate in self.classes.get(base, []):
                key = (candidate.path, candidate.name)
                if key in seen:
                    continue
                seen.add(key)
                yield candidate
                stack.extend(candidate.base_names)

    def root_names(self, info: ClassInfo) -> Set[str]:
        """Base names of ``info``'s full in-index ancestry, plus its own.

        A name in here matching e.g. ``Module`` means the class derives
        (possibly through files outside the analyzed set) from the
        framework root of that name.
        """
        names = set(info.base_names)
        for ancestor in self.ancestry(info):
            names.update(ancestor.base_names)
        return names

    def subclasses_of(self, roots: FrozenSet[str]) -> List[ClassInfo]:
        """Every class whose ancestry reaches a root name (excluding
        classes *named* as a root, which are the framework itself)."""
        found = []
        for definitions in self.classes.values():
            for info in definitions:
                if info.name in roots:
                    continue
                if self.root_names(info) & roots:
                    found.append(info)
        return found

    def module_classes(self) -> List[ClassInfo]:
        return self.subclasses_of(MODULE_ROOTS)

    def clocked_classes(self) -> List[ClassInfo]:
        return self.subclasses_of(CLOCKED_ROOTS)

    def sink_class_names(self) -> Set[str]:
        """Names of classes usable as modules or ports-level sinks."""
        names = {info.name for info in self.module_classes()}
        names.update(info.name for info in self.subclasses_of(SINK_ROOTS))
        return names

    def has_subclasses(self, info: ClassInfo) -> bool:
        for definitions in self.classes.values():
            for other in definitions:
                if other is not info and info.name in other.base_names:
                    return True
        return False

    def declares(self, info: ClassInfo, attr: str) -> bool:
        """Does ``info`` (or an ancestor below the framework roots)
        declare ``attr`` as a class attribute or ``self.<attr>``?"""
        chain = [info] + [
            ancestor for ancestor in self.ancestry(info)
            if ancestor.name not in MODULE_ROOTS
        ]
        return any(
            attr in c.class_attrs or attr in c.self_attrs for c in chain
        )

    def defines_method(self, info: ClassInfo, method: str) -> bool:
        """Does ``info`` or an in-index ancestor below the roots define
        ``method`` concretely (not as an abstractmethod)?"""
        chain = [info] + [
            ancestor for ancestor in self.ancestry(info)
            if ancestor.name not in MODULE_ROOTS
        ]
        for c in chain:
            node = c.methods.get(method)
            if node is None:
                continue
            decorated = {
                _base_name(d) for d in node.decorator_list
                if _base_name(d) is not None
            }
            if "abstractmethod" not in decorated:
                return True
        return False


# ----------------------------------------------------------------------
# collection and caching


def collect_paths(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[Path] = []
    for path in paths:
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            collected.append(path)
        else:
            raise AnalysisError(f"not a Python source or directory: {path}")
    if not collected:
        raise AnalysisError(f"no Python sources under {[str(p) for p in paths]}")
    return collected


class AstCache:
    """Content-addressed parsed-AST and findings store for lint steps.

    Maps ``sha1(source)`` to the pickled :mod:`ast` tree.  Misses parse
    and populate; :meth:`save` persists for the next invocation (the CI
    lint job caches this file between the ``repro lint`` and ``repro
    check --mode static`` steps).

    Alongside the trees, the cache holds *findings* entries keyed by the
    exact (rule catalog, file contents, rule selection) triple that
    produced them.  AST entries survive rule changes — parsing is
    rule-independent — but findings are dropped whenever the persisted
    rule-catalog hash differs from the running one, so editing or adding
    a rule can never silently replay stale results.
    """

    def __init__(self, path: Optional[Path] = None,
                 catalog: Optional[str] = None) -> None:
        if catalog is None:
            # Late import: registry pulls in the rule modules, which
            # import this module for index helpers.
            from repro.analyze.registry import catalog_hash
            catalog = catalog_hash()
        self.path = path
        self.catalog = catalog
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, bytes] = {}
        self._findings: Dict[str, bytes] = {}
        if path is not None and path.exists():
            try:
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
                if payload.get("version") == ANALYZER_VERSION:
                    self._entries = payload.get("entries", {})
                    if payload.get("catalog") == catalog:
                        self._findings = payload.get("findings", {})
            except Exception:
                self._entries = {}  # corrupt/stale cache: rebuild silently
                self._findings = {}

    def tree_for(self, text: str, filename: str) -> ast.Module:
        key = hashlib.sha1(text.encode("utf-8")).hexdigest()
        blob = self._entries.get(key)
        if blob is not None:
            try:
                tree = pickle.loads(blob)
                self.hits += 1
                return tree
            except Exception:
                pass
        tree = ast.parse(text, filename=filename)
        self.misses += 1
        self._entries[key] = pickle.dumps(tree)
        return tree

    # ------------------------------------------------------------------
    # cached rule results (keyed by catalog + sources + rule selection)

    def findings_key(self, content_hashes: Sequence[str],
                     rule_ids: Sequence[str]) -> str:
        digest = hashlib.sha1()
        digest.update(self.catalog.encode("utf-8"))
        for chash in sorted(content_hashes):
            digest.update(b"\x1f" + chash.encode("utf-8"))
        digest.update(("\x1e" + ",".join(sorted(rule_ids))).encode("utf-8"))
        return digest.hexdigest()

    def findings_for(self, key: str) -> Optional[object]:
        blob = self._findings.get(key)
        if blob is None:
            return None
        try:
            return pickle.loads(blob)
        except Exception:
            return None

    def store_findings(self, key: str, payload: object) -> None:
        self._findings[key] = pickle.dumps(payload)

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "wb") as handle:
            pickle.dump(
                {
                    "version": ANALYZER_VERSION,
                    "catalog": self.catalog,
                    "entries": self._entries,
                    "findings": self._findings,
                },
                handle,
            )


def load_index(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    cache: Optional[AstCache] = None,
) -> ProgramIndex:
    """Parse ``paths`` (files or directories) into a :class:`ProgramIndex`."""
    root = root if root is not None else Path.cwd()
    sources = []
    for path in collect_paths(paths):
        text = path.read_text()
        tree = None
        if cache is not None:
            try:
                tree = cache.tree_for(text, str(path))
            except SyntaxError as exc:
                raise AnalysisError(f"cannot parse {path}: {exc}") from exc
        sources.append(SourceFile(path, root, text, tree=tree))
    return ProgramIndex(sources)
