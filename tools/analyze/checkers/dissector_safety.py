"""Dissector-safety checker.

DeepFlow's zero-code claim (§3.3.1) makes the dissectors the agent's
attack surface: they run on arbitrary wire bytes, so every byte access
must be provably in bounds or wrapped in a malformed-payload
containment scope, every loop over the payload must make provable
progress, and containment handlers must not swallow programming errors.

Rules (all severity ``error``):

* ``ds-unguarded-read`` — a scalar subscript on a bytes value that no
  dominating length check covers and no containment scope encloses.
* ``ds-unguarded-unpack`` — a ``struct.unpack`` whose buffer slice is
  not provably available (or whose width cannot match the format).
* ``ds-unguarded-decode`` — ``.decode(...)`` without ``errors=`` and
  without a containment scope: one bad byte raises
  ``UnicodeDecodeError`` out of the parser.
* ``ds-loop-progress`` — a ``while`` loop with a body path back to the
  header along which no loop variable provably advances: a crafted
  payload pins the agent.
* ``ds-broad-except`` — an ``except`` clause in ``repro.protocols`` or
  ``repro.apps`` catching ``Exception``/``BaseException`` (or bare):
  containment must name the parse-error types (``ValueError``,
  ``IndexError``, ``struct.error``, ``UnicodeDecodeError``) so
  programming errors surface instead of reading as malformed payloads,
  and the app runtime's teardown paths must name what ``Kernel.close``
  raises (``KernelError``) instead of hiding everything behind it.

Scope: byte-access rules run over the call-graph closure of every
``ProtocolSpec`` subclass's ``parse``/``infer`` (the same registry the
fuzz suite enumerates — see :func:`dissector_entry_points`); the
broad-except rule covers the whole protocols and apps packages.  Guard proofs
come from the :mod:`tools.analyze.dataflow` guard domain: branch-edge
facts, ``and``/``or`` short-circuit facts inside one expression, slice
derivations, and unique-definition substitution (so ``offset = 10 +
client_len`` guarded by ``10 + client_len + 2 <= len(body)`` proves
``body[offset:offset+2]``).  Containment is a ``try`` whose handler
covers the hazard's exception type, checked in the function itself or —
for helpers — at every call site inside the closure (depth ≤ 4).
"""

from __future__ import annotations

import ast
import struct as _struct
from typing import Iterator, Optional

from tools.analyze.cfg import CFG
from tools.analyze.checkers import Checker, register
from tools.analyze.dataflow import (
    GuardAnalysis, Lin, ReachingDefs, facts_from_cond, lin_of,
    nonneg_producer, proves_len_ge, solve_forward)
from tools.analyze.findings import Finding
from tools.analyze.project import ClassInfo, FunctionInfo, Project

CHECKER_NAME = "dissector-safety"

PROTOCOLS_PACKAGE = "protocols"
SPEC_BASE_CLASS = "ProtocolSpec"
ENTRY_METHODS = ("parse", "infer")

#: hazard kind → exception names whose handler contains it.
COVERS = {
    "index": frozenset({"IndexError", "LookupError", "Exception",
                        "BaseException"}),
    "struct": frozenset({"struct.error", "Exception", "BaseException"}),
    "decode": frozenset({"UnicodeDecodeError", "UnicodeError",
                         "ValueError", "Exception", "BaseException"}),
}

BROAD_TYPES = frozenset({"Exception", "BaseException"})
#: Packages where no handler may catch :data:`BROAD_TYPES`.
NARROW_EXCEPT_PACKAGES = (PROTOCOLS_PACKAGE, "apps")

_INTERPROC_DEPTH = 4


# ---------------------------------------------------------------------------
# Registry


def spec_classes(project: Project) -> list[ClassInfo]:
    """Every ``ProtocolSpec`` subclass defined in ``repro.protocols`` —
    the dissector registry this checker and the fuzz suite share."""
    base = None
    for cls in project.classes.values():
        if cls.name == SPEC_BASE_CLASS \
                and cls.module.package == PROTOCOLS_PACKAGE:
            base = cls
            break
    if base is None:
        return []
    return [cls for cls in project.subclasses_of(base.qualname)
            if cls.module.package == PROTOCOLS_PACKAGE]


def dissector_entry_points(project: Project) -> list[FunctionInfo]:
    """The ``parse``/``infer`` methods of every registered dissector."""
    entries: list[FunctionInfo] = []
    for cls in spec_classes(project):
        for method_name in ENTRY_METHODS:
            method = cls.methods.get(method_name)
            if method is not None:
                entries.append(method)
    return entries


# ---------------------------------------------------------------------------
# Per-function facts: bytes-typed names, containment ranges


def bytes_typed_names(func: ast.FunctionDef | ast.AsyncFunctionDef
                      ) -> set[str]:
    """Names holding ``bytes`` in *func*: annotated parameters, plus
    aliases and slices of already-bytes names (to a fixpoint)."""
    names: set[str] = set()
    args = func.args
    for arg in (args.posonlyargs + args.args + args.kwonlyargs):
        ann = arg.annotation
        if isinstance(ann, ast.Name) and ann.id == "bytes":
            names.add(arg.arg)
    for _ in range(4):
        added = False
        for node in ast.walk(func):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            target = node.targets[0].id
            value = node.value
            derived = (
                (isinstance(value, ast.Name) and value.id in names)
                or (isinstance(value, ast.Subscript)
                    and isinstance(value.slice, ast.Slice)
                    and isinstance(value.value, ast.Name)
                    and value.value.id in names))
            if derived and target not in names:
                names.add(target)
                added = True
        if not added:
            break
    return names


def _handler_type_names(handler: ast.ExceptHandler) -> frozenset[str]:
    if handler.type is None:
        return frozenset({"BaseException"})
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names: set[str] = set()
    for node in types:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name):
            names.add(f"{node.value.id}.{node.attr}")
    return frozenset(names)


def containment_ranges(func: ast.AST
                       ) -> list[tuple[int, int, frozenset[str]]]:
    """(first line, last line, caught names) for every ``try`` body."""
    ranges: list[tuple[int, int, frozenset[str]]] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Try) or not node.body:
            continue
        start = node.body[0].lineno
        end = max(getattr(stmt, "end_lineno", stmt.lineno)
                  for stmt in node.body)
        caught: set[str] = set()
        for handler in node.handlers:
            caught.update(_handler_type_names(handler))
        ranges.append((start, end, frozenset(caught)))
    return ranges


# ---------------------------------------------------------------------------
# The checker


class _Hazard:
    __slots__ = ("kind", "line", "message")

    def __init__(self, kind: str, line: int, message: str):
        self.kind = kind
        self.line = line
        self.message = message


class _FunctionScan:
    """One closure function's hazard scan over its solved guard facts."""

    def __init__(self, info: FunctionInfo):
        self.info = info
        self.node = info.node
        self.cfg = CFG(info.node)
        self.rdefs = ReachingDefs(info.node)
        self.bytes_names = bytes_typed_names(info.node)
        self.states = solve_forward(self.cfg, GuardAnalysis())
        self.ranges = containment_ranges(info.node)
        self.hazards: list[_Hazard] = []
        self._scan()

    # -- traversal ---------------------------------------------------------

    def _scan(self) -> None:
        analysis = GuardAnalysis()
        for block in self.cfg.blocks:
            state = self.states.get(block.id)
            if state is None:
                continue
            for stmt in block.stmts:
                for expr in _stmt_exprs(stmt):
                    self._scan_expr(expr, state)
                state = analysis.transfer_stmt(stmt, state)
            seen_conds: set[int] = set()
            for edge in block.edges:
                if edge.cond is not None \
                        and id(edge.cond) not in seen_conds:
                    seen_conds.add(id(edge.cond))
                    self._scan_expr(edge.cond, state)

    def _scan_expr(self, expr: ast.expr, state: frozenset) -> None:
        if isinstance(expr, ast.BoolOp):
            branch = isinstance(expr.op, ast.Or)
            # In ``A and B``, B runs with A known true; in ``A or B``,
            # B runs with A known false.
            acc = state
            for value in expr.values:
                self._scan_expr(value, acc)
                acc = acc | facts_from_cond(value, not branch)
            return
        if isinstance(expr, ast.IfExp):
            self._scan_expr(expr.test, state)
            self._scan_expr(expr.body,
                            state | facts_from_cond(expr.test, True))
            self._scan_expr(expr.orelse,
                            state | facts_from_cond(expr.test, False))
            return
        if isinstance(expr, ast.Subscript):
            self._check_subscript(expr, state)
        elif isinstance(expr, ast.Call):
            self._check_call(expr, state)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._scan_expr(child, state)
            elif isinstance(child, ast.comprehension):
                self._scan_expr(child.iter, state)
                for cond in child.ifs:
                    self._scan_expr(cond, state)

    # -- hazard checks -----------------------------------------------------

    def _check_subscript(self, node: ast.Subscript,
                         state: frozenset) -> None:
        if isinstance(node.slice, ast.Slice):
            return  # slices clamp; they cannot raise
        if not isinstance(node.value, ast.Name) \
                or node.value.id not in self.bytes_names:
            return
        if not isinstance(node.ctx, ast.Load):
            return
        base = node.value.id
        idx = lin_of(node.slice)
        proven = False
        if idx is not None:
            if idx.is_const and idx.const < 0:
                proven = proves_len_ge(state, base, Lin(-idx.const),
                                       self.rdefs)
            else:
                proven = proves_len_ge(state, base, idx + Lin(1),
                                       self.rdefs)
        if not proven:
            self.hazards.append(_Hazard(
                "index", node.lineno,
                f"byte read {base}[...] has no dominating length "
                f"guard and no containment scope"))

    def _check_call(self, node: ast.Call, state: frozenset) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "decode":
            if not any(kw.arg == "errors" for kw in node.keywords):
                self.hazards.append(_Hazard(
                    "decode", node.lineno,
                    ".decode() without errors= can raise "
                    "UnicodeDecodeError on arbitrary payload bytes"))
            return
        if not (isinstance(func, ast.Attribute)
                and func.attr in ("unpack", "unpack_from")
                and isinstance(func.value, ast.Name)
                and func.value.id == "struct"):
            return
        if not (node.args and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and len(node.args) >= 2):
            return
        try:
            size = _struct.calcsize(node.args[0].value)
        except _struct.error:
            return
        if func.attr == "unpack_from":
            self._check_unpack_from(node, state, size)
            return
        arg = node.args[1]
        if isinstance(arg, ast.Subscript) \
                and isinstance(arg.slice, ast.Slice) \
                and isinstance(arg.value, ast.Name):
            self._check_unpack_slice(node, arg, state, size)
            return
        # A non-slice buffer needs an exact-length proof the guard
        # domain cannot express; require containment.
        self.hazards.append(_Hazard(
            "struct", node.lineno,
            f"struct.unpack({node.args[0].value!r}, ...) on a buffer "
            f"of unproven length"))

    def _check_unpack_slice(self, node: ast.Call, arg: ast.Subscript,
                            state: frozenset, size: int) -> None:
        base = arg.value.id
        sl = arg.slice
        lower = lin_of(sl.lower) if sl.lower is not None else Lin(0)
        upper = lin_of(sl.upper) if sl.upper is not None else None
        fmt = node.args[0].value
        if lower is None or upper is None:
            self.hazards.append(_Hazard(
                "struct", node.lineno,
                f"struct.unpack({fmt!r}, {base}[...]) slice bounds "
                f"are not analyzable; guard or contain it"))
            return
        width = upper - lower
        if width.is_const and width.const != size:
            # The slice can never produce calcsize(fmt) bytes even on a
            # long payload: an always-wrong width, not a guard issue.
            self.hazards.append(_Hazard(
                "struct", node.lineno,
                f"struct.unpack({fmt!r}) needs {size} bytes but the "
                f"slice width is {width.const}"))
            return
        if not proves_len_ge(state, base, upper, self.rdefs):
            self.hazards.append(_Hazard(
                "struct", node.lineno,
                f"struct.unpack({fmt!r}, {base}[...]) may see a short "
                f"slice: len({base}) >= {upper} is not proven"))

    def _check_unpack_from(self, node: ast.Call, state: frozenset,
                           size: int) -> None:
        offset = lin_of(node.args[2]) if len(node.args) >= 3 else Lin(0)
        fmt = node.args[0].value
        buf = node.args[1]
        if offset is None or not isinstance(buf, ast.Name):
            self.hazards.append(_Hazard(
                "struct", node.lineno,
                f"struct.unpack_from({fmt!r}, ...) bounds are not "
                f"analyzable; guard or contain it"))
            return
        if not proves_len_ge(state, buf.id, offset + Lin(size),
                             self.rdefs):
            self.hazards.append(_Hazard(
                "struct", node.lineno,
                f"struct.unpack_from({fmt!r}, {buf.id}, ...) is not "
                f"proven to have {size} bytes available"))

    # -- loop progress -----------------------------------------------------

    def loop_findings(self) -> Iterator[_Hazard]:
        nonneg = self._function_nonneg_names()
        for loop in self.cfg.loops:
            if not loop.is_while:
                continue  # `for` over a finite iterable terminates
            test = loop.node.test
            infinite = (isinstance(test, ast.Constant)
                        and test.value is True)
            test_names: Optional[set[str]] = None
            if not infinite:
                test_names = {n.id for n in ast.walk(test)
                              if isinstance(n, ast.Name)}
            progress_blocks = {
                block_id for block_id in loop.body_blocks
                if any(self._is_progress(stmt, test_names, nonneg)
                       for stmt in self.cfg.blocks[block_id].stmts)}
            if self._progress_free_cycle(loop, progress_blocks):
                yield _Hazard(
                    "loop", loop.node.lineno,
                    "while loop has an iteration path that provably "
                    "advances no loop variable — a crafted payload "
                    "can pin the parser")

    def _function_nonneg_names(self) -> set[str]:
        """Names every one of whose assignments provably yields a
        non-negative int (bytes-subscript reads count: 0..255)."""
        producers: dict[str, bool] = {}
        for node in ast.walk(self.node):
            if not (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            value = node.value
            ok = nonneg_producer(value) or (
                isinstance(value, ast.Subscript)
                and not isinstance(value.slice, ast.Slice)
                and isinstance(value.value, ast.Name)
                and value.value.id in self.bytes_names)
            producers[name] = producers.get(name, True) and ok
        return {name for name, ok in producers.items() if ok}

    def _is_progress(self, stmt: ast.stmt,
                     test_names: Optional[set[str]],
                     nonneg: set[str]) -> bool:
        if not (isinstance(stmt, ast.AugAssign)
                and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.op, (ast.Add, ast.Sub))):
            return False
        if test_names is not None and stmt.target.id not in test_names:
            return False
        lin = lin_of(stmt.value)
        if lin is None or lin.const < 1:
            return False
        return all(name in nonneg for name in lin.names())

    def _progress_free_cycle(self, loop, progress_blocks: set[int]
                             ) -> bool:
        """Can the body reach a back edge without passing progress?"""
        header_id = loop.header.id
        entry_ids = [edge.target.id for edge in loop.header.edges
                     if edge.target.id in loop.body_blocks]
        seen: set[int] = set()
        stack = [bid for bid in entry_ids if bid not in progress_blocks]
        while stack:
            bid = stack.pop()
            if bid in seen:
                continue
            seen.add(bid)
            for edge in self.cfg.blocks[bid].edges:
                target = edge.target.id
                if target == header_id:
                    return True
                if target in loop.body_blocks \
                        and target not in progress_blocks:
                    stack.append(target)
        return False


def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Expressions to hazard-scan for *stmt*.  Compound statements yield
    only their header expressions: their bodies live in other CFG blocks
    (and ``if``/``while`` tests arrive via edge conditions)."""
    if isinstance(stmt, (ast.While, ast.If)):
        return  # test is scanned from the edge conditions
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.iter
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
        return
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            yield child


@register
class DissectorSafetyChecker(Checker):
    name = CHECKER_NAME
    description = ("provable byte-access guards, loop progress, and "
                   "narrow containment in repro.protocols dissectors")

    def run(self, project: Project) -> Iterator[Finding]:
        entries = dissector_entry_points(project)
        closure = project.reachable_from(
            {entry.qualname for entry in entries})
        scans: dict[str, _FunctionScan] = {}
        for qualname in sorted(closure):
            info = project.functions.get(qualname)
            if info is None or info.module.package != PROTOCOLS_PACKAGE:
                continue
            scans[qualname] = _FunctionScan(info)
        contained_cache: dict[tuple[str, str], bool] = {}
        for qualname, scan in scans.items():
            info = scan.info
            path = info.module.rel_display(project.repo_root)
            for hazard in scan.hazards:
                if self._contained(project, scans, contained_cache,
                                   qualname, hazard.kind, hazard.line,
                                   _INTERPROC_DEPTH):
                    continue
                yield Finding(
                    path=path, line=hazard.line, checker=self.name,
                    rule=f"ds-unguarded-{_RULE_OF[hazard.kind]}",
                    message=hazard.message, function=qualname)
            for hazard in scan.loop_findings():
                yield Finding(
                    path=path, line=hazard.line, checker=self.name,
                    rule="ds-loop-progress", message=hazard.message,
                    function=qualname)
        yield from self._broad_excepts(project)

    # -- containment -------------------------------------------------------

    def _contained(self, project: Project,
                   scans: dict[str, "_FunctionScan"],
                   cache: dict[tuple[str, str], bool],
                   qualname: str, kind: str, line: int,
                   depth: int) -> bool:
        scan = scans.get(qualname)
        if scan is not None and _locally_contained(scan.ranges, kind,
                                                   line):
            return True
        if depth <= 0:
            return False
        key = (qualname, kind)
        if key in cache:
            return cache[key]
        cache[key] = False  # break call cycles conservatively
        sites = project.call_sites.get(qualname, ())
        in_closure = [site for site in sites
                      if site[0].qualname in scans]
        if not in_closure:
            return False
        contained = all(
            _locally_contained(scans[caller.qualname].ranges, kind,
                               call.lineno)
            or self._contained(project, scans, cache, caller.qualname,
                               kind, call.lineno, depth - 1)
            for caller, call in in_closure)
        cache[key] = contained
        return contained

    # -- broad handlers ----------------------------------------------------

    def _broad_excepts(self, project: Project) -> Iterator[Finding]:
        for module in project.modules.values():
            if module.package not in NARROW_EXCEPT_PACKAGES:
                continue
            path = module.rel_display(project.repo_root)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                caught = _handler_type_names(node)
                if node.type is None or (caught & BROAD_TYPES):
                    what = ("bare except" if node.type is None
                            else "except "
                                 + "/".join(sorted(caught & BROAD_TYPES)))
                    yield Finding(
                        path=path, line=node.lineno, checker=self.name,
                        rule="ds-broad-except",
                        message=(f"{what} swallows programming errors "
                                 f"— name the types the handler can "
                                 f"act on (parsers: ValueError/"
                                 f"IndexError/struct.error/"
                                 f"UnicodeDecodeError; apps: "
                                 f"KernelError/ConnectionError)"))


_RULE_OF = {"index": "read", "struct": "unpack", "decode": "decode"}


def _locally_contained(ranges, kind: str, line: int) -> bool:
    covers = COVERS[kind]
    return any(start <= line <= end and (caught & covers)
               for start, end, caught in ranges)
