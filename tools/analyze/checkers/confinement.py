"""Shared-state confinement checker.

The ROADMAP's sharded store is only possible if every
store mutation flows through :class:`SpanStore`'s public API — a single
``store._tail.append(...)`` from the agent or an analysis script pins
the in-memory representation forever.  This checker makes the
boundary structural:

* ``confinement`` — a module outside ``repro.server`` reads or writes a
  private attribute of :class:`SpanStore` or :class:`TraceGraphIndex`.

The protected attribute surface is *derived*, not hard-coded: it is the
set of ``self._name`` attributes the protected classes themselves
assign (``ClassInfo.private_attrs``), so adding a new internal field
extends the protection automatically.  Accesses through ``self``/
``cls`` are exempt — confinement is about reaching into *another
object's* internals, and same-named private state on unrelated classes
is their own business.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.analyze.checkers import Checker, register
from tools.analyze.findings import Finding
from tools.analyze.project import Project

CHECKER_NAME = "confinement"

#: Class names whose private state is confined, and the sole package
#: allowed to touch it.
PROTECTED_CLASSES = ("SpanStore", "TraceGraphIndex")
OWNER_PACKAGE = "server"


def protected_attrs(project: Project) -> dict[str, str]:
    """private attribute name → owning class name, derived from the
    protected classes' own ``self._x = ...`` assignments."""
    surface: dict[str, str] = {}
    for cls in project.classes.values():
        if cls.name in PROTECTED_CLASSES \
                and cls.module.package == OWNER_PACKAGE:
            for attr in cls.private_attrs:
                surface[attr] = cls.name
    return surface


@register
class ConfinementChecker(Checker):
    name = CHECKER_NAME
    description = ("no module outside repro.server may touch SpanStore/"
                   "TraceGraphIndex private state")

    def run(self, project: Project) -> Iterator[Finding]:
        surface = protected_attrs(project)
        if not surface:
            return
        for module in project.modules.values():
            if module.package == OWNER_PACKAGE:
                continue
            path = module.rel_display(project.repo_root)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Attribute):
                    continue
                owner = surface.get(node.attr)
                if owner is None:
                    continue
                base = node.value
                if isinstance(base, ast.Name) and base.id in ("self",
                                                              "cls"):
                    continue
                verb = ("writes" if isinstance(
                    node.ctx, (ast.Store, ast.Del)) else "reads")
                yield Finding(
                    path=path, line=node.lineno, checker=self.name,
                    rule="confinement",
                    message=(f"{verb} {owner} internal .{node.attr} "
                             f"from outside repro.server — go through "
                             f"the public store API"),
                    function=_enclosing_function(module, node))


def _enclosing_function(module, node: ast.AST) -> str:
    """Qualname of the function containing *node*, best-effort."""
    target_line = getattr(node, "lineno", 0)
    best = ""
    best_line = -1
    for info in module.functions.values():
        if info.node.lineno <= target_line and info.node.lineno > best_line:
            end = getattr(info.node, "end_lineno", info.node.lineno)
            if target_line <= end:
                best, best_line = info.qualname, info.node.lineno
    for cls in module.classes.values():
        for info in cls.methods.values():
            if info.node.lineno <= target_line \
                    and info.node.lineno > best_line:
                end = getattr(info.node, "end_lineno", info.node.lineno)
                if target_line <= end:
                    best, best_line = info.qualname, info.node.lineno
    return best
