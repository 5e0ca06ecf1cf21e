"""Discipline checker: determinism, layering, and runtime asserts.

The determinism and layering rules of the original standalone lint
(same rule ids, same message text) on the shared engine, plus one newer
rule:

* ``determinism`` — wall-clock / RNG calls outside ``repro.sim``, and
  builtin ``hash()`` anywhere: string hashes are salted per process
  (``PYTHONHASHSEED``), so a value derived from one differs from run to
  run.  A ``__hash__`` method may call it — the result never leaves the
  process.
* ``layering`` — imports that cross the package layering matrix,
  including the agent/server → apps tracing back-channel.
* ``runtime-assert`` — bare ``assert`` used for runtime validation in
  library code.  Asserts vanish under ``python -O``; production checks
  must be explicit raises.  (Tests live outside ``src/repro`` and are
  never scanned.)

The per-module entry point :func:`lint_module` operates on a parsed
tree, so ``tests/test_lint_invariants.py`` can run the rules on source
strings without building a :class:`~tools.analyze.project.Project`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.analyze.checkers import Checker, register
from tools.analyze.findings import Finding
from tools.analyze.project import Project

CHECKER_NAME = "discipline"

#: Wall-clock / nondeterminism sources: module → banned attributes
#: (``*`` = every callable attribute of the module).
BANNED_CALLS = {
    "time": {"time", "time_ns", "monotonic", "monotonic_ns",
             "perf_counter", "perf_counter_ns", "sleep", "clock_gettime"},
    "datetime": {"now", "utcnow", "today"},
    "random": {"*"},
    "secrets": {"*"},
    "uuid": {"uuid1", "uuid4"},
    "os": {"urandom", "getrandom"},
}

#: Packages exempt from the determinism/RNG rules: repro.sim owns the
#: seeded RNG and the virtual clock.
DETERMINISM_EXEMPT = {"sim"}

#: Layering: package → packages it may import from ``repro.*``.
#: Anything absent means "may import nothing from repro".  The agent and
#: server knowing nothing about repro.apps is the paper's zero-code
#: claim made structural: the tracer cannot reach into application state.
ALLOWED_IMPORTS = {
    "sim": {"sim"},
    "core": {"core", "sim"},
    "kernel": {"kernel", "network", "sim", "core"},
    "network": {"kernel", "network", "sim", "core"},
    "protocols": {"protocols", "core", "sim"},
    "agent": {"agent", "core", "kernel", "network", "protocols", "sim"},
    "server": {"server", "agent", "core", "kernel", "network",
               "protocols", "sim"},
    "apps": {"apps", "kernel", "network", "protocols", "sim", "core"},
    "baselines": {"baselines", "core", "sim"},
    "survey": {"survey", "core"},
    "analysis": {"analysis", "agent", "apps", "baselines", "core",
                 "kernel", "network", "protocols", "server", "sim",
                 "survey"},
}

#: The planes that must never see application internals, with the design
#: rule each violation breaks (used for the error message).
BACK_CHANNEL = {
    ("agent", "apps"): "the agent may only read what the hooks expose",
    ("server", "apps"): "trace assembly must reconstruct causality "
                        "from spans alone",
}


class _ModuleLinter(ast.NodeVisitor):
    """Single-module pass collecting discipline findings."""

    def __init__(self, path: str, package: str, *,
                 assert_rule: bool = True):
        self.path = path
        self.package = package  # first component under repro/, "" at root
        self.assert_rule = assert_rule
        self.findings: list[Finding] = []
        #: local alias → banned (module, attr) from `from X import Y`.
        self._from_aliases: dict[str, tuple[str, str]] = {}
        #: local alias → banned module from `import X as Y`.
        self._module_aliases: dict[str, str] = {}
        #: enclosing ``__hash__`` definitions (builtin hash() is theirs).
        self._hash_method_depth = 0

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.path, line=getattr(node, "lineno", 0),
            checker=CHECKER_NAME, rule=rule, message=message))

    @property
    def _determinism_applies(self) -> bool:
        return self.package not in DETERMINISM_EXEMPT

    # -- imports ----------------------------------------------------------

    def _check_repro_import(self, node: ast.AST, target: str) -> None:
        parts = target.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return
        imported_pkg = parts[1]
        if not self.package:  # files directly under repro/ (public API)
            return
        allowed = ALLOWED_IMPORTS.get(self.package)
        if allowed is not None and imported_pkg not in allowed:
            reason = BACK_CHANNEL.get((self.package, imported_pkg))
            detail = (f" — no tracing back-channel: {reason}"
                      if reason else "")
            self._report(
                node, "layering",
                f"repro.{self.package} must not import "
                f"repro.{imported_pkg}{detail}")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_repro_import(node, alias.name)
            top = alias.name.split(".")[0]
            if top in BANNED_CALLS and self._determinism_applies:
                self._module_aliases[alias.asname or top] = top
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        self._check_repro_import(node, module)
        top = module.split(".")[0]
        if top in BANNED_CALLS and self._determinism_applies:
            banned = BANNED_CALLS[top]
            for alias in node.names:
                if alias.name in banned or "*" in banned:
                    self._from_aliases[alias.asname or alias.name] = \
                        (top, alias.name)
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        is_hash_method = node.name == "__hash__"
        self._hash_method_depth += is_hash_method
        self.generic_visit(node)
        self._hash_method_depth -= is_hash_method

    def visit_Call(self, node: ast.Call) -> None:
        if self._determinism_applies:
            self._check_call(node)
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash" \
                and not self._hash_method_depth:
            self._report(
                node, "determinism",
                "call to builtin hash() — str/bytes hashes are salted "
                "per process (PYTHONHASHSEED), so the value changes "
                "from run to run; use zlib.crc32 for a stable one")
        self.generic_visit(node)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            if chain:
                root = self._module_aliases.get(chain[0], chain[0])
                banned = BANNED_CALLS.get(root)
                # Only flag when the base really is the module (it was
                # imported in this file), not a same-named local object.
                if banned and chain[0] in self._module_aliases:
                    attr = chain[-1]
                    if attr in banned or "*" in banned:
                        self._report(
                            node, "determinism",
                            f"call to {'.'.join(chain)}() — "
                            f"nondeterministic outside repro.sim; use "
                            f"the simulator's clock/RNG")
        elif isinstance(func, ast.Name):
            origin = self._from_aliases.get(func.id)
            if origin is not None:
                self._report(
                    node, "determinism",
                    f"call to {func.id}() (from {origin[0]} import "
                    f"{origin[1]}) — nondeterministic outside repro.sim")

    # -- asserts -----------------------------------------------------------

    def visit_Assert(self, node: ast.Assert) -> None:
        if self.assert_rule:
            self._report(
                node, "runtime-assert",
                "bare assert used for runtime validation — asserts "
                "vanish under python -O; raise an explicit exception")
        self.generic_visit(node)


def _attr_chain(node: ast.Attribute) -> tuple[str, ...]:
    parts: list[str] = [node.attr]
    obj = node.value
    while isinstance(obj, ast.Attribute):
        parts.append(obj.attr)
        obj = obj.value
    if isinstance(obj, ast.Name):
        parts.append(obj.id)
        return tuple(reversed(parts))
    return ()


def lint_module(tree: ast.Module, path: str, package: str, *,
                assert_rule: bool = True) -> list[Finding]:
    """Run the discipline rules over one parsed module."""
    linter = _ModuleLinter(path, package, assert_rule=assert_rule)
    linter.visit(tree)
    return linter.findings


@register
class DisciplineChecker(Checker):
    name = CHECKER_NAME
    description = ("determinism (no wall clock/RNG outside repro.sim), "
                   "package layering, no runtime asserts")

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules.values():
            path = module.rel_display(project.repo_root)
            yield from lint_module(module.tree, path, module.package)
