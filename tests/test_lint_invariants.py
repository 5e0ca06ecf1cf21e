"""The determinism/layering lint, run as part of the tier-1 suite.

The *discipline* checker of ``tools.analyze`` turns two DESIGN.md §5
rules into static checks: no wall-clock or unseeded randomness outside
``repro.sim``, and no layering violations (in particular no agent/server
import of ``repro.apps`` — the "no tracing back-channel" rule).  These
tests (a) keep the shipped tree clean, and (b) pin the rules' detection
behaviour so the invariants cannot silently rot.
"""

import ast
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.analyze import DEFAULT_ROOT, run_analysis  # noqa: E402
from tools.analyze.checkers.discipline import lint_module  # noqa: E402
from tools.analyze.findings import suppressed  # noqa: E402

LINT_CLI = [sys.executable, "-m", "tools.analyze", "--checkers",
            "discipline"]


def lint_source(source: str, path: str, package: str) -> list:
    """The determinism/layering findings for one module's *source*;
    *package* is its repro subpackage."""
    lines = source.splitlines()
    return [finding for finding in lint_module(
                ast.parse(source, filename=path), path, package,
                assert_rule=False)
            if not suppressed(lines, finding.line)]


class TestShippedTreeIsClean:
    def test_src_repro_has_no_violations(self):
        violations = run_analysis(DEFAULT_ROOT, ["discipline"]).findings
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_cli_exits_zero_on_shipped_tree(self):
        proc = subprocess.run(
            LINT_CLI, capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestDeterminismRule:
    def test_wall_clock_call_flagged(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        violations = lint_source(source, "agent/x.py", "agent")
        assert len(violations) == 1
        assert violations[0].rule == "determinism"
        assert "time.time" in violations[0].message

    def test_from_import_alias_flagged(self):
        source = ("from time import monotonic as mono\n"
                  "def f():\n    return mono()\n")
        violations = lint_source(source, "server/x.py", "server")
        assert [v.rule for v in violations] == ["determinism"]

    def test_module_level_random_flagged(self):
        source = "import random\nJITTER = random.random()\n"
        violations = lint_source(source, "network/x.py", "network")
        assert [v.rule for v in violations] == ["determinism"]

    def test_sim_package_exempt(self):
        source = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(source, "sim/clock.py", "sim") == []

    def test_annotation_not_flagged(self):
        source = ("import random\n"
                  "def f(rng: random.Random) -> int:\n"
                  "    return rng.randrange(4)\n")
        assert lint_source(source, "core/x.py", "core") == []

    def test_lint_ok_suppression(self):
        source = ("import time\n"
                  "def f():\n"
                  "    return time.time()  # lint: ok\n")
        assert lint_source(source, "agent/x.py", "agent") == []


class TestLayeringRule:
    def test_agent_importing_apps_is_back_channel(self):
        source = "from repro.apps.http_app import HTTPServerApp\n"
        violations = lint_source(source, "agent/x.py", "agent")
        assert len(violations) == 1
        assert violations[0].rule == "layering"
        assert "back-channel" in violations[0].message

    def test_server_importing_apps_is_back_channel(self):
        source = "import repro.apps.topology\n"
        violations = lint_source(source, "server/x.py", "server")
        assert [v.rule for v in violations] == ["layering"]

    def test_function_level_import_flagged(self):
        source = ("def sneak():\n"
                  "    from repro.apps import topology\n"
                  "    return topology\n")
        violations = lint_source(source, "agent/x.py", "agent")
        assert [v.rule for v in violations] == ["layering"]

    def test_allowed_import_passes(self):
        source = "from repro.kernel.ebpf import BPFProgram\n"
        assert lint_source(source, "agent/x.py", "agent") == []


class TestSeededViolationTripsCLI:
    """End-to-end: inject time.time() into a copy of the tree → exit 1."""

    def test_cli_exits_nonzero_on_seeded_violation(self, tmp_path):
        seeded = tmp_path / "repro"
        shutil.copytree(DEFAULT_ROOT, seeded)
        victim = seeded / "agent" / "seeded_violation.py"
        victim.write_text(
            "import time\n\n\ndef now() -> float:\n"
            "    return time.time()\n", encoding="utf-8")
        proc = subprocess.run(
            [*LINT_CLI, str(seeded)],
            capture_output=True, text=True, cwd=REPO_ROOT)
        assert proc.returncode == 1
        assert "seeded_violation.py" in proc.stdout
        assert "determinism" in proc.stdout
