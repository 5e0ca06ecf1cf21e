"""tools/e2e_gate.py: run order and record merge, with a stub runner."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.e2e_gate import PAIRS, RUN_ARGS, gate  # noqa: E402


class StubRunner:
    """Stands in for ``python -m benchmarks.e2e``: a ``run`` writes one
    record naming its tree into ``--out``; every call is logged."""

    def __init__(self, fail_on_call=None, compare_code=0):
        self.calls = []
        self.fail_on_call = fail_on_call
        self.compare_code = compare_code

    def __call__(self, tree, *args):
        self.calls.append((tree.name, args))
        if args[0] == "compare":
            return self.compare_code
        if len(self.calls) == self.fail_on_call:
            return 1
        assert args[:len(RUN_ARGS)] == RUN_ARGS
        run_dir = Path(args[args.index("--out") + 1])
        run_dir.mkdir(parents=True)
        record = {"workload": "w", "trace": False,
                  "tree": tree.name, "call": len(self.calls)}
        (run_dir / "results.json").write_text(
            json.dumps({"seed": 1, "records": [record]}))
        return 0


def test_sides_alternate_and_records_merge(tmp_path):
    runner = StubRunner(compare_code=1)
    out = tmp_path / "out"
    code = gate(tmp_path / "base", tmp_path / "head", out, runner=runner)
    assert PAIRS == 3
    runs = [tree for tree, args in runner.calls if args[0] == "run"]
    # Base first on even pairs, head first on odd ones.
    assert runs == ["base", "head", "head", "base", "base", "head"]
    for side, calls in (("base", [1, 4, 5]), ("head", [2, 3, 6])):
        merged = json.loads((out / f"{side}.json").read_text())["records"]
        assert [record["call"] for record in merged] == calls
        assert {record["tree"] for record in merged} == {side}
    # Head's compare judges, base file first; its exit code is the gate's.
    assert runner.calls[-1] == ("head", ("compare", str(out / "base.json"),
                                         str(out / "head.json")))
    assert code == 1
    assert gate(tmp_path / "base", tmp_path / "head", tmp_path / "out2",
                runner=StubRunner()) == 0


def test_failed_run_fails_the_gate_without_comparing(tmp_path):
    runner = StubRunner(fail_on_call=3)
    assert gate(tmp_path / "base", tmp_path / "head", tmp_path / "out",
                runner=runner) == 1
    assert len(runner.calls) == 3
    assert not (tmp_path / "out" / "head.json").exists()
