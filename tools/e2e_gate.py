"""CI's one performance gate: merge-base against head, end to end.

    python tools/e2e_gate.py BASE_TREE HEAD_TREE OUT_DIR

Runs ``python -m benchmarks.e2e run --seed 1 --seconds 5`` in both
checkouts for :data:`PAIRS` pairs — base first on even pairs, head
first on odd ones, so neither side always meets the warmer machine —
concatenates each side's records into ``OUT_DIR/base.json`` and
``OUT_DIR/head.json``, and exits with head's ``python -m benchmarks.e2e
compare base.json head.json``.  Both sides are measured in one job on
one machine: no committed wall-clock figure is involved.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

PAIRS = 3
RUN_ARGS = ("run", "--seed", "1", "--seconds", "5")


def e2e(tree: Path, *args: str) -> int:
    """``python -m benchmarks.e2e ARGS`` inside *tree*; its exit code."""
    return subprocess.run([sys.executable, "-m", "benchmarks.e2e", *args],
                          cwd=tree, check=False).returncode


def gate(base: Path, head: Path, out: Path, runner=e2e) -> int:
    """Measure both trees alternately, merge, compare; the exit code."""
    trees = {"base": base, "head": head}
    records: dict[str, list] = {"base": [], "head": []}
    for pair in range(PAIRS):
        for side in (("base", "head") if pair % 2 == 0
                     else ("head", "base")):
            run_dir = out / f"{side}-{pair}"
            code = runner(trees[side], *RUN_ARGS, "--out", str(run_dir))
            if code:  # an output check failed or two digests differ
                return code
            with open(run_dir / "results.json", encoding="utf-8") as handle:
                records[side] += json.load(handle)["records"]
    for side, merged in records.items():
        with open(out / f"{side}.json", "w", encoding="utf-8") as handle:
            json.dump({"records": merged}, handle, indent=1)
    return runner(head, "compare", str(out / "base.json"),
                  str(out / "head.json"))


if __name__ == "__main__":
    base_tree, head_tree, out_dir = (Path(arg).resolve()
                                     for arg in sys.argv[1:4])
    sys.exit(gate(base_tree, head_tree, out_dir))
