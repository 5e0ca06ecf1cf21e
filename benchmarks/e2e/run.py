"""Driver entry point: one workload, one process, one result line.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, a ``detail:`` line (sim
digest, pass count, host facts), and as the last line the result record.
Exits 1 when the output check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# The program under test lives in src/ and this package is addressed
# from the repository root; the driver's command sets no PYTHONPATH.
for _entry in (ROOT / "src", ROOT):
    if str(_entry) not in sys.path:
        sys.path.insert(0, str(_entry))


def main(argv=None) -> int:
    from benchmarks.e2e import harness
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time (whole passes, at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for the traced run's span "
                             "aggregate (default: .bench_build/e2e)")
    args = parser.parse_args(argv)
    result, detail = harness.measure(args.workload, args.seed, args.seconds,
                                     bool(args.trace), out_dir=args.out)
    shown = {**result["metrics"], **detail.get("diagnostics", {})}
    for name, metric in shown.items():
        print(f"{args.workload:<14} {name:<34} {metric['value']:>16.4f} "
              f"{metric['unit']}")
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}")
    print("detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
