"""``python -m benchmarks.e2e run|compare`` — repeats and comparison.

``run`` executes ``run.py`` once per workload × repeat, each in a fresh
subprocess and rotating the workload order between repeats (so no
workload always runs on a warm or a cold machine), prints median and
quartiles per metric, and fails when an output check fails or two runs
of one seed disagree on the sim digest.  ``compare`` applies the
regression bounds to two saved result files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import run as run_module  # puts src/ on sys.path
from benchmarks.e2e import harness

RUN_PY = Path(run_module.__file__)


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             out_dir: Path) -> dict:
    """One subprocess run; returns its result, detail and exit code."""
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--out", str(out_dir)],
        cwd=harness.ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail: "):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload}: run.py exited {done.returncode} "
                         f"without a result")
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit_code": done.returncode,
            "result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2][len("detail: "):])}


def metric_values(record: dict) -> dict[str, dict]:
    """Every metric one run reported, diagnostics included."""
    return {**record["result"]["metrics"],
            **record["detail"].get("diagnostics", {})}


def summarise(records: list[dict]) -> dict:
    """(workload, traced, metric) → unit and the values of all repeats."""
    table: dict[tuple, dict] = {}
    for record in records:
        for name, metric in metric_values(record).items():
            key = (record["workload"], record["trace"], name)
            entry = table.setdefault(key, {"unit": metric["unit"],
                                           "values": []})
            entry["values"].append(metric["value"])
    return table


def print_summary(records: list[dict]) -> None:
    print(f"{'workload':<14} {'metric':<34} {'n':>3} {'q1':>14} "
          f"{'median':>14} {'q3':>14}  unit")
    for (workload, _traced, name), entry in summarise(records).items():
        q1, median, q3 = harness.quartiles(entry["values"])
        print(f"{workload:<14} {name:<34} {len(entry['values']):>3} "
              f"{q1:>14.4f} {median:>14.4f} {q3:>14.4f}  {entry['unit']}")


def command_run(args) -> int:
    spec = harness.load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out_dir = Path(args.out or harness.DEFAULT_OUT)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for repeat in range(args.repeats):
        shift = repeat % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            records.append(run_once(workload, args.seed, seconds, False,
                                    out_dir))
    if args.trace:
        for workload in workloads:
            records.append(run_once(workload, args.seed, seconds, True,
                                    out_dir))
    print_summary(records)
    failures = []
    digests: dict[str, set] = {}
    for record in records:
        detail = record["detail"]
        digests.setdefault(record["workload"], set()).add(detail["digest"])
        if not record["result"]["correct"] or record["exit_code"]:
            failures.append(f"{record['workload']}: " + "; ".join(
                detail["problems"] or [f"exit {record['exit_code']}"]))
        if record["trace"]:
            print(f"{record['workload']}: top layers by self time: "
                  + ", ".join(detail["top_layers"]))
    for workload, seen in digests.items():
        print(f"{workload}: seed {args.seed} sim digest "
              + " ".join(sorted(seen)))
        if len(seen) != 1:
            failures.append(f"{workload}: runs of seed {args.seed} "
                            f"differ in their simulated statistics")
    results = out_dir / "results.json"
    with open(results, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": seconds,
                   "records": records}, handle, indent=1)
    print(f"results: {results}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def gates(spec: dict) -> list[tuple]:
    """(metric, better, bound, workloads) for everything ``compare``
    gates: the contract's end-to-end metrics on every workload, and the
    workload-specific ones where they apply."""
    everywhere = tuple(w["name"] for w in spec["workloads"])
    rows = [(m["name"], m["better"], m["bound"], everywhere)
            for m in spec["end_to_end"]]
    rows += [(name, better, bound, where) for name, (better, bound, where)
             in harness.WORKLOAD_GATES.items()]
    return rows


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """Classify one metric × workload; returns (verdict, change), the
    change being the share of the base median by which *new* is worse
    (negative: better).  Improved means better by more than the spread
    between the base's own runs; unresolved means neither side moved
    but a spread is wider than the bound, so "unchanged" is unproven."""
    b_q1, b_med, b_q3 = harness.quartiles(base)
    n_q1, n_med, n_q3 = harness.quartiles(new)
    if not b_med:
        return ("unchanged" if not n_med else "regressed"), 0.0
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (n_med - b_med) / b_med
    base_spread = (b_q3 - b_q1) / b_med
    if worse > bound:
        return "regressed", worse
    if worse < 0 and -worse > base_spread:
        return "improved", worse
    if max(base_spread, (n_q3 - n_q1) / b_med) > bound:
        return "unresolved", worse
    return "unchanged", worse


def command_compare(args) -> int:
    spec = harness.load_spec()
    tables = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as handle:
            records = [r for r in json.load(handle)["records"]
                       if not r["trace"]]
        tables.append(summarise(records))
    base, new = tables
    print(f"{'workload':<14} {'metric':<24} {'base':>14} {'new':>14} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    regressed = 0
    for name, better, bound, workloads in gates(spec):
        for workload in workloads:
            key = (workload, False, name)
            if key not in base or key not in new:
                continue
            outcome, worse = verdict(base[key]["values"],
                                     new[key]["values"], better, bound)
            regressed += outcome == "regressed"
            print(f"{workload:<14} {name:<24} "
                  f"{harness.quartiles(base[key]['values'])[1]:>14.4f} "
                  f"{harness.quartiles(new[key]['values'])[1]:>14.4f} "
                  f"{worse:>+9.1%} {bound:>6.0%}  {outcome}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, print metrics")
    run.add_argument("--workload", action="append",
                     help="repeatable; default: all four")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None,
                     help="measuring time per run (default: "
                          "BENCHMARK.json run_seconds)")
    run.add_argument("--trace", action="store_true",
                     help="add one traced run per workload")
    run.add_argument("--out", default=None,
                     help="directory for results.json and the traces "
                          "(default: .bench_build/e2e)")
    run.set_defaults(handler=command_run)
    compare = commands.add_parser(
        "compare", help="apply the regression bounds to two result files")
    compare.add_argument("base")
    compare.add_argument("new")
    compare.set_defaults(handler=command_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
