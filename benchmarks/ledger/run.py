"""Run the performance ledger.

From the repository root::

    python3 benchmarks/ledger/run.py --seed 1                  # all four workloads
    python3 benchmarks/ledger/run.py --seed 1 --trace 1        # per-layer numbers
    python3 benchmarks/ledger/run.py --workload static_query --seed 1 --seconds 10 --trace 0
    python3 benchmarks/ledger/run.py --record                  # rewrite baseline.json
    python3 benchmarks/ledger/run.py --compare benchmarks/ledger/baseline.json
    python3 benchmarks/ledger/run.py --compare ../other-checkout   # paired runs

``PYTHONPATH=src:. python -m benchmarks.ledger`` is the same command.
With ``--workload`` the run happens in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); otherwise every workload runs in a fresh
process and the metrics are printed as a table.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

WORKLOAD_NAMES = ("static_query", "churn_streaming", "churn_process", "churn_serve")
DEFAULT_SECONDS = 15
RUN_TIMEOUT_S = 180
BASELINE = LEDGER / "baseline.json"
RECORD_RUNS = 5  # seeds per workload in baseline.json
COMPARE_PAIRS = 10  # alternating pairs per workload against another checkout


def _deadline(signum: int, frame: Any) -> None:
    raise TimeoutError(f"ledger run exceeded {RUN_TIMEOUT_S - 10}s")


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    """One workload in this process; prints the JSON result line last."""
    from benchmarks.ledger import metrics
    from benchmarks.ledger.workloads import WORKLOADS

    # a run must end within RUN_TIMEOUT_S; leave headroom for cleanup
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_TIMEOUT_S - 10)
    try:
        outcome = WORKLOADS[workload](seed=seed, seconds=seconds, traced=traced)
    finally:
        signal.alarm(0)
    for problem in outcome.problems:
        print(f"ledger: {workload}: check failed: {problem}", file=sys.stderr)
    values = outcome.layers if traced else outcome.end_to_end
    declared = metrics.PER_LAYER if traced else metrics.END_TO_END
    for metric in declared:
        print(f"{workload:16s} {metric.name:64s} {values[metric.name]:14.4f} {metric.unit}")
    correct = not outcome.problems and outcome.failed == 0
    print(metrics.result_line(correct=correct, attempted=outcome.attempted,
                              failed=outcome.failed, values=values, traced=traced), flush=True)
    return 0 if correct else 1


def _spawn(run_py: Path, workload: str, seed: int, seconds: float,
           traced: bool) -> Tuple[Optional[Dict[str, Any]], str]:
    """Run one workload in a fresh process; returns (result, stderr tail)."""
    command = [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if traced else "0"]
    try:
        completed = subprocess.run(command, cwd=run_py.parents[2], capture_output=True,
                                   text=True, timeout=RUN_TIMEOUT_S + 30)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if completed.returncode != 0 and result is not None:
        result["correct"] = False
    return result, completed.stderr.strip()[-2000:]


def run_all(seed: int, seconds: float, traced: bool) -> int:
    from benchmarks.ledger import metrics

    declared = metrics.PER_LAYER if traced else metrics.END_TO_END
    results: Dict[str, Optional[Dict[str, Any]]] = {}
    for workload in WORKLOAD_NAMES:
        results[workload], errors = _spawn(LEDGER / "run.py", workload, seed, seconds, traced)
        if errors:
            print(f"--- {workload} stderr ---\n{errors}", file=sys.stderr)
    header = f"{'metric':64s} {'unit':6s}" + "".join(f"{w:>18s}" for w in WORKLOAD_NAMES)
    print(header)
    for metric in declared:
        cells = []
        for workload in WORKLOAD_NAMES:
            result = results[workload]
            cells.append(f"{result['metrics'][metric.name]['value']:18.4f}" if result
                         else f"{'—':>18s}")
        print(f"{metric.name:64s} {metric.unit:6s}" + "".join(cells))
    ok = True
    for workload in WORKLOAD_NAMES:
        result = results[workload]
        status = "no result" if result is None else (
            f"correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}")
        print(f"{workload}: {status}")
        ok = ok and result is not None and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


# ----------------------------------------------------------------------
# baseline: record and compare
# ----------------------------------------------------------------------
def _host_facts() -> Dict[str, Any]:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "system": platform.system()}


def _measure(run_py: Path, workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """The end-to-end values of one correct untraced run (exits otherwise)."""
    result, errors = _spawn(run_py, workload, seed, seconds, traced=False)
    if result is None or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed ({run_py}):\n{errors}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _collect(seeds: Sequence[int], seconds: float) -> Dict[str, List[Dict[str, float]]]:
    """End-to-end values of every workload of this tree, one dict per seed."""
    return {workload: [_measure(LEDGER / "run.py", workload, seed, seconds) for seed in seeds]
            for workload in WORKLOAD_NAMES}


def _summary(values: Sequence[float]) -> Dict[str, Any]:
    from benchmarks.ledger import metrics

    q1, mid, q3 = metrics.quartiles(values)
    return {"median": mid, "q1": q1, "q3": q3, "values": list(values)}


def record(seed: int, seconds: float) -> int:
    from benchmarks.ledger import metrics

    seeds = list(range(seed, seed + RECORD_RUNS))
    collected = _collect(seeds, seconds)
    workloads: Dict[str, Any] = {}
    for workload in WORKLOAD_NAMES:
        traced, errors = _spawn(LEDGER / "run.py", workload, seed, seconds, traced=True)
        if traced is None or not traced["correct"]:
            raise SystemExit(f"{workload} traced run failed:\n{errors}")
        workloads[workload] = {
            "end_to_end": {
                m.name: {"unit": m.unit, **_summary([run[m.name] for run in collected[workload]])}
                for m in metrics.END_TO_END
            },
            "per_layer": traced["metrics"],
        }
    baseline = {"format": 1, "host": _host_facts(), "seeds": seeds, "seconds": seconds,
                "traced_seed": seed, "workloads": workloads}
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE}")
    return 0


def compare(target: Path, seed: int, seconds: float) -> int:
    """Classify every end-to-end metric per workload against a baseline.

    ``target`` is a recorded baseline file, or another checkout of the
    repository: then both checkouts run back to back per seed, the order
    alternating pair by pair, and every metric is judged on its per-pair
    ratios (robust to drifting host noise).
    """
    from benchmarks.ledger import metrics

    paired = target.is_dir()
    current: Dict[str, List[Dict[str, float]]] = {w: [] for w in WORKLOAD_NAMES}
    base: Dict[str, List[Dict[str, float]]] = {w: [] for w in WORKLOAD_NAMES}
    if paired:
        other = target / "benchmarks" / "ledger" / "run.py"
        for index, pair_seed in enumerate(range(seed, seed + COMPARE_PAIRS)):
            for workload in WORKLOAD_NAMES:
                sides = [(other, base), (LEDGER / "run.py", current)]
                for run_py, sink in sides if index % 2 == 0 else reversed(sides):
                    sink[workload].append(_measure(run_py, workload, pair_seed, seconds))
    else:
        recorded = json.loads(target.read_text(encoding="utf-8"))
        seeds = recorded["seeds"]
        current = _collect(seeds, recorded["seconds"])
        for workload in WORKLOAD_NAMES:
            entries = recorded["workloads"][workload]["end_to_end"]
            base[workload] = [
                {name: entry["values"][i] for name, entry in entries.items()}
                for i in range(len(seeds))
            ]
    def cell(values: Sequence[float]) -> str:
        q1, mid, q3 = metrics.quartiles(values)
        return f"{mid:.4g} [{q1:.4g}, {q3:.4g}]"

    regressed = False
    for workload in WORKLOAD_NAMES:
        print(f"\n{workload}")
        print(f"  {'metric':18s} {'base median [q1, q3]':>30s} {'current median [q1, q3]':>30s}"
              f" {'change':>8s} {'bound':>6s}  class")
        for metric in metrics.END_TO_END:
            before = [run[metric.name] for run in base[workload]]
            after = [run[metric.name] for run in current[workload]]
            verdict = (metrics.classify_paired if paired else metrics.classify)(
                metric, before, after)
            regressed = regressed or verdict == "regressed"
            base_median, current_median = metrics.median(before), metrics.median(after)
            change = (current_median - base_median) / base_median if base_median else 0.0
            print(f"  {metric.name:18s} {cell(before):>30s} {cell(after):>30s}"
                  f" {change:+8.1%} {metric.allowed_share(base_median):6.2f}  {verdict}")
    return 1 if regressed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process; the last line is JSON")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true",
                      help=f"measure every workload on {RECORD_RUNS} seeds and write "
                           f"{BASELINE.name}")
    mode.add_argument("--compare", type=Path, metavar="BASELINE",
                      help="a recorded baseline file, or another checkout to pair against "
                           f"({COMPARE_PAIRS} pairs)")
    args = parser.parse_args(argv)
    if args.record:
        return record(args.seed, args.seconds)
    if args.compare is not None:
        return compare(args.compare, args.seed, args.seconds)
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_all(args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
