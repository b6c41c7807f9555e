"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload host_mux --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 8 --trace 1

Run it from the root of a checkout: the program is imported from ``src/``.
Each pass runs in a fresh interpreter (``perfbench/worker.py``), one at a
time, and every worker is waited for.

``--trace 0`` repeats timed passes until ``--seconds`` have gone by (at
least :data:`MIN_BATCHES` of them), makes one untimed ``tracemalloc``
pass, and reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` repeats the timed passes the same way, makes
:data:`TRACED_PASSES` traced passes, and reports the per-layer metrics.
Either way every pass's outputs are checked, the result digests of all
passes of a run must agree (on host_observed, also with a host_mux pass of
the same seed), and the last line printed is the JSON result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("host_mux", "host_observed", "engine_mc", "paper_sweep")
MIN_BATCHES = 2
TRACED_PASSES = 2
#: Wall-clock budget per workload: the benchmark must exit within 180
#: seconds, so a pass that would overrun the budget fails the run instead.
BUDGET_S = 170.0
SPANS_DIR = HERE / "out"
#: What ``retained_kb_per_unit`` divides by.
MEMORY_UNITS = {
    "host_mux": "workflows",
    "host_observed": "workflows",
    "engine_mc": "engine runs",
    "paper_sweep": "samples drawn",
}
#: The workload-specific names of the end-to-end metrics.
_HOST_ALIASES = {
    "throughput_per_s": "workflows_per_s",
    "retained_kb_per_unit": "retained_kb_per_workflow",
}
ALIASES = {
    "host_mux": _HOST_ALIASES,
    "host_observed": _HOST_ALIASES,
    "engine_mc": {"throughput_per_s": "engine_runs_per_s"},
    "paper_sweep": {
        "throughput_per_s": "fixed_samples_per_s",
        "result_s": "time_to_ci_s",
    },
}


class BenchError(Exception):
    """A pass failed to run; the benchmark exits without a result."""


def _worker(workload: str, seed: int, mode: str, deadline: float, spans=None):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"time budget spent before the {mode} pass")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing: set and dict layouts, and with them the
    # deterministic counts, repeat exactly from one interpreter to the next.
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--pass", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} pass overran the time budget") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} {mode} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed(workload: str, seed: int, seconds: float, deadline: float) -> list:
    batches = []
    start = time.monotonic()
    while len(batches) < MIN_BATCHES or time.monotonic() - start < seconds:
        batches.append(_worker(workload, seed, "timed", deadline))
    return batches


class Verdicts:
    """Correctness checks and the operation counts behind ``error_rate``.

    A check repeated by several passes prints once, with its pass count.
    """

    def __init__(self) -> None:
        self.checks: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0

    @property
    def correct(self) -> bool:
        return all(ok == total for ok, total, _ in self.checks.values())

    def add_pass(self, result: dict) -> None:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        for check in result["checks"]:
            self.check(check["check"], check["ok"], check["detail"])

    def check(self, what: str, ok: bool, detail: str, failed_ops: int = 0) -> None:
        entry = self.checks.setdefault(what, [0, 0, detail])
        entry[0] += bool(ok)
        entry[1] += 1
        if not ok:
            entry[2] = detail
            self.failed += failed_ops

    def same_digest(self, what: str, passes: list) -> None:
        digests = {p["digest"] for p in passes}
        agree = len(digests) == 1
        self.check(
            f"{what}: result digest identical across {len(passes)} passes",
            agree,
            digests.pop()[:16] if agree else f"{len(digests)} different digests",
            failed_ops=0 if agree else sum(p["attempted"] for p in passes),
        )

    def lines(self) -> list[str]:
        out = []
        for what, (ok, total, detail) in self.checks.items():
            note = [detail] if detail else []
            if total > 1:
                note.append(f"{ok}/{total} passes")
            verdict = "ok" if ok == total else "FAIL"
            out.append(f"  [{verdict}] {what} ({', '.join(note)})")
        return out


def _spread(values: list) -> str:
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    verdicts = Verdicts()
    batches = _timed(workload, seed, seconds, deadline)
    memory = _worker(workload, seed, "memory", deadline)
    passes = batches + [memory]
    what = f"{workload}, same seed"
    if workload == "host_observed":
        passes.append(_worker("host_mux", seed, "timed", deadline))
        what = "host_observed and host_mux, same seed"
    for result in passes:
        verdicts.add_pass(result)
    verdicts.same_digest(what, passes)

    setups = [rep for batch in batches for rep in batch["setup_s"]]
    throughput = [b["units"] / b["throughput_s"] for b in batches]
    result_s = [b["result_s"] for b in batches]
    units = memory["memory_units"]
    rows = {
        "setup_s": (statistics.median(setups), "s", _spread(setups)),
        "throughput_per_s": (
            statistics.median(throughput),
            "1/s",
            _spread(throughput),
        ),
        "result_s": (statistics.median(result_s), "s", _spread(result_s)),
        "peak_mb": (memory["peak_mb"], "MB", "n=1, tracemalloc pass"),
        "retained_kb_per_unit": (
            memory["retained_kb"] / units,
            "KB",
            f"n=1, {memory['retained_kb']:.1f} KB / {units} {MEMORY_UNITS[workload]}",
        ),
    }
    lines = [f"workload {workload}, seed {seed}: base {json.dumps(batches[0]['base'])}"]
    for name, (value, unit, note) in rows.items():
        alias = ALIASES[workload].get(name)
        lines.append(
            f"  {name:<22} {value:>14.6g} {unit:<4} ({note})"
            + (f" = {alias}" if alias else "")
        )
    rate = verdicts.failed / verdicts.attempted
    lines.append(
        f"  {'error_rate':<22} {rate:>14.6g} ratio "
        f"({verdicts.failed} failed of {verdicts.attempted} attempted)"
    )
    return {name: row[0] for name, row in rows.items()}, verdicts, lines


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    verdicts = Verdicts()
    batches = _timed(workload, seed, seconds, deadline)
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}.npz"
    traced = [_worker(workload, seed, "traced", deadline, spans=spans)]
    for _ in range(TRACED_PASSES - 1):
        traced.append(_worker(workload, seed, "traced", deadline))
    passes = batches + traced
    what = f"{workload}, untraced and traced"
    if workload == "host_observed":
        passes.append(_worker("host_mux", seed, "timed", deadline))
        what = "host_observed and host_mux, untraced and traced"
    for result in passes:
        verdicts.add_pass(result)
    verdicts.same_digest(what, passes)
    counts = {json.dumps(t["counts"], sort_keys=True) for t in traced}
    verdicts.check(
        f"boundary counts identical across {len(traced)} traced passes",
        len(counts) == 1,
        f"{traced[0]['counts']['spans']} spans",
    )
    for result in traced:
        wall = result["metrics"]["trace.wall_s"]
        total = sum(result["self_s"].values()) + result["metrics"]["trace.residual_s"]
        verdicts.check(
            "layer self times + time outside all spans = traced wall time",
            abs(total - wall) <= 1e-6 * max(1.0, wall),
            f"{total:.6f} vs {wall:.6f} s",
        )

    metrics = {
        name: statistics.median(t["metrics"][name] for t in traced)
        for name in traced[0]["metrics"]
    }
    untraced = statistics.median(b["setup_s"][0] + b["drive_s"] for b in batches)
    metrics["trace.overhead"] = metrics["trace.wall_s"] / untraced - 1.0
    first = traced[0]
    wall = first["metrics"]["trace.wall_s"]
    lines = [
        f"workload {workload}, seed {seed}: untraced wall {untraced:.4f} s "
        f"(median of {len(batches)}), traced {wall:.4f} s; self time by layer:"
    ]
    layers = sorted(first["self_s"].items(), key=lambda kv: -kv[1])
    layers.append(("(outside all spans)", first["metrics"]["trace.residual_s"]))
    for layer, value in layers:
        lines.append(f"    {layer:<22} {value:>10.4f} s {value / wall:7.1%}")
    for name, value in metrics.items():
        lines.append(f"  {name:<40} {value:.6g}")
    return metrics, verdicts, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    program = ROOT / "src" / "repro"
    if not (program / "__init__.py").is_file():
        print(f"perfbench: no program at {program}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(workloads)
    measure = per_layer if args.trace else end_to_end
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            metrics, verdicts, lines = measure(
                workload, args.seed, args.seconds, deadline
            )
            print("\n".join(lines + ["  checks:"] + verdicts.lines()))
            result["correct"] = result["correct"] and verdicts.correct
            result["attempted"] += verdicts.attempted
            result["failed"] += verdicts.failed
            prefix = f"{workload}." if len(workloads) > 1 else ""
            for metric in declared:
                result["metrics"][prefix + metric["name"]] = {
                    "value": metrics[metric["name"]],
                    "unit": metric["unit"],
                }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
