"""dqdsim benchmark: closed-loop workloads of real user operations.

Usage, from the repository root:

    python3 bench/run.py --workload field-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in one process issues each operation when the previous one
completes. --trace 0 times the operations untraced and reports the
end-to-end metrics; --trace 1 repeats a few operations with and without
the out-of-program tracer and reports per-layer metrics. Every operation's
outputs are checked; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from io import TextIOBase
from pathlib import Path

from tracer import FUNCTIONS, FunctionStats, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("field-sweep", "distance-sweep", "inverse")
# per-layer times are reported only for functions every workload calls
EVERY_WORKLOAD = ("vertical.solve_vertical", "vertical.dz_matrix",
                  "lateral.build_basis", "lateral.y_matrix",
                  "molecular.product_basis", "molecular.assemble",
                  "molecular.diagonalize", "molecular.solve_molecular",
                  "cli.main")


class _Discard(TextIOBase):
    """Swallows the CLI's progress lines so stdout ends with the result."""

    def write(self, text):
        return len(text)


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing dqdsim, several times.

    One untimed import first compiles the bytecode, which users do not pay
    on every run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "import dqdsim"]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        if k:
            samples.append(time.perf_counter() - start)
    return samples


def source_identity() -> dict:
    """Commit (when the checkout has git metadata) and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the field is optional
        blas = None
    affinity = sorted(os.sched_getaffinity(0))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": len(affinity), "cpu_count": os.cpu_count(),
            "affinity": affinity, "seed": seed, **source_identity()}


def same_bytes(dir_a: str, dir_b: str) -> bool:
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as a, \
                open(os.path.join(dir_b, name), "rb") as b:
            if a.read() != b.read():
                return False
    return True


class Runner:
    """Executes and checks operations, counting attempts and failures."""

    def __init__(self, workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.sink = _Discard()

    def run(self, op, tracer=None):
        """Run one operation; return (seconds, deviation in meV or None)."""
        self.attempted += 1
        installed = tracer.installed() if tracer else nullcontext()
        with installed, redirect_stdout(self.sink):
            start = time.perf_counter()
            try:
                result = self.workload.execute(op)
                error = None
            except Exception:
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
        deviation = None
        if error is None:
            try:
                deviation = self.workload.check(op, result)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            self.failed += 1
            print(f"operation {op.index} failed:\n{error}", file=sys.stderr)
        return seconds, deviation

    def op(self, index: int, tag: str):
        return self.workload.prepare(index,
                                     os.path.join(self.workdir, tag))


def timed_run(workload, runner, seconds: float) -> tuple[dict, dict]:
    from workloads import MIN_OPS
    setup = measure_setup()
    workload.compute_references()
    references = set(workload.reference_ops())
    # warm-up: the first call pays lazy imports; rerunning operation 0 in
    # the timed loop then checks that its CSVs are byte-identical
    warm = runner.op(0, "warm")
    runner.run(warm)
    times, deviations = [], []
    spent, index = 0.0, 0
    failed_before = runner.failed
    # the reference operations all lie within the first MIN_OPS
    while spent < seconds or index < MIN_OPS:
        op = runner.op(index, f"op{index}")
        elapsed, deviation = runner.run(op)
        times.append(elapsed)
        spent += elapsed
        if index in references and deviation is not None:
            deviations.append(deviation)
        if index == 0:
            if not same_bytes(warm.out, op.out):
                runner.failed += 1
                print("operation 0 outputs differ between two identical "
                      "runs", file=sys.stderr)
            shutil.rmtree(warm.out)
        shutil.rmtree(op.out)
        index += 1
    ordered = sorted(times)
    n = len(ordered)
    completed = n - (runner.failed - failed_before)
    tail_rank = n - 11  # 10 samples lie beyond this one
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (completed / spent, "1/s"),
        "op_p50_s": (statistics.median(ordered), "s"),
        "op_tail_s": (ordered[tail_rank], "s"),
        "gap_err_meV": (max(deviations, default=0.0), "meV"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    details = {
        "operations_timed": n,
        "op_tail_percentile": round(100 * (tail_rank + 1) / n, 1),
        "op_tail_samples_beyond": n - 1 - tail_rank,
        "setup_samples_s": setup,
        "gap_err_ops": len(deviations),
        "error_rate": runner.failed / runner.attempted,
    }
    return metrics, details


def trace_run(workload, runner, seconds: float) -> tuple[dict, dict]:
    """Repeat a fixed set of operations, each once untraced and once
    traced (alternating which goes first), until `seconds` of traced and
    untraced work have run. Counts are per pass over the set and repeat
    exactly; times are means per pass."""
    ops = [runner.op(i, f"op{i}") for i in range(workload.traced_ops)]
    runner.run(ops[0])  # warm-up, as in the timed run
    totals = {name: FunctionStats() for name in FUNCTIONS}
    plain_s = traced_s = pool_busy = 0.0
    passes = 0
    while passes == 0 or plain_s + traced_s < seconds:
        for j, op in enumerate(ops):
            for traced in ((False, True) if (passes + j) % 2 == 0
                           else (True, False)):
                tracer = Tracer() if traced else None
                elapsed, _ = runner.run(op, tracer)
                if not traced:
                    plain_s += elapsed
                    continue
                traced_s += elapsed
                stats, busy = summarize(tracer.spans)
                pool_busy += busy
                for name, stat in stats.items():
                    totals[name].add(stat)
        passes += 1
    per_pass = {name: {k: v / passes for k, v in vars(stat).items()}
                for name, stat in totals.items()}
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (per_pass[name]["calls"], "count")
        metrics[f"{name}.errors"] = (per_pass[name]["errors"], "count")
        if name in EVERY_WORKLOAD:
            metrics[f"{name}.total_s"] = (per_pass[name]["total_s"], "s")
            metrics[f"{name}.self_s"] = (per_pass[name]["self_s"], "s")
    requested_fields = (per_pass["spectroscopy.sweep_b"]["fields"]
                        + per_pass["spectroscopy.solve_point"]["calls"])
    metrics["molecular.solve_molecular.per_field"] = (
        per_pass["molecular.solve_molecular"]["calls"] / requested_fields
        if requested_fields else 0.0, "1/field")
    metrics["vertical.solve_vertical.per_op"] = (
        per_pass["vertical.solve_vertical"]["calls"] / len(ops), "1/op")
    sweep_l_s = totals["spectroscopy.sweep_l"].total_s
    metrics["spectroscopy.sweep_l.parallelism"] = (
        pool_busy / sweep_l_s if sweep_l_s else 0.0, "ratio")
    metrics["tracing.ops_per_s_ratio"] = (plain_s / traced_s, "ratio")
    # shares of the summed self time, which exceeds wall time when sweep_l
    # runs points concurrently
    busy = sum(stat["self_s"] for stat in per_pass.values())
    for module in dict.fromkeys(name.split(".")[0] for name in FUNCTIONS):
        own = sum(per_pass[name]["self_s"] for name in FUNCTIONS
                  if name.startswith(module + "."))
        metrics[f"{module}.self_share"] = (100 * own / busy, "%")
    details = {"passes": passes, "traced_ops": len(ops),
               "per_pass": per_pass,
               "error_rate": runner.failed / runner.attempted}
    return metrics, details


def print_table(workload: str, metrics: dict, details: dict) -> None:
    print(f"== {workload}: error_rate {details['error_rate']:.4g}")
    if "per_pass" in details:
        print(f"  per pass over {details['traced_ops']} operations "
              f"({details['passes']} passes):")
        print(f"  {'function':44s} {'calls':>8s} {'errors':>6s} "
              f"{'total_s':>10s} {'self_s':>10s}")
        for name, stat in details["per_pass"].items():
            print(f"  {name:44s} {stat['calls']:8.0f} {stat['errors']:6.0f} "
                  f"{stat['total_s']:10.4f} {stat['self_s']:10.4f}")
        metrics = {name: value for name, value in metrics.items()
                   if name.rsplit(".", 1)[1] not in vars(FunctionStats())}
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    if "op_tail_percentile" in details:
        print(f"  op_tail_s is p{details['op_tail_percentile']} of "
              f"{details['operations_timed']} operations, "
              f"{details['op_tail_samples_beyond']} beyond it")


def run_all(args) -> int:
    """Run every workload in its own interpreter, one after another."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "dqdsim" / "__init__.py").is_file():
        print(f"error: no dqdsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import dqdsim
    if Path(dqdsim.__file__).resolve().parent != SRC / "dqdsim":
        print(f"error: imported dqdsim from {dqdsim.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    env = environment(args.seed)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=Path(__file__).parent)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        runner = Runner(workload, workdir)
        measure = trace_run if args.trace else timed_run
        metrics, details = measure(workload, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "environment": env,
                      "details": details}))
    print_table(args.workload, metrics, details)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
