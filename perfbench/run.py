"""The dgssm benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload train-depth-k4 --seed 0 --seconds 20 --trace 0

Run from a checkout: the library is imported from ``src/``. The command
generates the workload's inputs from ``--seed``, sets up several times, runs
warm-up ops, then runs ops one after another (one client, one process) for
``--seconds``, and checks the outputs. Times are scaled to a reference host
speed measured between ops (see ``speed.py``). The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. Full records and traces go to ``.perfbench/``. The exit
code is 0 only when every op and every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Settings pinned before numpy is imported (it is imported only after
# pin_environment has run), so that the numbers measure the program rather
# than the host. BLAS/OpenMP run one thread. glibc's malloc otherwise moves
# its mmap threshold with the allocation history and trims the heap, so the
# share of a step spent page-faulting in large temporaries differed from
# process to process (p50 0.19-0.27 s on train-depth-k4 over 5 seeds, against
# 0.19-0.20 s pinned); fixed thresholds keep large arrays on an untrimmed heap.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}


def pin_environment() -> None:
    """Re-execute this process with ``PINNED_ENV`` unless it is already set
    (malloc reads its settings at process start)."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


WORKLOAD_NAMES = ("train-depth-k4", "train-chains-k16", "eval-ancestors-k4")
WARMUP_OPS = 2
# Set-up runs at least MIN_SETUPS times and until SETUP_BUDGET_S has passed
# (at most MAX_SETUPS), and setup_s is the median: one set-up of the eval
# workload takes milliseconds, too short to time once. After each set-up,
# reference blocks run until they add up to SETUP_BLOCK_SHARE of its time,
# so that a long set-up is scaled by more than one block.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 400, 2.0
SETUP_BLOCK_SHARE = 0.1
HOP_CHECK_GRAPHS = 3
MAX_PRINTED_FAILURES = 5

clock = time.perf_counter


class Ledger:
    """Attempted and failed ops and checks; failures keep their reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, what: str, fn):
        """Run ``fn``; an exception or a returned reason counts as a failure.

        Returns ``fn``'s result, or None when it raised."""
        self.attempted += 1
        try:
            result = fn()
        except Exception:  # the benchmark keeps measuring; the failure is counted
            self.fail(f"{what}: {traceback.format_exc()}")
            return None
        return result

    def check(self, what: str, fn) -> None:
        reason = self.run(what, fn)
        if reason is not None:
            self.fail(f"{what}: {reason}")

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        if len(self.failures) <= MAX_PRINTED_FAILURES:
            print(f"perfbench: FAILED {reason}", file=sys.stderr)


def git_sha() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(trace: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": {k: os.environ[k] for k in PINNED_ENV},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "trace": trace,
    }


def step_stats(times: list[float]) -> dict:
    """Median and tail of op times. The tail is the highest percentile with
    at least ten samples beyond it: the 11th largest time."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "samples": n,
    }


def run_op(wl, state, ledger: Ledger, tracer=None) -> tuple[float, int] | None:
    """One op: (seconds, graphs processed), or None when it failed."""
    t0 = clock()
    with tracer.unit("op") if tracer else nullcontext():
        done = ledger.run("op", lambda: wl.op(state))
    t1 = clock()
    return None if done is None else (t1 - t0, done[0])


def run_ops(wl, state, ledger: Ledger, seconds: float, ref) -> tuple[list[float], list[list[float]], int]:
    """Ops for ``seconds``, each followed by one block of reference work
    ``ref``: (wall times of passing ops, [the block after each], graphs)."""
    times, blocks, graphs = [], [], 0
    start = clock()
    while clock() - start < seconds:
        done = run_op(wl, state, ledger)
        block = ref()
        if done is not None:
            times.append(done[0])
            blocks.append([block])
            graphs += done[1]
    return times, blocks, graphs


def run_traced_ops(wl, state, ledger: Ledger, seconds: float, tracer) -> tuple[list[float], list[float]]:
    """Untraced and traced ops alternating for ``seconds``: (untraced
    times, traced times). Alternating keeps the ratio of their medians, the
    tracing overhead, from following drift in the host's speed."""
    untraced, traced = [], []
    start = clock()
    while clock() - start < seconds:
        done = run_op(wl, state, ledger)
        if done is not None:
            untraced.append(done[0])
        tracer.install()
        try:
            done = run_op(wl, state, ledger, tracer)
        finally:
            tracer.uninstall()
        if done is not None:
            traced.append(done[0])
    return untraced, traced


def main(argv: list[str] | None = None) -> int:
    pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dgssm" / "__init__.py").is_file():
        print(f"perfbench: no dgssm sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir: Path) -> int:
    import checks
    import speed
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    frozen = json.loads((HERE / "frozen.json").read_text())
    primary = frozen["seeds"]["primary"]
    ledger = Ledger()

    # Inputs, generated before any timing, and the frozen-input checks.
    graphs = wl.generate(args.seed)
    primary_graphs = graphs if args.seed == primary else wl.generate(primary)
    for seed, gs in {args.seed: graphs, primary: primary_graphs}.items():
        ledger.check(f"frozen inputs seed {seed}", lambda: checks.frozen_inputs(wl.name, frozen, seed, gs))

    ref = speed.ReferenceWork()
    ref()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_times, setup_blocks, state = [], [], None
    started = clock()
    while len(setup_times) < MIN_SETUPS or (
        clock() - started < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS
    ):
        t0 = clock()
        with tracer.unit("setup") if tracer else nullcontext():
            state = wl.setup(graphs, args.seed, work_dir)
        setup_times.append(clock() - t0)
        setup_blocks.append([ref()])
        while sum(setup_blocks[-1]) < SETUP_BLOCK_SHARE * setup_times[-1]:
            setup_blocks[-1].append(ref())
    if tracer:
        tracer.uninstall()

    for _ in range(WARMUP_OPS):
        ledger.run("warm-up op", lambda: wl.op(state))
        ref()

    if tracer:
        untraced, times = run_traced_ops(wl, state, ledger, args.seconds, tracer)
    else:
        wall_times, blocks, graph_count = run_ops(wl, state, ledger, args.seconds, ref)
        times = speed.normalized(wall_times, blocks)

    cfg, sample = wl.prepared_sample(state, graphs, HOP_CHECK_GRAPHS, args.seed)
    ledger.check("hop pairs", lambda: checks.hop_pairs(cfg, sample))
    ledger.check("batch isolation", lambda: checks.batch_isolation(*wl.isolation_case(state)))
    ledger.check("reference", lambda: checks.reference(wl, frozen, primary_graphs, work_dir))

    env = environment(bool(args.trace))
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "environment": env}
    if not times:
        ledger.fail("no op completed")
        times = [float("nan")]
    steps = step_stats(times)
    if tracer:
        metrics, scopes = tracer.layer_metrics()
        untraced_p50 = statistics.median(untraced) if untraced else float("nan")
        metrics["trace.untraced_step_s.p50"] = {"value": untraced_p50, "unit": "s"}
        metrics["trace.traced_step_s.p50"] = {"value": steps["p50"], "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": steps["p50"] / untraced_p50, "unit": "ratio"}
        record["layer_scopes"] = scopes
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": wl.name, "seed": args.seed, "environment": env})
        record["trace_file"] = trace_path.name
    else:
        metrics = {
            "setup_s": {"value": statistics.median(speed.normalized(setup_times, setup_blocks)), "unit": "s"},
            "step_s.p50": {"value": steps["p50"], "unit": "s"},
            "step_s.tail": {"value": steps["tail"], "unit": "s"},
            "graphs_per_s": {"value": graph_count / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
        wall_steps = step_stats(wall_times or [float("nan")])
        record["wall"] = {
            "setup_s": statistics.median(setup_times),
            "step_s.p50": wall_steps["p50"],
            "step_s.tail": wall_steps["tail"],
            "graphs_per_s": graph_count / sum(wall_times) if wall_times else float("nan"),
            "reference_block_s.p50": statistics.median(b for bs in blocks for b in bs) if blocks else float("nan"),
        }
        record["host_speed"] = speed.REFERENCE_S / record["wall"]["reference_block_s.p50"]
        record["op_wall_s"], record["op_blocks_s"] = wall_times, blocks
    failed = len(ledger.failures)
    record.update(
        steps=steps,
        setup_runs=len(setup_times),
        attempted=ledger.attempted,
        failed=failed,
        error_rate=failed / ledger.attempted,
        failures=ledger.failures,
        metrics=metrics,
    )
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"# {wl.name} seed={args.seed} trace={args.trace} environment={json.dumps(env)}")
    print(
        f"# step_s.tail is p{steps['tail_percentile']:.1f} of {steps['samples']} timed ops "
        f"(after {WARMUP_OPS} warm-up ops); setup_s is the median of {len(setup_times)} set-ups"
    )
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    if "wall" in record:
        print(f"# host speed = {record['host_speed']:.4g} of the reference; unscaled wall times:")
        for name, value in record["wall"].items():
            print(f"#   {name} = {value:.6g}")
    print(f"# error_rate = {failed}/{ledger.attempted} = {failed / ledger.attempted:.6g}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": ledger.attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
