"""dp1 benchmark: fresh-process CLI operations in a closed loop, one client.

Run from the repository root:

    python3 bench/run.py --workload verify_full --seed 1 --seconds 40 --trace 0

Each operation is one fresh ``python -m dp1.cli ...`` process with stdout read
through a pipe; the next starts only after the previous has exited, so at most
one child runs at a time.  The seed fixes the generated argv; dp1 sees only
the argv.  Every operation's output is checked (see checks.py).

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it pairs each untraced operation with a
traced one (bench/tracer.py) and reports the per-layer metrics.  The last
stdout line is the result object; the line before it holds the details: run
environment, raw and normalized times, sample counts, the tail percentile,
stdout digests per argv, failure reasons and, when traced, the span
accounting.

Times are normalized to a reference speed.  On a shared machine the speed of
a CPU drifts by tens of percent over seconds to minutes, and CPU time drifts
with it.  So the benchmark pins itself and its children to one CPU and runs a
fixed reference program (reference.py) in a fresh interpreter after every
child.  Each child's wall and CPU time is multiplied by REF_S over the mean
time of the reference runs just before and after it: the time the child
would take at the speed where one reference run takes REF_S.  Raw medians
are kept in the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 7  # fresh `import dp1.cli` interpreters per run; setup_s is their median
OP_TIMEOUT_S = 120
TAIL_BEYOND = 10  # a tail percentile needs this many samples above it
REF_S = 0.22  # nominal time of one reference run, near its median on a 2-vCPU Xeon VM


def verify_full(rng: random.Random) -> list[tuple[str, ...]]:
    return [("verify",)]


def enumerate_all(rng: random.Random) -> list[tuple[str, ...]]:
    return [("enumerate", "--class", "all")]


def class_sweep(rng: random.Random) -> list[tuple[str, ...]]:
    ids = list(checks.CLASS_IDS)
    rng.shuffle(ids)
    return [("verify", "--class", cid) for cid in ids]


# Each workload yields one cycle of argvs; a run repeats cycles until its time is up.
WORKLOADS = {"verify_full": verify_full, "enumerate_all": enumerate_all,
             "class_sweep": class_sweep}


@dataclass
class Op:
    argv: tuple[str, ...]
    exit_code: int | None
    stdout: bytes
    stderr: bytes
    wall_s: float  # spawn to exit
    cpu_s: float  # user + sys
    maxrss_kb: int
    scale: float = 1.0  # REF_S over the mean time of the reference runs on either side

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_s * self.scale


def spawn(cmd: list[str], env: dict[str, str], argv: tuple[str, ...] = ()) -> Op:
    """Run one child to completion, reading both pipes, and reap it with its own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, cwd=ROOT, env=env)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            deadline = start + OP_TIMEOUT_S
            while sel.get_map() and not timed_out:
                ready = sel.select(deadline - time.perf_counter())
                if not ready:
                    timed_out = True
                    proc.kill()
                for key, _ in ready:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    return Op(argv, None if timed_out else proc.returncode, b"".join(chunks[proc.stdout]),
              b"".join(chunks[proc.stderr]), wall, usage.ru_utime + usage.ru_stime,
              usage.ru_maxrss)


class Runner:
    """Spawns one child at a time, with a reference run after each to measure CPU speed."""

    def __init__(self) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("DP1_")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.env = env
        self.refs: list[float] = []
        self._reference()

    def _reference(self) -> float:
        op = spawn([sys.executable, str(BENCH_DIR / "reference.py")], self.env)
        if op.exit_code != 0:
            raise RuntimeError("reference run failed: " + op.stderr.decode(errors="replace")[-500:])
        self.refs.append(op.wall_s)
        return op.wall_s

    def run(self, cmd: list[str], argv: tuple[str, ...] = ()) -> Op:
        before = self.refs[-1]
        op = spawn(cmd, self.env, argv)
        op.scale = REF_S / ((before + self._reference()) / 2)
        return op

    def cli(self, argv: tuple[str, ...]) -> Op:
        return self.run([sys.executable, "-m", "dp1.cli", *argv], argv)

    def traced(self, argv: tuple[str, ...]) -> tuple[Op, dict | None]:
        """One traced operation; the Op carries the CLI's own exit code and stdout."""
        op = self.run([sys.executable, str(BENCH_DIR / "tracer.py"), *argv], argv)
        if op.exit_code != 0:
            return op, None
        doc = json.loads(op.stdout)
        op.exit_code = doc.pop("exit")
        op.stdout = doc.pop("stdout").encode("utf-8")
        return op, doc

    def setup(self) -> list[Op]:
        ops = [self.run([sys.executable, "-c", "import dp1.cli"]) for _ in range(SETUP_RUNS)]
        bad = next((op for op in ops if op.exit_code != 0), None)
        if bad is not None:
            raise RuntimeError("import dp1.cli failed: "
                               + bad.stderr.decode(errors="replace")[-500:])
        return ops


def in_checkout() -> bool:
    """Whether the working directory is the root of a dp1 checkout; says so if not."""
    if (ROOT / "src" / "dp1" / "cli.py").is_file():
        return True
    print("bench: src/dp1/cli.py not found; run from the root of a dp1 checkout", file=sys.stderr)
    return False


def run_ops(cycle, rng: random.Random, seconds: float, body) -> float:
    """Run operations cycle after cycle, starting another only while it is expected to end in time."""
    start = time.perf_counter()
    done = 0
    while True:
        for argv in cycle(rng):
            body(argv)
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed * (done + 1) / done > seconds:
                return elapsed


def balanced_median(ops: list[Op], value) -> float:
    """Median of value(op) with every argv weighing the same, however often it ran.

    A run may end inside a cycle; weighting keeps the classes it reached twice
    from pulling the median of a class sweep.
    """
    counts = Counter(op.argv for op in ops)
    points = sorted((value(op), 1 / counts[op.argv]) for op in ops)
    half = len(counts) / 2
    acc = 0.0
    for i, (v, w) in enumerate(points):
        acc += w
        if abs(acc - half) < 1e-9 and i + 1 < len(points):
            return (v + points[i + 1][0]) / 2  # half the weight on each side
        if acc > half:
            return v
    return points[-1][0]


def balanced_rate(ops: list[Op]) -> float:
    """Operations per second of operation time, every argv weighing the same.

    Each argv's time is the mean of the middle half of its runs, so a single
    stalled operation moves the rate less than it would move a plain mean.
    """
    by_argv: dict[tuple[str, ...], list[float]] = {}
    for op in ops:
        by_argv.setdefault(op.argv, []).append(op.norm_wall_s)
    total = 0.0
    for walls in by_argv.values():
        walls.sort()
        quarter = len(walls) // 4
        total += statistics.fmean(walls[quarter:len(walls) - quarter])
    return len(by_argv) / total


def tail(walls: list[float]) -> dict | None:
    """Highest percentile (at least the median) with TAIL_BEYOND samples above it."""
    n = len(walls)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(walls)
    return {"percentile": 100.0 * (n - TAIL_BEYOND) / n, "value_s": ordered[n - TAIL_BEYOND - 1],
            "beyond": TAIL_BEYOND, "samples": n}


@dataclass
class Ledger:
    """Every operation's verdict, and its stdout digest per argv."""

    outputs: checks.OutputLedger = field(default_factory=checks.OutputLedger)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, op: Op, label: str = "") -> bool:
        self.attempted += 1
        problems = self.outputs.check(op.argv, op.exit_code, op.stdout)
        if problems:
            msg = f"{label}{' '.join(op.argv)}: {'; '.join(problems)}"
            if op.exit_code != 0 and op.stderr:
                msg += " | stderr: " + op.stderr.decode(errors="replace").strip()[-300:]
            self.failures.append(msg)
        return not problems

    def digests(self) -> dict[str, dict]:
        return {" ".join(a): {"sha256": d, "bytes": self.outputs.sizes[a]}
                for a, d in self.outputs.first.items()}


def environment(seed: int) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = res.stdout.strip() or None
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = checks.sha256(b"".join(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes()
                                    for p in src))
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "pinned_cpu": sorted(os.sched_getaffinity(0)), "git_sha": git_sha,
            "src_sha256": digest, "seed": seed, "loadavg_start": list(os.getloadavg())}


def span_layers(doc: dict, scale: float = 1.0) -> dict[str, dict[str, float]]:
    """calls, self_s and total_s per layer from one traced operation's spans."""
    names = doc["names"]
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in names}
    for i, (layer, start, end, parent) in enumerate(spans):
        s = stats[names[layer]]
        s["calls"] += 1
        s["self_s"] += (end - start - child_ns[i]) * scale / 1e9
        p = parent
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][3]
        if p < 0:  # not nested in a span of the same layer
            s["total_s"] += (end - start) * scale / 1e9
    return stats


def op_layer_values(doc: dict, scale: float) -> dict[str, float]:
    """One traced operation's per-layer counts and times, keyed "layer.field"."""
    values = {f"{name}.{k}": v for name, stats in span_layers(doc, scale).items()
              for k, v in stats.items()}
    values.update(doc["counters"])
    for name, (hits, misses) in doc["caches"].items():
        values[f"{name}.hits"] = hits
        values[f"{name}.misses"] = misses
    return values


def per_layer_values(per_op: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """Per-layer metric values as per-operation means over the traced operations."""
    sums = {k: sum(op[k] for op in per_op) for k in per_op[0]}
    values = {k: v / len(per_op) for k, v in sums.items()}
    calls = sums["lattice.enumerate_coordinates.calls"]
    values["lattice.enumerate_coordinates.distinct_ratio"] = (
        sums["lattice.enumerate_coordinates.distinct"] / calls if calls else 0.0)
    for name in {k.rsplit(".", 1)[0] for k in sums if k.endswith(".hits")}:
        lookups = sums[f"{name}.hits"] + sums[f"{name}.misses"]
        values[f"{name}.hit_ratio"] = sums[f"{name}.hits"] / lookups if lookups else 0.0
    values["trace.overhead_s"] = overhead_s
    return values


def untraced_run(runner: Runner, cycle, rng, seconds, ledger: Ledger) -> tuple[dict, dict]:
    setup = runner.setup()
    ops: list[Op] = []

    def body(argv):
        op = runner.cli(argv)
        ledger.record(op)
        # Children are forked from this process, so keep it small: a large parent
        # would show in every child's ru_maxrss.
        op.stdout = op.stderr = b""
        ops.append(op)

    elapsed = run_ops(cycle, rng, seconds, body)
    walls = [op.norm_wall_s for op in ops]
    metrics = {
        "setup_s": statistics.median(op.norm_wall_s for op in setup),
        "wall_p50_s": balanced_median(ops, lambda op: op.norm_wall_s),
        "ops_per_s": balanced_rate(ops),
        "cpu_per_op_s": balanced_median(ops, lambda op: op.norm_cpu_s),
        "peak_rss_mb": max(op.maxrss_kb for op in ops) / 1024,
    }
    detail = {
        "setup_samples": len(setup), "wall_samples": len(walls),
        "argvs": len({op.argv for op in ops}),
        "elapsed_s": elapsed, "wall_tail_s": tail(walls),
        "cpu_mean_s": statistics.fmean(op.norm_cpu_s for op in ops),
        "raw": {"setup_s": statistics.median(op.wall_s for op in setup),
                "wall_p50_s": statistics.median(op.wall_s for op in ops),
                "cpu_per_op_s": statistics.median(op.cpu_s for op in ops),
                "ops_per_s_elapsed": len(ops) / elapsed},
        "reference_runs": {"samples": len(runner.refs),
                           "quartiles_s": statistics.quantiles(runner.refs, n=4)},
        "ops": [[" ".join(op.argv), op.wall_s, op.cpu_s, op.scale] for op in ops],
        "fail_frac": len(ledger.failures) / ledger.attempted,
    }
    return metrics, detail


def traced_run(runner: Runner, cycle, rng, seconds, ledger: Ledger) -> tuple[dict, dict]:
    setup_s = statistics.median(op.norm_wall_s for op in runner.setup())
    pairs: list[tuple[Op, Op, dict[str, float], float]] = []

    def body(argv):
        plain = runner.cli(argv)
        ledger.record(plain)
        traced, doc = runner.traced(argv)
        if ledger.record(traced, "traced ") and doc is not None:
            main_s = (doc["main_ns"][1] - doc["main_ns"][0]) * traced.scale / 1e9
            pairs.append((plain, traced, op_layer_values(doc, traced.scale), main_s))
        # Keep only the folded values: children are forked from this process.
        plain.stdout = traced.stdout = b""

    elapsed = run_ops(cycle, rng, seconds, body)
    if not pairs:
        return {}, {"elapsed_s": elapsed}
    overhead_s = statistics.fmean(t.norm_wall_s - p.norm_wall_s for p, t, _, _ in pairs)
    by_argv: dict[tuple[str, ...], list] = {}
    for plain, traced, values, main_s in pairs:
        self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
        by_argv.setdefault(plain.argv, []).append(
            (plain.norm_wall_s, traced.norm_wall_s, self_sum, main_s - self_sum))
    accounting = []
    for argv, rows in by_argv.items():
        wall, traced_wall, self_sum, outside = (statistics.median(col) for col in zip(*rows))
        residual = wall - setup_s - self_sum
        accounting.append({
            "argv": " ".join(argv), "pairs": len(rows), "wall_s": wall,
            "traced_wall_s": traced_wall, "span_self_sum_s": self_sum,
            "main_outside_spans_s": outside, "residual_s": residual,
            "adds_up": abs(residual) <= overhead_s,
        })
    metrics = per_layer_values([values for _, _, values, _ in pairs], overhead_s)
    zero_layers = {n: metrics[f"{n}.calls"] for n in
                   ("wallcross.splittings", "wallcross.vanishing_roots_cached",
                    "wallcross.delta_table", "properties.run_all",
                    "properties.weyl_basis_robustness", "properties.enumeration_closure")}
    detail = {"traced_ops": len(pairs), "elapsed_s": elapsed,
              "setup_s": setup_s, "overhead_s": overhead_s,
              "all_add_up": all(a["adds_up"] for a in accounting), "accounting": accounting,
              "wallcross_properties_calls": zero_layers,
              "fail_frac": len(ledger.failures) / ledger.attempted}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not in_checkout():
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Children inherit the affinity, so reference runs and operations share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    info = environment(args.seed)
    ledger = Ledger()
    run = traced_run if args.trace else untraced_run
    try:
        values, detail = run(Runner(), WORKLOADS[args.workload], random.Random(args.seed),
                             args.seconds, ledger)
    except RuntimeError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    info["loadavg_end"] = list(os.getloadavg())
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: no value for {missing}; failures: {ledger.failures[:3]}", file=sys.stderr)
        return 1
    failed = len(ledger.failures)
    print(json.dumps({"workload": args.workload, "trace": args.trace, "environment": info,
                      "stdout_sha256": ledger.digests(), "failures": ledger.failures[:20],
                      **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
