"""Benchmark of the ``lieact`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's ``lieact`` invocations one at a time, each
in a fresh interpreter on the checkout's ``src`` (closed loop, no
parallelism), and checks every report. A run sets up several times
(generate the inputs from the seed into a scratch directory, one warm
import) and reports the median; it then repeats whole passes over the
workload while the next one is expected to end within S seconds, always
making at least one.

Times are reported in reference seconds. On a shared machine the speed
of a CPU changes by up to 2x within seconds, as other tenants come and
go. So the runner and its children are pinned to one CPU, and after every
timed step the runner times a fixed pure-Python kernel on that CPU; a
step's wall time is scaled by REF_KERNEL_S over the mean of the kernel
times before and after it. The unscaled wall times are kept in the record.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` makes the untraced passes, probes the import cost, then one
pass through ``traced_cli.py`` and prints the per-layer metrics. The
last line of standard output is the result object; the line before it is
the full record (environment stamp, per-verb times, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from layers import aggregate, check_spans
from workloads import WORKLOADS, Invocation

BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 3  # set-ups per run; setup_s is their median
IMPORT_PROBES = 7  # interpreter / import pairs in a traced run
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
REF_KERNEL_S = 0.05  # kernel time that defines one reference second
VERBS = ("analyze", "obstruct", "deform", "act", "vf_verify", "vf_flow", "catalog")


class BenchError(Exception):
    """The benchmark cannot run here (no program, no inputs)."""


def kernel() -> float:
    """Wall time of a fixed exact-arithmetic loop, like the program's own."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 20_000):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


@dataclass
class Result:
    wall: float  # seconds
    ref: float  # reference seconds
    error: str | None
    digest: str


@dataclass
class Context:
    root: Path
    env: dict
    seed: int
    deadline: float
    kernel_s: list[float] = field(default_factory=lambda: [kernel()])

    def scale(self, wall: float) -> float:
        """Reference seconds of a step that has just ended."""
        self.kernel_s.append(kernel())
        return wall * REF_KERNEL_S * 2 / (self.kernel_s[-2] + self.kernel_s[-1])

    def run(self, cmd: list[str]) -> tuple[float, float, subprocess.CompletedProcess | None]:
        """Run a child; return (wall, reference seconds, process or None on timeout)."""
        timeout = self.deadline - time.monotonic()
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - start
        return wall, self.scale(wall), proc


def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LIEACTIONS_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def setup(ctx: Context, workload: str, work_root: Path) -> tuple[float, float, Path, list[Invocation], dict]:
    """Generate the inputs into a fresh directory and warm the import."""
    generate, catalog_keys = WORKLOADS[workload]
    start = time.perf_counter()
    work = Path(tempfile.mkdtemp(dir=work_root))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), *catalog_keys],
        cwd=ctx.root, env=ctx.env, capture_output=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import lieactions from {ctx.root / 'src'}: {proc.stderr.decode()[-400:]}")
    probe = json.loads(proc.stdout)
    if not Path(probe["lieactions_file"]).resolve().is_relative_to(ctx.root / "src"):
        raise BenchError(f"lieactions was imported from {probe['lieactions_file']}, not from this checkout")
    invocations = generate(random.Random(ctx.seed), work, ctx.root, probe.pop("catalog"))
    wall = time.perf_counter() - start
    return wall, ctx.scale(wall), work, invocations, probe


def run_pass(ctx: Context, invocations: list[Invocation], traced_dir: Path | None) -> list[Result]:
    results = []
    for i, inv in enumerate(invocations):
        args = ["--seed", str(ctx.seed), *inv.args]
        if traced_dir is None:
            cmd = [sys.executable, "-m", "lieactions.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(traced_dir / f"{i}.json"), str(i), *args]
        wall, ref, proc = ctx.run(cmd)
        if proc is None:
            results.append(Result(wall, ref, "timed out", ""))
            continue
        error = inv.check(proc.returncode, proc.stdout)
        if error and proc.returncode not in (0, 1):
            error += f"; stderr: {proc.stderr.decode(errors='replace')[-300:]}"
        digest = hashlib.sha256(proc.stdout).hexdigest() + f":{proc.returncode}"
        results.append(Result(wall, ref, error, digest))
    return results


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples). With ten or fewer samples, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes: list[list[Result]], setups: list[float], unit: str) -> tuple[dict, dict]:
    """Timing metrics in ``unit`` ("ref" or "wall") and the tail's position."""
    latencies = [getattr(r, unit) for p in passes for r in p]
    tail_s, percentile, samples = tail(latencies)
    metrics = {
        "setup_s": _median(setups),
        "wall_s": _median([sum(getattr(r, unit) for r in p) for p in passes]),
        "invocation_p50_s": _median(latencies),
        "invocation_tail_s": tail_s,
    }
    return metrics, {"percentile": percentile, "samples": samples}


def verb_times(invocations: list[Invocation], passes: list[list[Result]]) -> dict:
    """Median over passes of each verb's summed time (verbs the workload runs)."""
    out = {}
    for verb in VERBS:
        idx = [i for i, inv in enumerate(invocations) if inv.verb == verb]
        if idx:
            out[f"verb.{verb}_s"] = _median([sum(p[i].ref for i in idx) for p in passes])
    return out


def import_probe(ctx: Context) -> dict:
    """Bare interpreter start-up and the extra cost of importing the CLI,
    as medians of alternating fresh interpreters."""
    bare, imported = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(ctx.run([sys.executable, "-c", "pass"])[1])
        imported.append(ctx.run([sys.executable, "-c", "import lieactions.cli"])[1])
    return {"python.startup_s": _median(bare), "cli.import_s": _median(imported) - _median(bare)}


def traced_pass(ctx: Context, invocations: list[Invocation], work: Path) -> tuple[list[Result], dict, list[str]]:
    """One pass through traced_cli.py; per-layer metrics and span errors."""
    traced_dir = work / "spans"
    traced_dir.mkdir()
    results = run_pass(ctx, invocations, traced_dir)
    docs, errors = [], []
    for i, r in enumerate(results):
        path = traced_dir / f"{i}.json"
        if not path.is_file():
            errors.append(f"invocation {i} wrote no spans")
            continue
        doc = json.loads(path.read_text())
        doc["scale"] = r.ref / r.wall  # span times in reference seconds too
        docs.append(doc)
        err = check_spans(doc)
        if err:
            errors.append(f"invocation {i}: {err}")
    metrics = aggregate(docs)
    if abs(metrics["trace.accounted_ratio"] - 1.0) > 1e-6:
        errors.append(f"self times cover {metrics['trace.accounted_ratio']:.9f} of the verb spans")
    return results, metrics, errors


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path, probe: dict, seed: int, traced: bool, cpus: set[int]) -> dict:
    return {
        "nproc": len(cpus),
        "pinned_cpu": min(cpus),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "click": probe["click"],
        "lieactions": probe["lieactions"],
        "git_commit": _git_commit(root),
        "seed": seed,
        "traced": traced,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "lieactions" / "cli.py").is_file() or not (root / "scenarios").is_dir():
        raise BenchError(f"{root} holds no lieactions checkout (src/lieactions, scenarios)")
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if opts.trace else "end_to_end"]

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    ctx = Context(root, _child_env(root), opts.seed, time.monotonic() + RUN_LIMIT_S)
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dirs = []
    try:
        setup_wall, setup_ref = [], []
        for _ in range(SETUPS):
            wall, ref, work, invocations, probe = setup(ctx, opts.workload, work_root)
            setup_wall.append(wall)
            setup_ref.append(ref)
            work_dirs.append(work)

        passes: list[list[Result]] = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(ctx, invocations, None))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > opts.seconds:
                break
        untraced = len(passes)
        metrics, tail_info = end_to_end(passes, setup_ref, "ref")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        unscaled, _ = end_to_end(passes, setup_wall, "wall")
        verbs = verb_times(invocations, passes)

        span_errors = []
        if opts.trace:
            layer = {f"verb.{v}_s": 0.0 for v in VERBS}
            layer.update(verbs)
            layer.update(import_probe(ctx))
            traced, traced_metrics, span_errors = traced_pass(ctx, invocations, work)
            passes.append(traced)
            layer.update(traced_metrics)
            untraced_s = _median([sum(r.ref for r in p) for p in passes[:untraced]])
            layer["trace.overhead_ratio"] = sum(r.ref for r in traced) / untraced_s - 1.0
            metrics = layer

        # reports must not change between passes, traced or not
        failures = []
        for i, inv in enumerate(invocations):
            for k, p in enumerate(passes):
                r = p[i]
                if r.error is None and r.digest != passes[0][i].digest:
                    r.error = "report differs from the first pass"
                if r.error:
                    failures.append(f"pass {k} {' '.join(inv.args)}: {r.error}")
        attempted = sum(len(p) for p in passes)
        record = {
            "workload": opts.workload,
            "environment": environment(root, probe, opts.seed, bool(opts.trace), cpus),
            "setup_s": setup_ref,
            "pass_s": [sum(r.ref for r in p) for p in passes],
            "unscaled_wall_s": unscaled,
            "kernel_s": {"median": _median(ctx.kernel_s), "min": min(ctx.kernel_s), "max": max(ctx.kernel_s)},
            "invocations_per_pass": len(invocations),
            "invocation_tail": tail_info,
            "verbs": verbs,
            "fail_ratio": len(failures) / attempted,
            "failures": failures[:20],
            "span_errors": span_errors,
            "metrics": metrics,
        }
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
        result = {
            "correct": not failures and not span_errors,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        }
        print(json.dumps(record))
        print(json.dumps(result))
        return 0
    finally:
        for work in work_dirs:
            shutil.rmtree(work, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()


if __name__ == "__main__":
    # a terminated run still kills its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
