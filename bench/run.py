"""patmat benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload structural --seed 1 --seconds 15 --trace 0

Run from the repository root.  The program is imported from ./src.  Each
operation starts when the previous one returns.  The run measures whole
cycles of the workload's operations until --seconds of operation time and
at least MIN_SAMPLES operations, checks every output with the benchmark's
own checker, and prints one metric per line followed by a JSON object as the
last line.  Times are corrected for the host's speed (see PROBE_REF_MS).
--trace 0 reports the end-to-end metrics; --trace 1 reports per-layer
metrics from a separate traced pass.  Full results go to .bench_out/.  A
wrong verdict, certificate or witness exits with status 1.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

MIN_SAMPLES = 110  # leaves at least ten samples above p90
IMPORT_REPEATS = 7
BUILD_REPEATS = 3
# Host-speed correction.  On shared 2-core virtual machines the speed of
# interpreted code can drift by up to 1.7x over tens of seconds.  So each
# timing is followed by a probe (a fixed pure-Python loop) and scaled by
# PROBE_REF_MS over the median probe within PROBE_WINDOW_S of it: the times
# reported are those of a host on which the probe takes PROBE_REF_MS.  Raw
# times are kept in the result file.
PROBE_REF_MS = 0.2
PROBE_WINDOW_S = 1.0
_PROBE_KEYS = tuple(range(64))

# per-layer self-time metrics: span name -> metric
LAYER_TIMES = {
    "pattern.matmul": "pattern.matmul_s", "pattern.add": "pattern.add_s",
    "pattern.stack": "pattern.stack_s", "pattern.transpose": "pattern.transpose_s",
    "rank.eliminate": "rank.eliminate_s", "rank.verify": "rank.verify_s",
    "rank.matching": "rank.matching_s", "rank.refute": "rank.refute_s",
    "rank.exact_rank": "rank.exact_rank_s", "rank.float_rank": "rank.float_rank_s",
    "realization.sample": "realization.sample_s",
    "realization.contains": "realization.contains_s",
    "realization.decompose": "realization.decompose_s",
    "systems.check": "systems.check_s", "network.build": "network.build_s",
    "network.check": "network.check_s", "oracles.self": "oracles.self_s",
}
SETUP_TIMES = {"pattern.parse": "pattern.parse_s", "network.parse": "network.parse_s"}
LAYER_COUNTS = (
    "pattern.matmul_calls", "pattern.matmul_entries", "rank.eliminate_calls",
    "rank.pivots", "rank.stall_rows", "rank.refute_calls", "rank.exact_rank_calls",
    "realization.sample_calls", "systems.conditions", "oracles.trials",
)
# the layer(s) each workload was chosen to load
LOADED = {
    "structural": ("rank.eliminate",),
    "network": ("pattern.matmul",),
    "soundness": ("rank.refute", "rank.exact_rank", "realization.sample"),
    "cli": ("cli.interpreter", "cli.import"),
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _child_seconds(code: str) -> float:
    """Run `python -c code` and return the float it prints."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), cwd=ROOT, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


_TIMED_IMPORT = "import time; t = time.perf_counter(); import {0}; print(time.perf_counter() - t)"


def _child_wall(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], capture_output=True, env=_child_env(), cwd=ROOT,
                   timeout=60, check=True)
    return time.perf_counter() - start


def _blas_threads():
    """Threads of the BLAS pool numpy loaded, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def probe_ms() -> float:
    """Best of three timings of a fixed loop of dict, tuple and integer
    work: how fast the host runs interpreted code right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        counts: dict = {}
        acc = 0
        for i in range(1500):
            key = _PROBE_KEYS[i & 63]
            counts[key] = counts.get(key, 0) + 1
            acc += key if key & 1 else -key
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def _scaled(seconds: float) -> float:
    """One timing corrected by a probe taken right after it."""
    return seconds * PROBE_REF_MS / probe_ms()


def _environment(load_start, probe_start) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": _blas_threads(),
        "load_1min_start": load_start,
        "load_1min_end": os.getloadavg()[0],
        "probe_ms_start": probe_start,
        "probe_ms_end": probe_ms(),
    }


def _call(op, limit: float, alarm: bool):
    """Run one operation under the time limit: (result, seconds, failure)."""
    if alarm:
        signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        result = op.call()
        elapsed = time.perf_counter() - start
    except (OpTimeout, subprocess.TimeoutExpired):
        return None, time.perf_counter() - start, f"exceeded the {limit:g} s limit"
    except Exception as exc:  # an operation that raises fails; the run goes on
        return None, time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    finally:
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return result, elapsed, op.failure(result)


class Measurement:
    def __init__(self):
        self.raw: list[float] = []  # wall seconds per operation
        self.ends: list[float] = []
        self.probes: list[float] = []  # probe after each operation, ms
        self.timed_out: list[bool] = []
        self.ids: list[str] = []
        self.failures: Counter = Counter()
        self.busy = 0.0

    def run(self, ops, workload, seconds: float, tracer=None, cycles=None,
            min_samples=MIN_SAMPLES):
        """Whole cycles until `seconds` of operation time and `min_samples`
        operations (or exactly `cycles` cycles); capped at 3 x seconds."""
        done = 0
        while True:
            for op in ops:
                if tracer is not None:
                    with tracer.span("op"):
                        result, elapsed, failure = _call(op, workload.limit_s, workload.alarm)
                else:
                    result, elapsed, failure = _call(op, workload.limit_s, workload.alarm)
                self.raw.append(elapsed)
                self.ends.append(time.perf_counter())
                self.probes.append(probe_ms())
                self.timed_out.append(failure is not None and failure.startswith("exceeded"))
                self.ids.append(op.id)
                self.busy += elapsed
                if failure is not None:
                    self.failures[(op.id, failure)] += 1
                else:
                    op.check(result)  # CheckError ends the run
            done += 1
            if cycles is not None:
                if done >= cycles:
                    return
            elif (self.busy >= seconds and len(self.raw) >= min_samples) or (
                    self.busy >= 3 * seconds):
                return

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def latencies(self) -> list[float]:
        """Host-speed corrected seconds per operation.  An operation cut by
        the time limit keeps its wall time, which the limit set."""
        out = []
        for raw, end, cut in zip(self.raw, self.ends, self.timed_out):
            lo = bisect.bisect_left(self.ends, end - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.ends, end + PROBE_WINDOW_S)
            out.append(raw if cut else raw * PROBE_REF_MS / statistics.median(self.probes[lo:hi]))
        return out


def _setup(pm, workload, texts):
    imports = [_scaled(_child_seconds(_TIMED_IMPORT.format("patmat")))
               for _ in range(IMPORT_REPEATS)]
    builds = []
    built = None
    for _ in range(BUILD_REPEATS):
        built = None
        gc.collect()  # every build starts from the same heap
        start = time.perf_counter()
        built = workload.build(pm, texts)
        builds.append(_scaled(time.perf_counter() - start))
    return built, {"import_s": imports, "build_s": builds,
                   "setup_s": statistics.median(imports) + statistics.median(builds)}


def _quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(pm, workload, texts, seconds):
    built, setup = _setup(pm, workload, texts)
    ops = workload.cycle(pm, texts, built)
    gc.collect()
    m = Measurement()
    m.run(ops, workload, seconds)
    lat = m.latencies()
    p90 = _quantile(lat, 90)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": setup["setup_s"],
        "throughput_ops_s": (len(lat) - m.failed) / sum(lat),
        "latency_p50_ms": _quantile(lat, 50) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "success_ratio": (len(lat) - m.failed) / len(lat),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    by_op: dict[str, list[float]] = {}
    for op_id, seconds_taken in zip(m.ids, lat):
        by_op.setdefault(op_id, []).append(seconds_taken)
    detail = {
        "setup": setup,
        "samples": len(lat),
        "samples_above_p90": sum(x > p90 for x in lat),
        "busy_s": m.busy,
        "ops_per_cycle": len(ops),
        "median_ms_by_op": {k: statistics.median(v) * 1e3 for k, v in sorted(by_op.items())},
        "probe_ms": {"median": statistics.median(m.probes), "min": min(m.probes),
                     "max": max(m.probes)},
        "uncorrected": {
            "throughput_ops_s": (len(lat) - m.failed) / m.busy,
            "latency_p50_ms": _quantile(m.raw, 50) * 1e3,
            "latency_p90_ms": _quantile(m.raw, 90) * 1e3,
        },
    }
    return m, metrics, detail


def traced(pm, workload, texts, seconds, seed):
    from tracing import Tracer

    built = workload.build(pm, texts)
    detail = {}
    metrics = {}
    # cli layers: interpreter start and a fresh import, each from new processes
    interpreter = statistics.median(
        _scaled(_child_wall(["-c", "pass"])) for _ in range(IMPORT_REPEATS))
    imported = statistics.median(
        _scaled(_child_wall(["-c", "import patmat.cli"])) for _ in range(IMPORT_REPEATS))
    metrics["cli.interpreter_ms"] = interpreter * 1e3
    metrics["cli.import_ms"] = (imported - interpreter) * 1e3

    if workload.name == "cli":
        workload.in_process = True
    ops = workload.cycle(pm, texts, built)

    # after a short warm-up, untraced cycles are the baseline for the
    # tracing overhead
    Measurement().run(ops[:8], workload, 0, cycles=1)
    base = Measurement()
    base.run(ops, workload, seconds / 4, min_samples=0)
    base_lat = base.latencies()
    metrics["cli.run_ms"] = statistics.median(base_lat) * 1e3 if workload.name == "cli" else 0.0

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            workload.build(pm, texts)
        setup_scale = PROBE_REF_MS / probe_ms()
        setup_self = tracer.self_times()
        tracer.spans.clear()
        tracer.counts.clear()
        m = Measurement()
        m.run(ops, workload, seconds, tracer=tracer)
    finally:
        tracer.uninstall()

    lat = m.latencies()
    ops_done = len(lat)
    scale = PROBE_REF_MS / statistics.median(m.probes)
    self_s = {name: t * scale for name, t in tracer.self_times().items()}
    for span, metric in SETUP_TIMES.items():
        metrics[metric] = setup_self.get(span, 0.0) * setup_scale
    for span, metric in LAYER_TIMES.items():
        metrics[metric] = self_s.get(span, 0.0) / ops_done
    for name in LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0) / ops_done
    refutes = tracer.counts.get("rank.refute_calls", 0)
    metrics["rank.witness_ratio"] = (
        tracer.counts.get("rank.witnesses", 0) / refutes if refutes else 0.0)
    metrics["trace.overhead_ratio"] = statistics.fmean(lat) / statistics.fmean(base_lat) - 1.0

    # self-time share per layer, per operation; cli adds the process layers
    per_op = {name: s / ops_done for name, s in self_s.items() if name != "setup"}
    if workload.name == "cli":
        per_op["cli.interpreter"] = interpreter
        per_op["cli.import"] = imported - interpreter
    total = sum(per_op.values())
    shares = {k: v / total for k, v in sorted(per_op.items(), key=lambda kv: -kv[1])}
    loaded = sum(shares.get(k, 0.0) for k in LOADED[workload.name])
    others = max((v for k, v in shares.items() if k not in LOADED[workload.name]), default=0.0)
    detail["self_time_share"] = shares
    detail["loaded_layers"] = {"layers": LOADED[workload.name], "share": loaded,
                               "largest": loaded > others}
    detail["samples"] = ops_done
    detail["spans"] = len(tracer.spans)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return m, metrics, detail


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "patmat" / "__init__.py").is_file():
        print(f"error: patmat sources not found under {SRC}", file=sys.stderr)
        return 2
    load_start, probe_start = os.getloadavg()[0], probe_ms()
    sys.path.insert(0, str(SRC))
    import patmat as pm
    from check import CheckError

    signal.signal(signal.SIGALRM, _alarm)
    workload = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    texts = workload.generate(args.seed, OUT)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            m, metrics, detail = traced(pm, workload, texts, args.seconds, args.seed)
        else:
            m, metrics, detail = end_to_end(pm, workload, texts, args.seconds)
        correct, error = True, None
    except CheckError as exc:
        correct, error = False, str(exc)
        m, metrics, detail = None, {}, {}
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")

    attempted = len(m.raw) if m else 1
    failed = m.failed if m else 0
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "error": error,
        "failures": [{"id": i, "reason": r, "count": c}
                     for (i, r), c in sorted(m.failures.items())] if m else [],
        "environment": _environment(load_start, probe_start),
    })
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "detail": detail}, indent=1, default=str) + "\n",
        encoding="utf-8")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("detail: " + json.dumps(detail, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
