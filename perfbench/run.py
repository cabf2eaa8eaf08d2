"""Benchmark for uav_isac: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload mc_crn --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ./src and
driven only through its public functions; nothing under src/ is
touched.  A single caller issues each call after the previous one has
returned.  Every result is checked against perfbench/reference.json.

--trace 0 times the workload for --seconds and prints the end-to-end
metrics.  Times are scaled to the reference machine's speed by the
kernel that hostspeed.Sampler runs during the calls.  --trace 1 runs a
fixed amount of work (a workload's traced_rounds, fewer when --seconds
is below 10) once without the tracer and once with spans recorded at
the module boundaries, then prints the per-layer metrics; the spans go
to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Without ./src/uav_isac the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
SETUP_REPEATS = 9
# Past --seconds a run goes on only to complete its quality sample, and
# never past this many seconds of measurement.
QUALITY_DEADLINE_S = 120
TAIL_BEYOND = 10
TAIL_SEGMENT = 60

# What setup_s times in a fresh interpreter: importing the package, the
# first SystemParams (its cached properties) and qos_radius, and the
# first numpy linear-algebra and random-number calls.
SETUP_CODE = (
    "import numpy as np, uav_isac\n"
    "p = uav_isac.SystemParams()\n"
    "uav_isac.qos_radius(p); p.sens_gain\n"
    "np.linalg.solve(np.eye(3), np.ones(3)); np.random.default_rng(0).standard_normal(3)\n"
)


def launch_ns(code: str) -> int:
    """Wall time of a fresh interpreter running code, in ns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter_ns() - t0


def setup_sample() -> tuple[int, float]:
    """One set-up launch and its host-speed-scaled time, in ns.

    Set-up is mostly process start and imports, which do not track the
    compute kernel; it is scaled instead by a launch that only imports
    numpy, made right after it."""
    raw = launch_ns(SETUP_CODE)
    return raw, raw * hostspeed.NOMINAL_LAUNCH_NS / launch_ns(hostspeed.LAUNCH_CODE)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_metadata() -> dict:
    src_lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                    for f in sorted((SRC / "uav_isac").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "src_uav_isac_lines": src_lines,
    }


def close(got, want) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return abs(got - want) <= REFERENCE_RTOL * max(abs(got), abs(want)) + REFERENCE_ATOL


class Tally:
    """What one pass did: per call its kind, its duration raw and in
    nominal host-speed nanoseconds, and whether its result passed; plus
    work done, quality samples and the host's speed over the pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kinds: list[str] = []
        self.call_ns: list[int] = []
        self.normalized: list[float] = []
        self.passed: list[bool] = []
        self.work = 0
        self.rounds = 0
        self.quality: list[float] = []
        self.speed = 1.0

    def latencies(self, kind: str) -> list[float]:
        return [t for t, k, ok in zip(self.normalized, self.kinds, self.passed) if ok and k == kind]


def run_pass(workload, rounds, reference, tally, keep_going, sampler, tracer=None, between=None):
    """Run rounds while keep_going(tally, elapsed_s) holds, checking each
    result; returns the rounds run.  Only the calls into the package are
    timed (and traced), on the running sampler's clock; checks and
    between(elapsed_s), called after each round with the sampler
    paused, run between calls."""
    done = []
    spans = []
    start = time.perf_counter()
    gc.collect()
    for ops, work in rounds:
        if not keep_going(tally, time.perf_counter() - start):
            break
        for kind, key in ops:
            tally.attempted += 1
            if tracer is not None:
                tracer.active = True
            t0 = sampler.clock()
            try:
                out = workload.call(kind, key)
                error = None
            except Exception:  # noqa: BLE001 - a failed call is counted and reported
                out, error = None, traceback.format_exc()
            t1 = sampler.clock()
            if tracer is not None:
                tracer.active = False
            problem = error or check(workload, kind, key, out, reference, tally)
            if problem:
                tally.failed += 1
                print(f"FAILED {workload.name} {kind} {key}: {problem}", file=sys.stderr)
            tally.kinds.append(kind)
            spans.append((t0, t1))
            tally.passed.append(not problem)
        tally.work += work
        tally.rounds += 1
        done.append((ops, work))
        if between is not None:
            sampler.paused = True
            between(time.perf_counter() - start)
            sampler.paused = False
    tally.call_ns += [t1 - t0 for t0, t1 in spans]
    tally.normalized += sampler.normalize(spans)
    tally.speed = sampler.speed()
    return done


def check(workload, kind, key, out, reference, tally):
    """Compare one result with its reference; returns a problem or None."""
    try:
        got = workload.summary(kind, key, out)
    except Exception:  # noqa: BLE001 - a malformed result is a failure
        return traceback.format_exc()
    want = reference[workload.name].get(workload.reference_key(kind, key))
    if want is None:
        return "no reference value"
    if any(isinstance(v, float) and not math.isfinite(v) for v in got):
        return f"non-finite result {got}"
    if len(got) != len(want) or not all(close(g, w) for g, w in zip(got, want)):
        return f"result {got} differs from reference {want}"
    q = workload.quality(kind, key, got)
    if q is not None:
        if not (math.isfinite(q) and q > 0.0):
            return f"quality value {q} is not positive and finite"
        tally.quality.append(q)
    return None


def tail_index(n: int) -> int:
    """Index of the highest order statistic of n sorted samples with at
    least TAIL_BEYOND samples above it, never below the median."""
    return max(n - 1 - TAIL_BEYOND, (n - 1) // 2)


def segment_tail(samples) -> tuple[float, float, int]:
    """Tail latency of a run: the samples, in call order, are cut into
    segments of exactly TAIL_SEGMENT calls (the remainder is left out),
    and each segment's tail is its highest order statistic with
    TAIL_BEYOND samples above it.  Returns the median of the segment
    tails, their percentile and the segment count.  Fixed-size segments
    keep the percentile the same however many calls a run completes,
    and one short stall on the host moves one segment, not the result.
    A run shorter than one segment is a single segment."""
    size = min(TAIL_SEGMENT, len(samples))
    k = len(samples) // size
    idx = tail_index(size)
    tails = [sorted(samples[i * size:(i + 1) * size])[idx] for i in range(k)]
    return statistics.median(tails), 100.0 * (idx + 1) / size, k


def end_to_end(workload, args, meta, reference):
    rng = np.random.default_rng(args.seed)
    tally = Tally()
    q_need = workload.quality_samples

    def keep_going(t, elapsed):
        # Only passing results add quality samples, so once a result has
        # failed the run stops on time and reports the failure.
        if elapsed < args.seconds:
            return True
        return len(t.quality) < q_need and t.failed == 0 and elapsed < QUALITY_DEADLINE_S

    # Set-up samples are spread over the run, so that its median spans
    # the host's speed drift like the calls do.
    setup = []

    def take_setup_samples(elapsed):
        while len(setup) < SETUP_REPEATS * min(1.0, elapsed / args.seconds):
            setup.append(setup_sample())

    with hostspeed.Sampler() as sampler:
        run_pass(workload, workload.rounds(rng), reference, tally, keep_going, sampler,
                 between=take_setup_samples)
    take_setup_samples(args.seconds)
    lat = [t / workload.solves_per_call for t in tally.latencies(workload.primary)]
    if not lat:
        return tally, {}
    tail_ns, tail_pct, segments = segment_tail(lat)
    meta.update({
        "rounds": tally.rounds,
        "busy_raw_s": sum(tally.call_ns) / 1e9,
        "host_speed": tally.speed,
        "latency_samples": len(lat),
        "tail_segments": segments,
        "tail_segment_samples": min(TAIL_SEGMENT, len(lat)),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": TAIL_BEYOND,
        "quality_samples": min(len(tally.quality), q_need),
        "setup_raw_s": statistics.median(r for r, _ in setup) / 1e9,
    })
    for kind in sorted(set(tally.kinds)):
        meta[f"{kind}_p50_ms"] = statistics.median(tally.latencies(kind)) / 1e6
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup) / 1e9, "s"),
        "throughput_per_s": (tally.work / (sum(tally.normalized) / 1e9), "1/s"),
        "call_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "call_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        # Whenever a primary call passed there is at least one sample.
        "steady_bound": (float(np.mean(tally.quality[:q_need])), "m2"),
    }
    return tally, metrics


def per_layer(workload, args, meta, reference):
    from workloads import ENTRY_ONLY, LAYER_NAMES, Outcomes

    rng = np.random.default_rng(args.seed)
    n_rounds = max(1, round(workload.traced_rounds * min(1.0, args.seconds / 10)))

    def keep_going(t, elapsed):
        return t.rounds < n_rounds

    plain = Tally()
    with hostspeed.Sampler() as sampler:
        rounds = run_pass(workload, workload.rounds(rng), reference, plain, keep_going, sampler)

    traced, outcomes = Tally(), Outcomes()
    with hostspeed.Sampler() as sampler:
        tracer = Tracer(sampler.clock)
        outcomes.install(tracer)
        try:
            run_pass(workload, rounds, reference, traced, keep_going, sampler, tracer)
        finally:
            tracer.restore()
    stats = tracer.layer_stats()
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload.name}.csv"
    tracer.write(span_file)

    speed = traced.speed
    metrics = {}
    for name in LAYER_NAMES:
        s = stats[name]
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.self_ms"] = (s["self_ms"] * speed, "ms")
        metrics[f"{name}.errors"] = (s["errors"], "count")

    def per_solve(child, parent):
        calls = stats[parent]["calls"]
        return stats[child]["calls"] / calls if calls else 0.0

    metrics["optimize.objective_f.per_solve"] = (
        per_solve("optimize.objective_f", "optimize.solve_p1_sca"), "count")
    metrics["optimize.g0_derivatives.per_solve"] = (
        per_solve("optimize.g0_derivatives", "optimize.solve_sp1"), "count")
    metrics["optimize.sca_gap_m"] = (outcomes.sca_gap_m(), "m")
    layer_ms = sum(s["self_ms"] for n, s in stats.items() if n not in ENTRY_ONLY)
    metrics["trace.coverage"] = (layer_ms / (sum(traced.call_ns) / 1e6), "ratio")
    metrics["trace.overhead"] = (sum(traced.normalized) / sum(plain.normalized), "ratio")
    for name, value in outcomes.metrics().items():
        metrics[name] = (value, "ratio" if "share" in name else "m2")

    meta.update({"rounds": traced.rounds, "spans": len(tracer.spans),
                 "span_file": str(span_file.relative_to(ROOT)), "host_speed": speed,
                 "untraced_busy_raw_s": sum(plain.call_ns) / 1e9,
                 "traced_busy_raw_s": sum(traced.call_ns) / 1e9,
                 "gap_samples": len(outcomes.gap_sample)})
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not (SRC / "uav_isac" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'uav_isac'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uav_isac
    from workloads import WORKLOADS, warm_up

    if Path(uav_isac.__file__).resolve().parent != (SRC / "uav_isac").resolve():
        print(f"error: imported uav_isac from {uav_isac.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    with open(BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    workload = WORKLOADS[args.workload]()
    meta = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **run_metadata()}
    warm_up()
    measure = per_layer if args.trace else end_to_end
    tally, metrics = measure(workload, args, meta, reference)

    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if metrics else max(tally.failed, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
