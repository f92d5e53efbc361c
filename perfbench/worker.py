"""One workload run inside a fresh interpreter (started by run.py).

Runs an untimed warm-up pass, then timed passes back to back (a closed loop
with one client) until ``--seconds`` have passed, checks every pass outside
the timed region, and writes a JSON summary to ``--result``.  With
``--trace 1`` the timed passes alternate untraced and traced; the traced ones
give the per-layer metrics and the ratio of the two gives the overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_PASSES = 1000


def _import_package():
    import mirrorqed

    src = (ROOT / "src").resolve()
    if src not in Path(mirrorqed.__file__).resolve().parents:
        raise SystemExit(f"mirrorqed imported from {mirrorqed.__file__}, not from {src}")


def _openblas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, read through its C API."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_cap": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_measured": _openblas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def highest_tail(samples):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, among 99, 95, 90, 75 and 50; None if there is none."""
    xs = sorted(samples)
    for p in (99, 95, 90, 75, 50):
        k = int(len(xs) * p / 100)  # samples at or below index k - 1
        if len(xs) - k >= 10 and k > 0:
            return p, xs[k - 1]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    _import_package()
    import engine
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probe = layers.probe_tracer()
    full = layers.full_tracer() if args.trace else None
    refs: dict = {}
    passes: list = []

    def one_pass(kind, stream, tracer):
        ctx = engine.new_context(args.workdir, args.seed, stream)
        workload.prepare(ctx)
        res = engine.run_pass(workload, ctx, tracer)
        written = sum(p.stat().st_size for p in ctx.dir.rglob("*") if p.is_file())
        layer = None
        if tracer is full:
            layer = layers.layer_metrics(tracer, {"bytes": written, "cpu_s": res.cpu_s})
        engine.check_pass(workload, res, ctx, refs, layers.FIXED_COUNTS, layers.STREAM_COUNTS)
        evolve = [s for s in tracer.spans if s.name == "mcwf.mcwf_evolve"]
        record = {
            "kind": kind,
            "stream": stream,
            "seconds": res.seconds,
            "cpu_s": res.cpu_s,
            "bytes": written,
            "trajectories": sum(tracer.values["mcwf.trajectories"]),
            "mcwf_s": sum(s.end - s.start for s in evolve),
            "ops": [
                {"name": r.name, "failed": r.failed, "error": r.error, "failures": r.failures,
                 "report": r.report, "counts": r.counts}
                for r in res.ops
            ],
            "layer": layer,
        }
        for r in res.ops:
            if r.failed:
                print(f"[{kind} {stream}] {r.name} failed: {r.error or r.failures}", file=sys.stderr)
        passes.append(record)

    one_pass("warmup", 0, probe)
    # start another pass only while it is expected to end within the run
    # length, so a run lasts about --seconds whatever the pass time
    start = time.perf_counter()
    for i in range(MAX_PASSES):
        # traced runs pair each traced pass with an untraced one on the same
        # stream, so the pair differs only by the tracing
        traced = bool(args.trace) and i % 2 == 1
        stream = i // 2 if args.trace else i
        one_pass("traced" if traced else "timed", stream, full if traced else probe)
        typical = statistics.median(p["seconds"] for p in passes[1:])
        if time.perf_counter() - start + typical > args.seconds and (not args.trace or i >= 1):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timed = [p for p in passes if p["kind"] == "timed"]
    traced = [p for p in passes if p["kind"] == "traced"]
    run_s = [p["seconds"] for p in timed]
    ops = [op for p in passes for op in p["ops"]]
    reports = {}
    for op in ops:
        for k, val in op["report"].items():
            if val is not None:  # a check that failed may leave no value
                reports.setdefault(k, []).append(val)
    traj_rates = [p["trajectories"] / p["mcwf_s"] for p in timed if p["mcwf_s"] > 0]
    summary = {
        "workload": workload.name,
        "params": workload.params,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(args.seed),
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "run_s": run_s,
        "run_s_median": statistics.median(run_s),
        "run_s_tail": highest_tail(run_s),
        "peak_rss_mb": peak_rss_mb,
        "traj_per_s": statistics.median(traj_rates) if traj_rates else None,
        "reports": {k: statistics.median(v) for k, v in reports.items()},
        "passes": passes,
    }
    if traced:
        names = traced[0]["layer"]
        summary["layer"] = {
            k: (statistics.median(p["layer"][k][0] for p in traced), names[k][1]) for k in names
        }
        untraced = {p["stream"]: p["seconds"] for p in timed}
        summary["layer"]["trace_overhead"] = (
            statistics.median(p["seconds"] / untraced[p["stream"]] for p in traced), "ratio")
        spans = full.spans
        t0 = min((s.start for s in spans), default=0.0)
        (args.workdir / "spans.json").write_text(json.dumps(
            [[s.sid, s.parent, s.name, s.start - t0, s.end - t0] for s in spans]))
    args.result.write_text(json.dumps(summary, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
