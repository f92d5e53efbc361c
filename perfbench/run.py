"""mirrorqed benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is taken
from the checkout's ``src`` directory.  Set-up time is measured here over
several fresh interpreters; the workload itself runs in one more fresh
interpreter (worker.py) with the BLAS/OpenMP thread cap in its environment
before numpy loads.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every operation passed its checks.  Files go to ``.perfbench_runs/``
in the checkout.
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
SRC = ROOT / "src"
WORKLOADS = ("decay", "driven", "scattering", "scattering_wide")
BLAS_THREADS = "1"
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0  # the whole command, set-up included
SETUP_PROBE = (
    "import time, mirrorqed.cli, mirrorqed.experiments; t = time.perf_counter(); "
    "print(repr(t), mirrorqed.__file__)"
)
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def measure_setup(env) -> list:
    """Seconds from starting a fresh interpreter until mirrorqed.cli and
    mirrorqed.experiments are imported (perf_counter is system-wide
    CLOCK_MONOTONIC on Linux, so the child's stamp is comparable).  Called
    after the worker, which has compiled the bytecode cache."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise BenchError(f"importing mirrorqed failed:\n{out.stderr}")
        stamp, path = out.stdout.split(maxsplit=1)
        if SRC.resolve() not in Path(path.strip()).resolve().parents:
            raise BenchError(f"mirrorqed imported from {path.strip()}, not from {SRC}")
        samples.append(float(stamp) - t0)
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workdir = ROOT / ".perfbench_runs" / name
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    result = workdir / f"result-seed{seed}-trace{trace}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir),
           "--result", str(result)]
    log = workdir / "worker.log"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: worker exceeded the time limit; see {log}")
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text()[-3000:]
        raise BenchError(f"{name}: worker exited with {proc.returncode}:\n{tail}")
    summary = json.loads(result.read_text())
    summary["setup_s"] = measure_setup(env) if not trace else []
    result.write_text(json.dumps(summary, indent=1))
    return summary


def contract_line(summary: dict) -> dict:
    if summary["trace"]:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary["layer"].items()}
    else:
        values = {
            "setup_s": statistics.median(summary["setup_s"]),
            "run_s": summary["run_s_median"],
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def print_summary(s: dict) -> None:
    m = s["machine"]
    print(f"== {s['workload']}  seed {m['seed']}  trace {s['trace']}  "
          f"({len(s['run_s'])} timed passes in a {s['seconds']:g} s run)")
    print(f"machine: {m['nproc']} cpus ({m['affinity_cpus']} usable), {m['cpu_model']}; "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, {m['blas']}; "
          f"BLAS threads cap {m['blas_thread_cap']['OPENBLAS_NUM_THREADS']}, measured "
          f"{m['blas_threads_measured']}; commit {m['git_commit']}")
    print(f"inputs: {json.dumps(s['params'])}")
    rows = []
    if s["setup_s"]:
        rows.append(("setup_s", statistics.median(s["setup_s"]), "s",
                     f"median of {len(s['setup_s'])} fresh interpreters"))
    run_s = s["run_s"]
    tail = s["run_s_tail"]
    note = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
            "no percentile has ten passes beyond it")
    rows.append(("run_s", s["run_s_median"], "s",
                 f"median of {len(run_s)} passes, min {min(run_s):.4f}, max {max(run_s):.4f}; {note}"))
    rows.append(("peak_rss_mb", s["peak_rss_mb"], "MB", "peak RSS of the workload process"))
    if s["traj_per_s"] is not None:
        rows.append(("traj_per_s", s["traj_per_s"], "1/s", "trajectories per second of mcwf_evolve"))
    rows.append(("fail_share", s["failed"] / s["attempted"], "ratio",
                 f"{s['failed']} of {s['attempted']} operations failed"))
    for key, val in sorted(s["reports"].items()):
        rows.append((key, val, "", "check value, median over passes"))
    for name, val, unit, note in rows:
        print(f"  {name:<26} {val:>14.6g} {unit:<6} {note}")
    if s["trace"]:
        for name, (val, unit) in s["layer"].items():
            print(f"  {name:<32} {val:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "mirrorqed" / "__init__.py").is_file():
        print(f"error: no mirrorqed package under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            summary = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_summary(summary)
        lines[name] = contract_line(summary)
    if args.workload == "all":
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[args.workload]))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
