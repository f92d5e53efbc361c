"""Running one pass of a workload and checking it.

A workload is a fixed list of operations; an operation is one runner or
solver call.  ``run_pass`` times the operations back to back with a tracer
installed and catches what they raise; ``check_pass`` then, outside the
timed region, runs each operation's check and compares the counts and output
digests that must repeat exactly.  An operation fails if it raises, if its
check fails, or if a repeat comparison differs.
"""

from __future__ import annotations

import hashlib
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


class OpFailure(RuntimeError):
    """An operation returned a failure status instead of raising."""


@dataclass(frozen=True)
class Op:
    """``run(ctx) -> output``; ``check(output, ctx, verdict)`` records failures.

    ``stream`` marks operations whose outputs depend on the trajectory stream,
    so they repeat only between passes that share a stream.
    """

    name: str
    run: Callable
    check: Callable
    stream: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    prepare: Callable = lambda ctx: None  # writes per-pass inputs, untimed
    params: dict = field(default_factory=dict)


@dataclass
class PassContext:
    dir: Path  # operation outputs; emptied before each pass
    config_dir: Path
    stream: int
    seed: int  # trajectory seed of this stream
    outputs: dict = field(default_factory=dict)
    shared: dict = field(default_factory=dict)


class Verdict:
    def __init__(self):
        self.failures: list = []
        self.report: dict = {}

    def require(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)


@dataclass
class OpResult:
    name: str
    output: object = None
    error: str | None = None
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    report: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)


@dataclass
class PassResult:
    seconds: float
    cpu_s: float
    ops: list


def stream_seed(seed: int, stream: int) -> int:
    """Trajectory seed of pass stream ``stream`` under benchmark seed ``seed``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def new_context(workdir: Path, seed: int, stream: int) -> PassContext:
    out = workdir / "pass"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    configs = workdir / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    return PassContext(dir=out, config_dir=configs, stream=stream, seed=stream_seed(seed, stream))


def run_pass(workload: Workload, ctx: PassContext, tracer) -> PassResult:
    """Run every operation once; only this part is timed."""
    results = [OpResult(op.name) for op in workload.ops]
    marks = []
    tracer.reset()
    with tracer:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for op, res in zip(workload.ops, results):
            marks.append({k: len(v) for k, v in tracer.values.items()})
            try:
                res.output = op.run(ctx)
                ctx.outputs[op.name] = res.output
            except Exception:
                res.error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    marks.append({k: len(v) for k, v in tracer.values.items()})
    for res, lo, hi in zip(results, marks, marks[1:]):
        res.counts = {k: list(tracer.values[k][lo.get(k, 0):n]) for k, n in hi.items() if n > lo.get(k, 0)}
    return PassResult(seconds=seconds, cpu_s=cpu, ops=results)


def digest(output) -> str:
    """Hash of what an operation produced: its CSV files, or its arrays."""
    h = hashlib.sha256()
    if isinstance(output, Path):
        for path in sorted(output.rglob("*.csv")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    elif hasattr(output, "observables"):
        for group in (output.observables, output.stderr):
            for name in sorted(group):
                h.update(name.encode())
                h.update(np.ascontiguousarray(group[name]).tobytes())
    else:
        h.update(repr(output).encode())
    return h.hexdigest()


def check_pass(workload: Workload, result: PassResult, ctx: PassContext, refs: dict,
               fixed_keys=(), stream_keys=()) -> None:
    """Check each operation and compare its repeatable counts and outputs.

    ``refs`` carries the first value seen for each comparison across passes:
    counts in ``fixed_keys`` must repeat in every pass; the output digest must
    repeat in every pass for stream-independent operations, and together with
    the counts in ``stream_keys`` between passes that share a stream.
    """
    for op, res in zip(workload.ops, result.ops):
        if res.error is not None:
            continue
        verdict = Verdict()
        try:
            op.check(res.output, ctx, verdict)
            out_digest = digest(res.output)
        except Exception:
            verdict.failures.append("check raised: " + traceback.format_exc())
            out_digest = None
        res.report = verdict.report
        res.failures.extend(verdict.failures)
        if out_digest is None:
            continue
        fixed = {k: res.counts.get(k, []) for k in fixed_keys}
        repeat = {k: res.counts.get(k, []) for k in stream_keys}
        repeat["digest"] = out_digest
        comparisons = (
            (("fixed", op.name), fixed),
            (("repeat", op.name, ctx.stream if op.stream else None), repeat),
        )
        for key, value in comparisons:
            first = refs.setdefault(key, value)
            if first != value:
                res.failures.append(f"{key[0]} counts changed between passes: {first} != {value}")
