import engine
import layers
from engine import Op, Workload
from tracing import Tracer
from workloads import DECAY, check_convergence, check_emission


def _no_check(output, ctx, v):
    v.require(output is not None, "no output")


def _raise(ctx):
    raise RuntimeError("solver blew up")


def _run(workload, tmp_path, refs, stream=0, tracer=None):
    ctx = engine.new_context(tmp_path, seed=3, stream=stream)
    res = engine.run_pass(workload, ctx, tracer or Tracer([], {}))
    engine.check_pass(workload, res, ctx, refs, layers.FIXED_COUNTS, layers.STREAM_COUNTS)
    return res


def test_raising_operation_counts_as_failed(tmp_path):
    wl = Workload("fake", "test", ops=(
        Op("ok", lambda ctx: 1, _no_check),
        Op("raises", _raise, _no_check),
        Op("bad_output", lambda ctx: None, _no_check),
        Op("after", lambda ctx: 2, _no_check),
    ))
    res = _run(wl, tmp_path, {})
    assert [r.failed for r in res.ops] == [False, True, True, False]
    assert "solver blew up" in res.ops[1].error
    assert res.ops[2].failures == ["no output"]
    fail_share = sum(r.failed for r in res.ops) / len(res.ops)
    assert fail_share == 0.5
    assert res.seconds > 0


def test_changed_repeat_counts_fail_the_pass(tmp_path):
    sizes = iter([343, 343, 344])

    def build(ctx):
        return next(sizes)

    def record(tracer, args, kwargs, result):
        tracer.values["hilbert.space_dim"].append(result)

    tracer = Tracer([], {}, extractors={"x.build": record})
    wl = Workload("fake", "test", ops=(Op("build", lambda ctx: traced(ctx), _no_check),))
    traced = tracer.wrap("x.build", build)
    refs = {}
    kw = dict(refs=refs, tracer=tracer)
    assert not _run(wl, tmp_path, **kw).ops[0].failed
    assert not _run(wl, tmp_path, stream=1, **kw).ops[0].failed
    res = _run(wl, tmp_path, stream=2, **kw)
    assert res.ops[0].failed
    assert res.ops[0].failures[0].startswith("fixed counts changed")
    assert "[344]" in res.ops[0].failures[0]


def test_corrupted_output_fails_its_check(tmp_path):
    refs = {}
    ctx = engine.new_context(tmp_path, seed=0, stream=0)
    DECAY.prepare(ctx)
    res = engine.run_pass(DECAY, ctx, Tracer([], {}))
    engine.check_pass(DECAY, res, ctx, refs)
    assert not any(r.failed for r in res.ops), [r.failures or r.error for r in res.ops]
    conv, emission = res.ops[0].output, res.ops[1].output

    # a ladder whose errors do not fall
    table = (conv / "convergence.csv").read_text().splitlines()
    table[1], table[2] = table[2], table[1]
    (conv / "convergence.csv").write_text("\n".join(table) + "\n")
    v = engine.Verdict()
    check_convergence(conv, ctx, v)
    assert any("not strictly decreasing" in f for f in v.failures)

    # one exact-oracle value nudged by 1e-6
    path = emission / "emission_dde.csv"
    rows = path.read_text().splitlines()
    t, pop = rows[5].split(",")
    rows[5] = f"{t},{float(pop) + 1e-6!r}"
    path.write_text("\n".join(rows) + "\n")
    v = engine.Verdict()
    check_emission(emission, ctx, v)
    assert any("DDE vs closed form" in f for f in v.failures)

    # a truncated file makes the check raise, which check_pass records
    path.write_text("t,atom_population\n0.0\n")
    res.ops[1].failures.clear()
    engine.check_pass(DECAY, res, ctx, refs)
    assert res.ops[1].failed and "check raised" in res.ops[1].failures[0]
