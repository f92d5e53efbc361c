"""What the benchmark traces in mirrorqed, and the per-layer metrics.

The layers are the package's modules.  Two tracers are built from this file:

* the probe tracer, installed on every pass, wraps only the few coarse calls
  whose return values carry the counts that must repeat exactly (Hilbert
  dim, superoperator nnz, RHS evaluations, DDE steps, chain sector dim,
  trajectory and jump counts).  It adds a handful of wrapped calls per pass;
* the full tracer, installed on the traced passes of a ``--trace 1`` run,
  wraps every public function and method of every module as well.
"""

from __future__ import annotations

import importlib
import re

from tracing import Tracer, inclusive_time, public_targets, self_time_by

LAYERS = (
    "cli", "experiments", "model", "hilbert", "lindblad",
    "mcwf", "scattering", "dde", "chain", "results",
)

# Counts that depend only on the workload's fixed inputs, and counts that
# depend on the trajectory stream as well.
FIXED_COUNTS = (
    "hilbert.space_dim", "lindblad.superop_nnz", "lindblad.rhs_evals",
    "dde.steps", "chain.sector_dim",
)
STREAM_COUNTS = ("mcwf.trajectories", "mcwf.jumping_trajectories", "mcwf.jumps")

# Called once per RK4 stage and per observable evaluation (about 10^5 times
# in a scattering pass): counted, but timed as part of its callers.
COUNT_ONLY = ("scattering.gaussian_envelope",)


def modules():
    pkg = importlib.import_module("mirrorqed")
    return [pkg] + [importlib.import_module(f"mirrorqed.{m}") for m in LAYERS]


def _put(key, value):
    def extract(tracer, args, kwargs, result):
        tracer.values[key].append(value(args, result))
    return extract


def _mcwf(tracer, args, kwargs, result):
    meta = result.meta
    tracer.values["mcwf.trajectories"].append(int(meta["n_traj"]))
    tracer.values["mcwf.jumping_trajectories"].append(int(meta["n_jumping_trajectories"]))
    tracer.values["mcwf.jumps"].append(int(meta["total_jumps"]))


EXTRACTORS = {
    "hilbert.CompositeSpace.__init__": _put("hilbert.space_dim", lambda a, r: a[0].dim),
    "lindblad.build_liouvillian": _put("lindblad.superop_nnz", lambda a, r: int(r.nnz)),
    "lindblad.solve_ivp": _put("lindblad.rhs_evals", lambda a, r: int(r.nfev)),
    "dde.solve_delay_ode": _put("dde.steps", lambda a, r: len(r.t) - 1),
    "chain.evolve_sector": _put("chain.sector_dim", lambda a, r: int(r.meta["dim"])),
    "mcwf.mcwf_evolve": _mcwf,
}


def _trace_observables(tracer, e_ops):
    """Give the I_out and G2 callables their own spans."""
    return {k: tracer.wrap(f"scattering.{k}", fn) for k, fn in e_ops.items()}


def _targets(mods, names):
    found = {}
    for name in names:
        mod, _, attr = name.partition(".")
        obj = next(m for m in mods if m.__name__.rsplit(".", 1)[-1] == mod)
        for part in attr.split("."):
            obj = getattr(obj, part)
        found[name] = obj
    return found


def probe_tracer() -> Tracer:
    mods = modules()
    return Tracer(mods, _targets(mods, EXTRACTORS), extractors=EXTRACTORS)


def full_tracer() -> Tracer:
    mods = modules()
    targets = public_targets(mods[1:])
    targets.update(_targets(mods, EXTRACTORS))
    return Tracer(
        mods,
        targets,
        extractors=EXTRACTORS,
        result_hooks={"scattering.make_output_e_ops": _trace_observables},
        count_only=COUNT_ONLY,
    )


# -- per-layer metrics ---------------------------------------------------------
_RUNNER = re.compile(r"^experiments\.run_(?!experiment$)")


def layer_metrics(tracer: Tracer, pass_info: dict) -> dict:
    """Per-layer numbers of one traced pass, as {name: (value, unit)}."""
    spans, calls, vals = tracer.spans, tracer.calls, tracer.values

    def incl(name):
        return inclusive_time(spans, lambda n: n == name)

    own = self_time_by(spans, lambda n: n.split(".", 1)[0])
    runners = self_time_by(spans, lambda n: "runner" if _RUNNER.match(n) else "")
    traj = sum(vals["mcwf.trajectories"])
    jumping = sum(vals["mcwf.jumping_trajectories"])
    evolve_s = incl("mcwf.mcwf_evolve")
    out = {f"{layer}.self_s": (own.get(layer, 0.0), "s") for layer in LAYERS}
    out.update({
        "lindblad.integrate_s": (incl("lindblad.integrate_me"), "s"),
        "lindblad.integrate_calls": (calls["lindblad.integrate_me"], "count"),
        "lindblad.rhs_evals": (sum(vals["lindblad.rhs_evals"]), "count"),
        "lindblad.liouvillian_s": (incl("lindblad.build_liouvillian"), "s"),
        "lindblad.superop_nnz": (max(vals["lindblad.superop_nnz"], default=0), "count"),
        "lindblad.steady_s": (incl("lindblad.steady_state"), "s"),
        "lindblad.steady_calls": (calls["lindblad.steady_state"], "count"),
        "lindblad.hamiltonian_s": (incl("lindblad.build_hamiltonian"), "s"),
        "lindblad.jumps_s": (incl("lindblad.build_jump_ops"), "s"),
        "experiments.overlay_s": (incl("experiments.markovian_overlay"), "s"),
        "experiments.qubit_steady_calls": (calls["experiments.qubit_steady_state"], "count"),
        "experiments.runner_self_s": (runners.get("runner", 0.0), "s"),
        "mcwf.evolve_s": (evolve_s, "s"),
        "mcwf.trajectories": (traj, "count"),
        "mcwf.jumping_trajectories": (jumping, "count"),
        "mcwf.jumps": (sum(vals["mcwf.jumps"]), "count"),
        "mcwf.shared_path_share": ((traj - jumping) / traj if traj else 0.0, "ratio"),
        "mcwf.traj_per_s": (traj / evolve_s if evolve_s > 0 else 0.0, "1/s"),
        "scattering.observable_calls": (calls["scattering.I_out"] + calls["scattering.G2"], "count"),
        "scattering.observable_s": (incl("scattering.I_out") + incl("scattering.G2"), "s"),
        "scattering.envelope_calls": (calls["scattering.gaussian_envelope"], "count"),
        "hilbert.embed_s": (incl("hilbert.CompositeSpace.embed"), "s"),
        "hilbert.embed_calls": (calls["hilbert.CompositeSpace.embed"], "count"),
        "hilbert.space_dim": (max(vals["hilbert.space_dim"], default=0), "count"),
        "dde.solve_s": (incl("dde.solve_delay_ode"), "s"),
        "chain.evolve_s": (incl("chain.evolve_sector"), "s"),
        "chain.sector_dim": (max(vals["chain.sector_dim"], default=0), "count"),
        "model.build_s": (inclusive_time(spans, lambda n: n.startswith("model.")), "s"),
        "results.write_s": (incl("results.write_csv"), "s"),
        "results.bytes": (pass_info["bytes"], "bytes"),
        "process.cpu_s": (pass_info["cpu_s"], "s"),
    })
    return out
