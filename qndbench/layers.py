"""Which qndsim attributes the traced run wraps, and the per-layer metrics.

Each target lists the metrics that need it. When a later change removes
or renames a target, those metrics are reported as absent; the rest of
the traced run goes on. All metrics are per traced request except
``lindblad.generator_build_s`` (set-up, once per run) and the two
Lindblad check values (worst over the run).
"""

from __future__ import annotations

import statistics

from tracing import Tracer, union_length

SIMULATE = (
    "trajectories.simulate_jump_trajectory",
    "trajectories.simulate_quantum_jump",
)
RENDER = ("io.render_csv", "io.render_json")
EXPORT = (
    "trajectories.write_events_csv",
    "trajectories.write_staircase_csv",
    "trajectories.EnsembleStats.write_json",
)

KERNELS = ("kernels.calls", "kernels.run_s", "kernels.events",
           "kernels.events_per_s", "kernels.rng_draws", "kernels.truncations")
ENSEMBLE = ("trajectories.ensemble_s", "trajectories.sampler_s",
            "trajectories.reduce_s", "trajectories.reduce_events_per_s",
            "trajectories.parallelism")
QJ = ("trajectories.qj_s", "trajectories.qj_jumps",
      "trajectories.qj_null_jumps", "trajectories.qj_us_per_jump")
ROOTS = ("trajectories.qj_root_solves", "trajectories.qj_root_solve_s")
IO = ("io.render_s", "io.write_s", "io.files_written", "io.bytes_written",
      "io.bytes_per_s")
FEASIBILITY = ("rates.feasibility_calls", "rates.feasibility_s")
CLI = ("cli.main_s", "cli.self_s")


def _philox_counter(rng) -> int | None:
    try:
        words = rng.bit_generator.state["state"]["counter"]
    except (AttributeError, KeyError, TypeError):
        return None
    return sum(int(w) << (64 * k) for k, w in enumerate(words))


class _KernelProxy:
    """A kernel module whose ``run`` is timed; other attributes pass through."""

    def __init__(self, module, tracer: Tracer):
        self._module = module

        def before(args, kwargs):
            rng = args[0] if args else kwargs.get("rng")
            return rng, _philox_counter(rng)

        def after(span, state, result):
            rng, start = state
            status, times = result[0], result[1]
            span.info["events"] = len(times)
            span.info["truncated"] = int(status != 0)
            end = _philox_counter(rng)
            if start is not None and end is not None:
                span.info["draws"] = end - start

        self.run = tracer.spanned(module.run, "kernels.run", before, after)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _events_of(result) -> int:
    stats = result[0] if isinstance(result, tuple) else result
    return int(stats.counts.sum())


def install_targets(tracer: Tracer, qnd) -> dict:
    """Register every wrapper; returns metric -> list of target labels."""
    trajectories, lindblad, io, cli = qnd.trajectories, qnd.lindblad, qnd._io, qnd.cli
    t = tracer
    needs: dict[str, list[str]] = {}

    def add(owner, attr, metrics, make):
        label = "%s.%s" % (getattr(owner, "__name__", owner), attr)
        t.add_target(owner, attr, make)
        for m in metrics:
            needs.setdefault(m, []).append(label)

    def span(name, after=None):
        return lambda fn: t.spanned(fn, name, after=after)

    def get_backend(fn):
        return lambda *a, **k: _KernelProxy(fn(*a, **k), t)

    def ensemble_done(sp, _state, result):
        sp.info["events"] = _events_of(result)

    def qj_done(sp, _state, traj):
        sp.info["events"] = int(traj.n_events)
        sp.info["nulls"] = int(traj.null_jumps)

    def ivp_done(sp, _state, sol):
        sp.info["nfev"] = int(getattr(sol, "nfev", 0))

    def write_done(sp, state, _result):
        sp.info["bytes"] = state

    def text_size(args, kwargs):
        text = args[1] if len(args) > 1 else kwargs.get("text", "")
        return len(text.encode())

    add(trajectories, "get_backend", KERNELS, get_backend)
    add(trajectories, "ensemble", ENSEMBLE,
        span("trajectories.ensemble", ensemble_done))
    add(cli, "ensemble", ENSEMBLE,
        span("trajectories.ensemble", ensemble_done))
    for name in SIMULATE:
        attr = name.split(".")[1]
        after = qj_done if attr == "simulate_quantum_jump" else None
        metrics = ENSEMBLE + (QJ if after else ())
        add(trajectories, attr, metrics, span(name, after))
    add(trajectories, "brentq", ROOTS, span("trajectories.brentq"))
    add(lindblad, "solve_ivp", ("lindblad.solver_s", "lindblad.rhs_calls",
                                "lindblad.evolve_diag_s"),
        span("lindblad.solve_ivp", ivp_done))
    gen_cls = getattr(lindblad, "LindbladGenerator", None)
    add(gen_cls, "apply", ("lindblad.apply_calls",), span("lindblad.apply"))
    add(gen_cls, "superoperator", ("lindblad.superoperator_s",),
        span("lindblad.superoperator"))
    add(lindblad, "evolve", ("lindblad.evolve_s", "lindblad.evolve_diag_s"),
        span("lindblad.evolve"))
    add(lindblad, "steady_state", ("lindblad.steady_state_s",),
        span("lindblad.steady_state"))
    for attr in ("reduced_generator", "bipartite_generator"):
        add(lindblad, attr, ("lindblad.generator_build_s",),
            span("lindblad.generator_build"))
    add(io, "render_csv", ("io.render_s",), span("io.render_csv"))
    add(io, "render_json", ("io.render_s",), span("io.render_json"))
    add(io, "atomic_write_text", IO[1:],
        lambda fn: t.spanned(fn, "io.atomic_write_text", text_size, write_done))
    add(getattr(trajectories, "Trajectory", None), "boxcar",
        ("trajectories.boxcar_s",), span("trajectories.boxcar"))
    add(cli, "write_events_csv", ("trajectories.export_s",),
        span("trajectories.write_events_csv"))
    add(cli, "write_staircase_csv", ("trajectories.export_s",),
        span("trajectories.write_staircase_csv"))
    add(getattr(trajectories, "EnsembleStats", None), "write_json",
        ("trajectories.export_s",), span("trajectories.EnsembleStats.write_json"))
    add(cli, "main", CLI, span("cli.main"))
    add(cli, "feasibility", FEASIBILITY, span("rates.feasibility"))
    return needs


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, traced: list[int], needs: dict,
                  check_values: dict, overhead: float) -> dict:
    """Per-layer metric values; metrics whose targets are missing are left out."""
    reqs = set(traced)
    n = max(len(reqs), 1)
    index = tracer.children_index()

    def spans(*names):
        return tracer.named(*names, requests=reqs)

    def total(*names):
        return sum(s.duration for s in spans(*names))

    def info(name, key):
        return sum(s.info.get(key, 0) for s in spans(name))

    def busy(*names):
        # wall time with at least one such span open; worker threads overlap
        return union_length((s.start, s.end) for s in spans(*names))

    def self_total(name):
        return sum(tracer.self_time(s, index) for s in spans(name))

    runs = spans("kernels.run")
    run_s = busy("kernels.run")
    events = info("kernels.run", "events")

    ens = spans("trajectories.ensemble")
    sampler_union = sampler_sum = 0.0
    for e in ens:
        kids = [c for c in index.get(e.sid, ()) if c.name in SIMULATE]
        sampler_union += union_length((c.start, c.end) for c in kids)
        sampler_sum += sum(c.duration for c in kids)
    reduce_s = self_total("trajectories.ensemble")

    qj_s = busy("trajectories.simulate_quantum_jump")
    qj_events = info("trajectories.simulate_quantum_jump", "events")
    qj_nulls = info("trajectories.simulate_quantum_jump", "nulls")
    write_s = total("io.atomic_write_text")
    written = info("io.atomic_write_text", "bytes")
    setup_build = tracer.named("lindblad.generator_build", requests={-1})

    values = {
        "kernels.calls": len(runs) / n,
        "kernels.run_s": run_s / n,
        "kernels.events": events / n,
        "kernels.events_per_s": _ratio(events, run_s),
        "kernels.rng_draws": info("kernels.run", "draws") / n,
        "kernels.truncations": info("kernels.run", "truncated") / n,
        "trajectories.ensemble_s": total("trajectories.ensemble") / n,
        "trajectories.sampler_s": sampler_union / n,
        "trajectories.reduce_s": reduce_s / n,
        "trajectories.reduce_events_per_s": _ratio(
            info("trajectories.ensemble", "events"), reduce_s),
        "trajectories.parallelism": _ratio(sampler_sum, sampler_union),
        "trajectories.qj_s": qj_s / n,
        "trajectories.qj_jumps": (qj_events + qj_nulls) / n,
        "trajectories.qj_null_jumps": qj_nulls / n,
        "trajectories.qj_us_per_jump": 1e6 * _ratio(qj_s, qj_events + qj_nulls),
        "trajectories.qj_root_solves": len(spans("trajectories.brentq")) / n,
        "trajectories.qj_root_solve_s": busy("trajectories.brentq") / n,
        "lindblad.evolve_s": total("lindblad.evolve") / n,
        "lindblad.solver_s": total("lindblad.solve_ivp") / n,
        "lindblad.rhs_calls": info("lindblad.solve_ivp", "nfev") / n,
        "lindblad.evolve_diag_s": self_total("lindblad.evolve") / n,
        "lindblad.steady_state_s": total("lindblad.steady_state") / n,
        "lindblad.superoperator_s": total("lindblad.superoperator") / n,
        "lindblad.apply_calls": len(spans("lindblad.apply")) / n,
        "lindblad.steady_residual": check_values.get("steady_residual", 0.0),
        "lindblad.max_pop_error": check_values.get("max_pop_error", 0.0),
        "lindblad.generator_build_s": sum((s.duration for s in setup_build), 0.0),
        "io.render_s": total(*RENDER) / n,
        "io.write_s": write_s / n,
        "io.files_written": len(spans("io.atomic_write_text")) / n,
        "io.bytes_written": written / n,
        "io.bytes_per_s": _ratio(written, write_s),
        "trajectories.boxcar_s": total("trajectories.boxcar") / n,
        "trajectories.export_s": total(*EXPORT) / n,
        "cli.main_s": total("cli.main") / n,
        "cli.self_s": self_total("cli.main") / n,
        "rates.feasibility_calls": len(spans("rates.feasibility")) / n,
        "rates.feasibility_s": total("rates.feasibility") / n,
        "trace_overhead_frac": overhead,
    }
    missing = set(tracer.missing)
    return {
        name: value for name, value in values.items()
        if not missing.intersection(needs.get(name, ()))
    }


def overhead_fraction(traced_s: list[float], plain_s: list[float]) -> float:
    """Relative slow-down of traced requests against interleaved plain ones."""
    if not traced_s or not plain_s:
        return 0.0
    return statistics.median(traced_s) / statistics.median(plain_s) - 1.0
