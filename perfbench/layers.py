"""Per-layer metrics from a traced, in-process ``ifgame`` CLI run.

Spans are recorded from outside the package: ``Tracer.wrap`` replaces a
public function at the module attribute its callers look it up by (for
example ``ifgame.vi.solve_strong``, which ``solve_regularized`` calls), and
each call records its name, start, end and parent span.  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its children; calls are nested and single-threaded, so the
self times of all spans add up to the duration of the root span
``cli.main``.

Two layer metrics are out of reach of the CLI path through public names
and come from probes on the workload's own game instead: one
``waterfill_levels`` call on an (N, S) floor stack, and a fixed number of
``steepest_ascent`` steps from a seeded ``random_start``.
"""

from __future__ import annotations

import functools
import statistics
import time
import warnings
from collections import defaultdict

# (metric, unit) reported by a traced run, in BENCHMARK.json order.
LAYER_METRICS = [
    ("config.load_s", "s"),
    ("game.enumerate_s", "s"),
    ("game.n_states", "count"),
    ("spectral.condition_report_s", "s"),
    ("spectral.rho_blockdiag_s", "s"),
    ("spectral.definiteness_s", "s"),
    ("spectral.definiteness_calls", "count"),
    ("waterfilling.iwf_s", "s"),
    ("waterfilling.iwf_iters", "count"),
    ("waterfilling.map_calls", "count"),
    ("waterfilling.map_ms", "ms"),
    ("waterfilling.levels_ms", "ms"),
    ("vi.solve_s", "s"),
    ("vi.step_select_s", "s"),
    ("vi.inner_s", "s"),
    ("vi.rounds", "count"),
    ("vi.inner_iters", "count"),
    ("pareto.multi_start_s", "s"),
    ("pareto.outer_iters", "count"),
    ("pareto.converged_ratio", "ratio"),
    ("pareto.ascent_step_ms", "ms"),
    ("experiments.sweep_self_s", "s"),
    ("experiments.sweep_points", "count"),
    ("experiments.simulate_s", "s"),
    ("experiments.write_s", "s"),
    ("experiments.output_bytes", "B"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

# Steps of the ascent probe.  From a random start with zero multipliers
# the projected gradient stays far above eps_grad for this many steps, so
# the probe always runs to the cap and the step count is known exactly.
ASCENT_STEPS = 20


class Tracer:
    """Records spans around wrapped functions; restores them on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = []

    def wrap(self, module, attr, name, counts=None):
        """Trace calls made through ``module.attr`` as spans called ``name``.

        ``counts(result)`` returns extra fields recorded on the span, such
        as iteration counts taken from the function's own report.
        """
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name,
                    "parent": stack[-1] if stack else None,
                    "start": time.perf_counter()}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.update(counts(result))
            return result

        setattr(module, attr, traced)
        self._originals.append((module, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()


def install(tracer):
    """Wrap every layer boundary the CLI path crosses."""
    from ifgame import cli, experiments, spectral, vi, waterfilling

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config_file", "config.load_config_file")
    tracer.wrap(cli, "run_solve", "experiments.run_solve")
    tracer.wrap(cli, "run_sweep", "experiments.run_sweep",
                lambda r: {"points": len(r.sweep_rows)})
    tracer.wrap(cli, "ne_outcome_for_simulation",
                "experiments.ne_outcome_for_simulation")
    tracer.wrap(cli, "run_simulate", "experiments.run_simulate")
    tracer.wrap(cli, "write_outputs", "experiments.write_outputs",
                lambda paths: {"bytes": sum(p.stat().st_size for p in paths)})
    tracer.wrap(experiments, "enumerate_states", "game.enumerate_states",
                lambda space: {"n_states": space.n_states})
    tracer.wrap(experiments, "condition_report", "spectral.condition_report")
    tracer.wrap(spectral, "rho_blockdiag", "spectral.rho_blockdiag")
    tracer.wrap(spectral, "definiteness", "spectral.definiteness")
    tracer.wrap(vi, "definiteness", "spectral.definiteness")
    tracer.wrap(experiments, "iterate_waterfilling",
                "waterfilling.iterate_waterfilling",
                lambda rep: {"iterations": rep.iterations})
    tracer.wrap(waterfilling, "waterfill_map", "waterfilling.waterfill_map")
    tracer.wrap(experiments, "make_vi_problem", "vi.make_vi_problem")
    tracer.wrap(experiments, "solve_regularized", "vi.solve_regularized",
                lambda rep: {"rounds": len(rep.eps_path)})
    tracer.wrap(vi, "solve_strong", "vi.solve_strong",
                lambda res: {"iterations": res[1]})
    tracer.wrap(experiments, "multi_start", "pareto.multi_start",
                lambda rep: {"starts": len(rep.per_start),
                             "converged": sum(s.converged for s in rep.per_start),
                             "outer_iterations": sum(s.outer_iterations
                                                     for s in rep.per_start)})


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    children = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] += span["end"] - span["start"]
    return {span["id"]: span["end"] - span["start"] - children[span["id"]]
            for span in spans}


def span_metrics(spans):
    """Layer metrics of one traced CLI run (every name but the probes and
    the overhead, which need more than the spans)."""
    own = self_times(spans)
    named = defaultdict(list)
    for span in spans:
        named[span["name"]].append(span)

    def total(name):
        return sum(s["end"] - s["start"] for s in named[name])

    def count(name, field):
        return sum(s[field] for s in named[name])

    def self_of(name):
        return sum(own[s["id"]] for s in named[name])

    regularized = {s["id"] for s in named["vi.solve_regularized"]}
    inner_of_regularized = sum(s["end"] - s["start"] for s in named["vi.solve_strong"]
                               if s["parent"] in regularized)
    starts = count("pareto.multi_start", "starts")
    maps = len(named["waterfilling.waterfill_map"])
    return {
        "config.load_s": total("config.load_config_file"),
        "game.enumerate_s": total("game.enumerate_states"),
        "game.n_states": max((s["n_states"] for s in named["game.enumerate_states"]),
                             default=0),
        "spectral.condition_report_s": total("spectral.condition_report"),
        "spectral.rho_blockdiag_s": total("spectral.rho_blockdiag"),
        "spectral.definiteness_s": total("spectral.definiteness"),
        "spectral.definiteness_calls": len(named["spectral.definiteness"]),
        "waterfilling.iwf_s": total("waterfilling.iterate_waterfilling"),
        "waterfilling.iwf_iters": count("waterfilling.iterate_waterfilling",
                                        "iterations"),
        "waterfilling.map_calls": maps,
        "waterfilling.map_ms": 1e3 * total("waterfilling.waterfill_map") / maps
        if maps else 0.0,
        "vi.solve_s": total("vi.solve_regularized"),
        "vi.step_select_s": total("vi.solve_regularized") - inner_of_regularized,
        "vi.inner_s": total("vi.solve_strong"),
        "vi.rounds": count("vi.solve_regularized", "rounds"),
        "vi.inner_iters": count("vi.solve_strong", "iterations"),
        "pareto.multi_start_s": total("pareto.multi_start"),
        "pareto.outer_iters": count("pareto.multi_start", "outer_iterations"),
        "pareto.converged_ratio": count("pareto.multi_start", "converged") / starts
        if starts else 0.0,
        "experiments.sweep_self_s": self_of("experiments.run_sweep"),
        "experiments.sweep_points": count("experiments.run_sweep", "points"),
        "experiments.simulate_s": total("experiments.run_simulate"),
        "experiments.write_s": total("experiments.write_outputs"),
        "experiments.output_bytes": count("experiments.write_outputs", "bytes"),
        "cli.self_s": self_of("cli.main"),
        "trace.wall_s": total("cli.main"),
    }


def unaccounted_s(spans):
    """Root duration not covered by the sum of all self times (0 up to
    rounding when every span nests inside its parent)."""
    root = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return root - sum(self_times(spans).values())


def _median_ms(fn, min_reps, min_seconds):
    times = []
    while len(times) < min_reps or sum(times) < min_seconds:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def probe_levels_ms(spec, space):
    """Median time of one ``waterfill_levels`` call on the (N, S) floors
    seen under the budget-tight constant profile."""
    import numpy as np
    from ifgame.waterfilling import interference_floors, waterfill_levels

    uniform = np.tile(spec.pbar[:, None], (1, space.n_states))
    floors = interference_floors(spec, space, uniform)
    return _median_ms(lambda: waterfill_levels(floors, space.probs, spec.pbar),
                      min_reps=5, min_seconds=0.2)


def probe_ascent_step_ms(spec, space, seed):
    """Median time per step of ``steepest_ascent`` capped at ASCENT_STEPS
    steps from ``random_start``; raises if a probe stops before the cap."""
    import numpy as np
    from ifgame.pareto import AlConfig, random_start, steepest_ascent

    start = random_start(spec, space, np.random.default_rng(seed))
    lambdas = np.zeros(spec.n_players)
    config = AlConfig(max_inner=ASCENT_STEPS)

    def ascend():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            steepest_ascent(spec, space, start, lambdas, config)
        if not any("iteration cap" in str(w.message) for w in caught):
            raise RuntimeError("ascent probe converged before its step cap")

    return _median_ms(ascend, min_reps=3, min_seconds=0.3) / ASCENT_STEPS
