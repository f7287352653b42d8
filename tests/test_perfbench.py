"""The parts of the package the benchmark's traced runs reach from outside.

``perfbench/layers.py`` wraps module attributes by name and probes
``steepest_ascent``; a traced run that cannot find a name, leaves a
wrapper behind, or sees a probe stop before its step cap reports the run
as failed.  These tests read the harness and change nothing in it.
"""

import csv
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402

from ifgame import cli, experiments, spectral, vi, waterfilling  # noqa: E402
from ifgame.config import load_config_file  # noqa: E402
from ifgame.experiments import build_game  # noqa: E402


def test_tracer_wraps_every_layer_and_restores_it():
    before = {m: dict(vars(m)) for m in (cli, experiments, spectral, vi, waterfilling)}
    with layers.Tracer() as tracer:
        layers.install(tracer)  # getattr raises on a name that is gone
        assert tracer._originals
        for module, attr, original in tracer._originals:
            assert original is before[module][attr]
            assert getattr(module, attr) is not original
    for module, names in before.items():
        assert vars(module) == names


def test_traced_solve_counts_the_certificate_and_vi_iterations(tmp_path):
    """A traced VI solve of a PD, non-contractive game reads one
    certificate, one eps round, and as many inner iterations as the run
    reports in sum_rates.csv."""
    argv = ["solve", "--config", str(run.ROOT / "configs" / "pd_not_contractive.json"),
            "--out", str(tmp_path)]
    with layers.Tracer() as tracer:
        layers.install(tracer)
        assert cli.main(argv) == 0
    metrics = layers.span_metrics(tracer.spans)
    with open(tmp_path / "sum_rates.csv", newline="") as fh:
        (row,) = [r for r in csv.DictReader(fh) if r["solver"] == "vi"]
    assert metrics["spectral.definiteness_calls"] == 1
    assert metrics["vi.rounds"] == 1
    assert metrics["vi.inner_iters"] == int(row["iterations"])


# the probe seeds of ``run.py --trace 1 --seed 0`` and ``--seed 1``
@pytest.mark.parametrize("seed", [run.invocation_seed(s, 0) for s in (0, 1)])
@pytest.mark.parametrize("workload", run.BENCHMARK_WORKLOADS)
def test_ascent_probe_runs_to_its_step_cap(workload, seed):
    spec, space = build_game(load_config_file(run.ROOT / run.WORKLOADS[workload].config))
    # raises RuntimeError if steepest_ascent stops before ASCENT_STEPS
    assert layers.probe_ascent_step_ms(spec, space, seed) > 0
