"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import core  # noqa: E402
import probe  # noqa: E402
import speed  # noqa: E402
from svilab.trace import RunTrace  # noqa: E402


def tiny(name):
    """The workload's config shrunk to run in well under a second.

    Bimatrix rows keep their L but get an 8x5 game (mixed equilibrium,
    so the final saddle gap is not exactly 0), a loose reference
    tolerance and a small budget; PPAWSS gets a small lambda so an outer
    step needs few inner iterations.
    """
    config = core.load_config(core.WORKLOADS[name])
    params = {k: dict(v) for k, v in config.scheme_params.items()}
    if config.kind == "bimatrix":
        if "ppawss" in params:
            params["ppawss"]["lambda"] = (1.0,) * len(config.lipschitz)
        return replace(config, n=8, m=5, reference_tol=1e-6, budget=20000,
                       scheme_params=params)
    return replace(config, n=5, budget=10**6)


def tiny_pass(name, out_dir, fine=False, seeds=(0, 1)):
    return core.run_pass(core.WORKLOADS[name], tiny(name), list(seeds),
                         str(out_dir), recorded={}, fine=fine)


def _targets():
    for module, attr, *_ in probe._COARSE + probe._FINE_SPANS:
        yield importlib.import_module(module), attr
    for module, owner, attr, *_ in probe._FINE_CALLS:
        target = importlib.import_module(module)
        yield (getattr(target, owner) if owner else target), attr


@pytest.mark.parametrize("name", sorted(core.WORKLOADS))
def test_smoke_every_workload(name, tmp_path):
    plain = tiny_pass(name, tmp_path / "plain")
    config = tiny(name)
    assert len(plain.cells) == 2 * len(config.lipschitz)
    assert plain.failed == 0, [c.problems for c in plain.cells]
    metrics = core.end_to_end(plain)
    assert [n for n, _, _ in core.END_TO_END] == list(metrics)
    assert all(metrics[n] > 0 for n in metrics)
    traced = tiny_pass(name, tmp_path / "traced", fine=True)
    assert core.compare_outputs(plain, traced) == []
    layers = core.per_layer(traced, plain)
    assert [n for n, _, _ in core.PER_LAYER] == list(layers)
    assert layers["bench.cells"] == len(traced.cells)
    assert layers["oracle.samples"] == sum(c.ledger for c in traced.cells)
    assert layers["final_metric_gmean"] > 0


def test_ledger_check_catches_off_by_one(tmp_path):
    run = tiny_pass("eg-table1", tmp_path, seeds=(0,))
    cell = run.cells[0]
    config = tiny("eg-table1")
    expected = checks.expected_ledger(config, "extragradient", 0,
                                      config.lipschitz[0])
    assert cell.ledger == expected
    assert checks.check_cell(cell.trace, cell.ledger, expected) == []
    assert checks.check_cell(cell.trace, cell.ledger + 1, expected)
    assert checks.check_cell(cell.trace, cell.ledger - 1, expected)
    # a CSV whose final row claims one call more than was charged
    cell.trace.rows[-1].calls += 1
    cell.trace.write_csv(cell.path)
    assert checks.check_cell(RunTrace.read_csv(cell.path), cell.ledger,
                             expected)


def test_raising_cell_fails_alone(tmp_path, monkeypatch):
    import svilab.bench
    solver = svilab.bench.run_vs_ave

    def flaky(*args, **kwargs):
        if kwargs["seed"] == 2:
            raise FloatingPointError("injected")
        return solver(*args, **kwargs)

    monkeypatch.setattr(svilab.bench, "run_vs_ave", flaky)
    run = tiny_pass("vsave-affine", tmp_path, seeds=range(5))
    assert [bool(c.problems) for c in run.cells] == [False, False, True,
                                                     False, False]
    assert run.failed == 1
    assert core.end_to_end(run)["samples_per_s"] > 0


def test_recorded_values_checked(tmp_path):
    run = tiny_pass("ppawss-L7", tmp_path, seeds=(0,))
    cell = run.cells[0]
    record = checks.final_row(cell.trace)
    args = (cell.trace, cell.ledger, cell.ledger)
    assert checks.check_cell(*args, shape=record, recorded=record) == []
    shifted = dict(record, natural_residual=record["natural_residual"] * 1.001)
    assert checks.check_cell(*args, recorded=shifted)
    assert checks.check_cell(*args, shape=dict(record, rows=record["rows"] + 1))


def test_full_size_ledgers_match_schedule_sums():
    expected = {"ppawss-L7": 463010, "eg-table1": 997288}
    for name, total in expected.items():
        config = core.load_config(core.WORKLOADS[name])
        for row, lip in enumerate(config.lipschitz):
            for scheme in config.schemes:
                assert checks.expected_ledger(config, scheme, row, lip) == total


def test_tracer_is_transparent_and_restores(tmp_path):
    before = {(owner, attr): vars(owner)[attr] for owner, attr in _targets()}
    plain = tiny_pass("ppawss-L7", tmp_path / "plain")
    traced = tiny_pass("ppawss-L7", tmp_path / "traced", fine=True)
    assert traced.probe.missing == []
    assert core.compare_outputs(plain, traced) == []
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    # spans nest: every subproblem sits inside a PPAWSS cell
    for span in traced.probe.named("subproblem"):
        assert span.parent.name == "cell"
        assert span.parent.start_ns <= span.start_ns <= span.end_ns <= \
            span.parent.end_ns


def test_probe_restores_after_error():
    import svilab.bench
    original = svilab.bench.run_vs_ave
    with pytest.raises(RuntimeError):
        with probe.Probe(fine=True):
            assert svilab.bench.run_vs_ave is not original
            raise RuntimeError
    assert svilab.bench.run_vs_ave is original


def test_trial_seeds_follow_the_workload_seed():
    workload = core.WORKLOADS["vsave-affine"]
    assert workload.trial_seeds(0, 8) == list(range(18))
    assert workload.trial_seeds(3, 8) == [3000 + i for i in range(18)]
    assert workload.trial_seeds(5, 0.1) == [5000]
    chunks = workload.chunks(workload.trial_seeds(0, 8))
    assert len(chunks) == workload.setup_repeats
    assert [s for c in chunks for s in c] == list(range(18))


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(core.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == core.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == core.PER_LAYER


def test_speed_sampler_integrates_slices(monkeypatch):
    monkeypatch.setattr(speed, "REFERENCE_KERNEL_S", 10e-9)
    sampler = speed.SpeedSampler(lambda ns: None)
    # samples at [100, 110] and [300, 320] ns, timed kernel runs of 10
    # and 20 ns: factors 1 and 1/2
    sampler.opened, sampler.starts, sampler.ends = 0, [100, 300], [110, 320]
    sampler.took = [10, 20]
    assert sampler.wall(0, 400) == pytest.approx(370e-9)
    assert sampler.seconds(0, 400) == pytest.approx((100 + 190 / 2 + 80 / 2) * 1e-9)
    assert sampler.seconds(105, 310) == pytest.approx(190 / 2 * 1e-9)
    assert sampler.seconds(50, 60) == pytest.approx(10e-9)


def test_speed_sampler_restores_signal_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    paused = []
    with speed.SpeedSampler(paused.append) as sampler:
        deadline = time.perf_counter() + 3 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.starts and len(sampler.starts) == len(sampler.ends) == \
        len(sampler.took)
    assert all(0 < t < e - s for s, e, t in zip(sampler.starts, sampler.ends,
                                                 sampler.took))
    assert paused == [e - s for s, e in zip(sampler.starts, sampler.ends)]


def test_probe_leaves_pauses_out():
    tracer = probe.Probe()

    def interrupted():
        start = time.perf_counter_ns()
        time.sleep(0.02)   # stands for a speed-sampler kernel run
        tracer.pause(time.perf_counter_ns() - start)

    tracer._span("cell", True, None,
                 tracer._counted("x", None, interrupted))()
    span, = tracer.spans
    calls, ns, _, _ = span.counts["x"]
    assert calls == 1 and ns < 5e6
    assert span.pause_ns >= 2e7 and span.self_ns < 5e6


def test_shifted_map_counts_once():
    import numpy as np
    from svilab.maps import AffineMap, ShiftedMap
    base = AffineMap(np.eye(3), np.zeros(3), mu=1.0, lipschitz=1.0)
    shifted = ShiftedMap(base, 2.0, np.zeros(3))
    tracer = probe.Probe(fine=True)
    with tracer:
        tracer._span("cell", True, None, lambda: (shifted(np.ones(3)),
                                                  base(np.ones(3))))()
    span, = tracer.spans
    calls, ns, child_ns, _ = span.counts["maps.call"]
    assert calls == 2 and child_ns == 0 and 0 < ns <= span.ns
