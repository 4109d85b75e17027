"""Checks for the benchmark's own machinery (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import pytest  # noqa: E402

from autodidact import search  # noqa: E402
from autodidact.config import RunConfig, variant2_demo_config  # noqa: E402
from autodidact.engine import Engine  # noqa: E402

import calibrate  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_growth(cfg):
    """A tiny growth run plus one replay round, traced from a cold bucket cache."""
    search._spaces.clear()
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        result = Engine(cfg).run()
        assert result.accepted == cfg.max_tasks
        archive = {"name": "a", "path": cfg.archive_path, "entries": cfg.max_tasks, "config": cfg}
        replayer = child.Replayer([archive], Path(cfg.archive_path).parent)
        replayer.round()
        assert replayer.failures == []
    finally:
        tr.restore()
    return tr


def _paths(tmp_path, name):
    d = tmp_path / name
    d.mkdir()
    return {"archive_path": str(d / "archive.jsonl"), "metrics_path": str(d / "m.csv")}


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    v1 = RunConfig(variant="I", domain="mixed", max_tasks=2, **_paths(tmp, "v1"))
    v1_again = RunConfig(variant="I", domain="mixed", max_tasks=2, **_paths(tmp, "v1b"))
    v2 = variant2_demo_config(max_tasks=2, **_paths(tmp, "v2"))
    return _traced_growth(v1), _traced_growth(v1_again), _traced_growth(v2)


def test_every_wrapped_name_records_a_call(tiny_runs):
    v1, _, v2 = tiny_runs
    for name in tracing.GROWTH_SPANS + tracing.V1_SPANS + tracing.REPLAY_SPANS:
        assert v1.calls(name) >= 1, name
    for name in tracing.GROWTH_SPANS + tracing.V2_SPANS + tracing.REPLAY_SPANS:
        assert v2.calls(name) >= 1, name
    # No wrap point is left out of the lists above.
    named = tracing.GROWTH_SPANS + tracing.V1_SPANS + tracing.V2_SPANS + tracing.REPLAY_SPANS
    assert set(v1.spans) == set(named)


def test_tracer_leaves_no_wrapper_installed(tiny_runs):
    from autodidact import engine, tasks

    assert not hasattr(search.try_candidate, "__wrapped__")
    assert not hasattr(engine.Engine.__dict__["_judge_v1"], "__wrapped__")
    assert not hasattr(tasks.run_solver, "__wrapped__")


def test_counts_repeat_exactly(tiny_runs):
    first, second, _ = tiny_runs
    calls = {k: v[0] for k, v in first.spans.items()}
    assert calls == {k: v[0] for k, v in second.spans.items()}
    assert first.counts == second.counts
    outcomes = sum(first.counts[f"search.outcome.{o}"] for o in tracing.OUTCOMES)
    assert outcomes == first.calls("search.try_candidate")
    assert first.counts["search.outcome.accepted"] == 2


def test_self_times_add_up_to_top_level(tiny_runs):
    tr = tiny_runs[0]
    self_total = sum(total - child for _, total, child in tr.spans.values())
    assert self_total == pytest.approx(tr.snapshot()["top_level_s"], rel=1e-9)


def test_replay_inputs_depend_on_seed_only(tmp_path):
    def grow(seed, name):
        d = tmp_path / f"{seed}-{name}"
        d.mkdir()
        cfg = workloads.grow_replay_input("v2-0", seed, d)
        return Path(cfg.archive_path).read_bytes()

    first = grow(7, "a")
    assert first.count(b"\n") == workloads.REPLAY_TASKS
    assert grow(7, "b") == first
    assert grow(8, "a") != first


def test_benchmark_json_lists_what_the_runner_prints(tiny_runs):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    layers, _note = run.trace_layers(tiny_runs[0].snapshot(), 1.0, 1.0, 0.1)
    printed = {name: unit for name, (_value, unit) in layers.items()}
    printed["error_rate"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed


def test_speed_track_keeps_probes_out_and_scales_segments(monkeypatch):
    now = [0.0]
    kernels = iter([1.0, 1.0, 3.0, 3.0])

    def fake_probe():
        now[0] += 0.5  # every probe takes half a second of wall time
        return next(kernels) * calibrate.REF_KERNEL_S

    monkeypatch.setattr(calibrate, "probe", fake_probe)
    track = child.SpeedTrack(lambda: now[0])
    track.cut()
    track.phase_start()
    now[0] += 2.0  # 2 s at reference speed
    track.cut()
    now[0] += 4.0  # 4 s at a third of it: probes read 1x then 3x the reference
    track.cut(at_least=5.0)  # too soon: no probe
    track.cut()
    wall, ref = track.phase_end()
    assert wall == pytest.approx(6.0)
    assert ref == pytest.approx(2.0 + 4.0 / 2.0)
    assert track.probing == pytest.approx(1.5)
