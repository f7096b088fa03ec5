"""The benchmark's own tests: tiny-size runs of every workload along the
checked and the traced path, metric names against BENCHMARK.json, wrapper
restoration and seeding."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for _p in (ROOT / "src", BENCH):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from torusctrl import picard  # noqa: E402
from torusctrl.spectral import SpectralField  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _patched():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer.Tracer().patches()]


def test_workloads_match_benchmark_json():
    assert NAMES == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_checked_run_prints_every_end_to_end_metric(name):
    record = harness.run_workload(workloads.make(name, tiny=True), seed=0, seconds=0)
    metrics = harness.end_to_end(record)
    assert {k: m["unit"] for k, m in metrics.items()} == _units("end_to_end")
    assert all(np.isfinite(m["value"]) and m["value"] > 0 for m in metrics.values())
    assert record["failures"] == {}
    res = harness.result(record, metrics)
    assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0
    json.dumps(res)


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_every_per_layer_metric_and_restores(name):
    originals = _patched()
    record, metrics, tr = harness.traced_run(workloads.make(name, tiny=True), seed=0, seconds=0)
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)
    assert {k: m["unit"] for k, m in metrics.items()} == _units("per_layer")
    assert all(np.isfinite(m["value"]) for m in metrics.values())
    assert record["failures"] == {}
    calls = {span: c for span, (c, _, _) in tr.self_times().items()}
    assert calls[tracer.OP] == 1
    if name == "picard-n16":
        assert metrics["picard.rounds"]["value"] >= 1
        assert metrics["hum.neumann_sweeps"]["value"] >= 1
    if name == "hum-free-n16":
        assert metrics["model.assemble_calls"]["value"] == 0
        assert metrics["hum.cg_iters"]["value"] > 0
    if name == "replay-n32":
        assert metrics["hum.cg_solves"]["value"] == 0
        assert metrics["model.assemble_calls"]["value"] > 0


def test_wrappers_restored_when_the_run_raises():
    originals = _patched()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert picard.null_control is not originals[0][2]
            raise RuntimeError("stop")
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(20000)))
    outer = tr.wrap("outer", lambda: inner())
    with tr.operation():
        outer()
    times = tr.self_times()
    calls, incl, own = times["outer"]
    assert calls == 1 and 0.0 <= own < incl
    assert own == pytest.approx(incl - times["inner"][1])


def _arrays(x):
    if isinstance(x, SpectralField):
        return [x.coeffs]
    if isinstance(x, (list, tuple)):
        return [a for item in x for a in _arrays(item)]
    return [np.asarray(x)]


@pytest.mark.parametrize("name", NAMES)
def test_seed_determines_inputs(name):
    wl = workloads.make(name, tiny=True)

    def draws(seed):
        case = wl.setup(seed)
        return _arrays([wl.draw(case) for _ in range(2)])

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    assert same(draws(3), draws(3))
    assert not same(draws(3), draws(4))


def test_run_without_program_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "hum-free-n16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
