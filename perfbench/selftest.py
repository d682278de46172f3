"""The benchmark's own self-test, at a tiny budget (under a minute).

    python3 perfbench/selftest.py

Checks that every workload runs and prints every named metric with its
unit, that a crashing planner counts as an error and adds no latency
samples, that the output checks catch changed rows and tables, and that a
layer function missing from its module is a note, not a crash.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {"seconds": 0, "ticks": 2, "setups": 1}
WORK = os.path.join(ROOT, ".perfbench_work")


def _run_cli(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--ticks", "2", "--setups", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_every_workload_prints_every_metric():
    spec = run.benchmark_spec()
    listed = {w["name"] for w in spec["workloads"]}
    for name in wl.WORKLOADS:
        table, final = _run_cli(name, 0)
        assert set(final) == {"correct", "attempted", "failed", "metrics"}, final
        assert final["attempted"] >= 1 and final["correct"] is True, final
        for metric, unit, _ in wl.END_TO_END:
            assert any(ln.split()[:1] == [metric] and unit in ln.split() for ln in table), \
                f"{name}: {metric} [{unit}] not printed"
        assert [m["name"] for m in spec["end_to_end"]] == list(final["metrics"])
        if name in listed:
            assert final["failed"] == 0, (name, final)
            for metric, value in final["metrics"].items():
                assert isinstance(value["value"], float) and value["value"] > 0, \
                    (name, metric, value)
            _, traced = _run_cli(name, 1)
            missing = [m for m, v in traced["metrics"].items() if v["value"] is None]
            assert not missing, (name, missing)


def test_crashing_planner_is_an_error_without_latency_samples():
    import navbench.local_planners as lp

    def crash(req, cfg):
        raise KeyError("planner crashed on purpose")

    original = lp.dwa_plan
    lp.dwa_plan = crash
    try:
        result = run.run("static_dwa", 3, traced=False, **TINY)
    finally:
        lp.dwa_plan = original
    e2e = result["end_to_end"]
    assert result["failed"] == result["attempted"] >= 1, result
    assert e2e["error_ratio"][0] == 1.0
    for metric in ("tick_ms_p50", "tick_ms_p90", "plan_ms_p50", "plan_ms_p90"):
        assert e2e[metric][:2] == (None, 0), (metric, e2e[metric])
    assert e2e["sim_rate"][0] == 0.0
    assert any("planner crashed on purpose" in text for text in result["crashes"])


def test_checks_catch_changed_rows_and_tables():
    w = wl.WORKLOADS["static_dwa"]
    cfg = wl.trial_config(w, TINY["ticks"])
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        spool = os.path.join(tmp, "spool")
        os.makedirs(spool)
        with tracing.Tracer(spool, traced=False) as tracer:
            manifest, scenes, _ = wl.setup(w, 3, tmp, 1)
            passes = wl.run_passes(w, manifest, cfg, tmp, tracer, 0)
        csv = sorted(n for n in os.listdir(passes[1].out_dir)
                     if n.endswith(".csv") and not n.startswith("table_"))[0]
        path = os.path.join(passes[1].out_dir, csv)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        lines[1] = lines[1].replace(",", ",9", 1)
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        table = next(n for n in os.listdir(passes[0].out_dir) if n.startswith("table_"))
        with open(os.path.join(passes[0].out_dir, table), "a", encoding="utf-8") as f:
            f.write("extra\n")
        failures, failed, _ = wl.check_outputs(passes, scenes, cfg, tmp)
    assert any(f.startswith("repeat: " + csv) for f in failures), failures
    assert any(f.startswith("tables: pass 0") for f in failures), failures
    assert len(failed) == len(passes[0].trials) + 1, failed


def test_missing_layer_function_is_a_note():
    extra = ("navbench.local_planners.dwa", "renamed_away", "local_planners.dwa.gone", None)
    tracing.LAYERS += (extra,)
    try:
        with tracing.Tracer(WORK, traced=True) as t:
            notes = list(t.notes)
    finally:
        tracing.LAYERS = tracing.LAYERS[:-1]
    assert any("renamed_away" in n for n in notes), notes


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"ok    {test.__name__}", flush=True)
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL  {test.__name__}: {exc!r}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
