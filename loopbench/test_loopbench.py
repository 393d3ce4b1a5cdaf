"""Tests of the benchmark's own code: seeded inputs, golden checks,
self-time arithmetic and the repeatability of traced counts."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import inproc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    a = workloads.generate("analyze-large", 5, tmp_path, tmp_path / "a")
    b = workloads.generate("analyze-large", 5, tmp_path, tmp_path / "b")
    c = workloads.generate("analyze-large", 6, tmp_path, tmp_path / "c")
    assert [(i.base, i.name) for i in a] == [(i.base, i.name) for i in b]
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_relabeling_fixes_one_and_permutes():
    import random

    rng = random.Random(0)
    for n in (2, 9, 40):
        perm = workloads.relabeling(n, rng)
        assert perm[0] == 1 and sorted(perm) == list(range(1, n + 1))


def _run_checked(name, inputs):
    gold = workloads.golden()
    _, outputs = inproc.run(workloads.pass_argvs(name, inputs))
    pairs = [(o["code"], o["stdout"]) for o in outputs]
    return gold, pairs, workloads.check_pass(gold, name, inputs, pairs)


def test_golden_checks_pass_on_two_seeds(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for seed in (1, 2):
        large = workloads.generate("analyze-large", seed, tmp_path, tmp_path / str(seed))
        picked = [next(i for i in large if i.base == "M(D16,2)")]
        _, _, problems = _run_checked("analyze-large", picked)
        assert problems == [[]]
    catalog = workloads.generate("catalog-theorem", 1, tmp_path, tmp_path / "c")
    picked = [i for i in catalog if i.base in ("Q2", "M(S3,2)", "D8")]
    _, _, problems = _run_checked("catalog-theorem", picked)
    assert problems == [[], [], []]


def test_per_loop_golden_suites_sum_to_the_frozen_totals():
    gold = workloads.golden()["catalog-theorem"]
    for name, want in gold["suites"].items():
        counts = [loop["suites"][name] for loop in gold["loops"]]
        assert [sum(c[0] for c in counts), sum(c[1] for c in counts)] == [want["hypotheses"], want["checks"]]


def test_golden_checks_catch_a_wrong_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inputs = [i for i in workloads.generate("catalog-theorem", 3, tmp_path, tmp_path / "c") if i.base == "Q2"]
    gold, pairs, problems = _run_checked("catalog-theorem", inputs)
    assert problems == [[]]
    payload = json.loads(pairs[0][1])
    payload["suites"][0]["checks"] += 1
    assert workloads.check_pass(gold, "catalog-theorem", inputs, [(0, json.dumps(payload))])[0]
    payload = json.loads(pairs[0][1])
    payload["loops"][0]["proper_half_maps"] += 1
    assert workloads.check_pass(gold, "catalog-theorem", inputs, [(0, json.dumps(payload))])[0]
    assert workloads.check_pass(gold, "catalog-theorem", inputs, [(1, pairs[0][1])])[0]
    assert workloads.check_pass(gold, "catalog-theorem", inputs, [(0, "[]")])[0]
    assert workloads.check_setup(gold, inputs, 0, "Q2: valid loop of order 8\n")


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    trace = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 9.0, 0)]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0]
    # children reaching outside the parent, or overlapping, count once
    assert spans.self_times([(0, 0.0, 4.0, -1), (1, -1.0, 2.0, 0), (2, 1.0, 3.0, 0)])[0] == 1.0


def test_recorder_nests_spans_by_call_stack():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = recorder.wrap("m.leaf", leaf)

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    assert recorder.wrap("m.outer", outer)() == 2
    trace = recorder.dump()
    assert [(trace["names"][i], p) for i, _, _, p in trace["spans"]] == [("m.outer", -1), ("m.leaf", 0), ("m.leaf", 0)]
    # outer spans ticks 0..5; the leaves cover 1..2 and 3..4
    assert spans.self_times(trace["spans"]) == [3.0, 1.0, 1.0]


def _traced_counts(tmp_path, tag, argvs):
    spec = tmp_path / ("%s-spec.json" % tag)
    result = tmp_path / ("%s-result.json" % tag)
    spec.write_text(json.dumps({"mode": "trace", "argvs": argvs}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("LOOPSMITH_THREADS", None)
    subprocess.run([sys.executable, str(HERE / "inproc.py"), str(spec), str(result)],
                   cwd=tmp_path, env=env, check=True, timeout=300)
    payload = json.loads(result.read_text(encoding="utf-8"))
    assert all(o["code"] == 0 for o in payload["outputs"])
    suites = json.loads(payload["outputs"][-1]["stdout"])["suites"]
    metrics = spans.layer_metrics(payload["trace"], len(argvs), {s["name"]: s["checks"] for s in suites})
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}, len(payload["trace"]["spans"])


def test_traced_counts_repeat_exactly(tmp_path):
    inputs = workloads.generate("analyze-large", 4, tmp_path, tmp_path / "in")
    m16 = next(i for i in inputs if i.base == "M(D16,2)")
    argvs = [["analyze", "--json", m16.arg], ["halfautos", "--json", "D8"],
             ["checktheorem", "--json", "Q2", "S3"]]
    first = _traced_counts(tmp_path, "a", argvs)
    second = _traced_counts(tmp_path, "b", argvs)
    assert first == second
    counts, span_count = first
    assert span_count > 0 and counts["halfmorph.enumerate.calls"] > 0
    assert counts["suites.main-theorem.checks"] > 0


def test_install_wraps_every_binding(tmp_path):
    script = (
        "import spans\n"
        "spans.install(spans.Recorder())\n"
        "import loopsmith, loopsmith.cli as c, loopsmith.catalog as k, loopsmith.table as t\n"
        "assert c.validate is t.validate is k.validate is loopsmith.validate\n"
        "assert t.validate.__wrapped__ is not None\n"
        "assert t.LoopTable.is_diassociative.__wrapped__ is not None\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, check=True, timeout=120)


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = importlib.util.spec_from_file_location("loopbench_run", HERE / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    empty = {"names": [], "spans": [], "distinct": {}, "items": {}, "missing": []}
    reported = [(k, unit) for k, (_, unit) in spans.layer_metrics(empty, 1, {}).items()]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == reported + list(spans.TRACE_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
