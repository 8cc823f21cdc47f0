"""The benchmark's own tests, on the smoke size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_seeded(workload, tmp_path):
    a = gen.generate(workload, 5, tmp_path / "a", "smoke")
    b = gen.generate(workload, 5, tmp_path / "b", "smoke")
    c = gen.generate(workload, 6, tmp_path / "c", "smoke")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.json"))
    assert files
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", ["search", "refine"])
def test_generator_concept_count_matches_program(workload, tmp_path):
    from fcaregistry import build_context, build_lattice, load_records

    manifest = gen.generate(workload, 3, tmp_path, "smoke")
    lat = build_lattice(build_context(load_records(tmp_path / "corpus.json")))
    assert len(lat.concepts) == manifest["concepts"] >= gen.SIZES["smoke"][workload]["concepts"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_meets_contract(workload, trace):
    done = bench("--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", str(trace),
                 "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(done.stdout.splitlines()[-2])["report"]
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["golden"]["compared"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0


def test_other_seed_is_correct_without_goldens():
    done = bench("--workload", "refine", "--seed", "7", "--seconds", "0.2", "--size", "smoke")
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__"))
    done = bench("--workload", "search", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spec_lists_every_layer_metric_and_map_covers_them():
    import layers

    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    mapping = json.loads((BENCH / "metric_map.json").read_text(encoding="utf-8"))
    assert set(mapping["layers"]) == set(layers.PER_LAYER)
    assert set(mapping["gated"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(48) == 79
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(12) == 50
    values = list(range(1, 49))
    assert sum(v > run.nearest_rank(values, 79) for v in values) >= 10


def test_self_times_add_up_to_the_root():
    tr = Tracer()

    def leaf():
        return sum(range(20000))

    def middle():
        return leaf() + leaf()

    class Owner:
        pass

    Owner.leaf, Owner.middle = leaf, middle
    with tr.installed([(Owner, "leaf", "leaf", None), (Owner, "middle", "middle", None)]):
        wrapped_leaf = Owner.leaf
        with tr.op("q"):
            Owner.middle()
            wrapped_leaf()
    assert Owner.leaf is leaf
    (op,) = tr.ops
    assert op.calls == {"op.q": 1, "middle": 1, "leaf": 1}
    assert sum(op.self_ns.values()) == op.incl_ns["op.q"]
    assert op.self_ns["middle"] == op.incl_ns["middle"]


def test_result_check_catches_wrong_answers():
    from fcaregistry import FormalContext, Attribute

    a, b = Attribute("a"), Attribute("b")
    view = checks.ContextView(FormalContext(["g1", "g2", "g3"], [a, b], [[1, 0], [1, 1], [0, 1]]))

    def doc(results):
        return json.dumps({"query": {"terms": ["a"]}, "results": results})

    good = [{"source": "g1", "rank": 0, "shared": ["a"]}, {"source": "g2", "rank": 1, "shared": ["a"]}]
    assert checks.check_result_json(doc(good), view) == []
    assert checks.check_result_json(doc(good[:1]), view)
    assert checks.check_result_json(doc(good[::-1]), view)
    assert checks.check_result_json(doc(good + [{"source": "g3", "rank": 2, "shared": []}]), view)


def test_closure_check_catches_an_open_concept():
    from fcaregistry import Attribute, FormalContext, build_lattice
    from fcaregistry.lattice import ConceptLattice, FormalConcept

    a, b = Attribute("a"), Attribute("b")
    lat = build_lattice(FormalContext(["g1", "g2"], [a, b], [[1, 0], [1, 1]]))
    assert checks.check_closed(lat, random.Random(0)) == []
    broken = [FormalConcept(extent=frozenset({"g1"}), intent=c.intent) if c.intent == {a, b} else c
              for c in lat.concepts]
    assert checks.check_closed(ConceptLattice(lat.context, broken, lat.covers), random.Random(0))


def test_timed_scales_by_the_kernel_around_the_call(monkeypatch):
    kernel = iter([2.0, 3.0])
    monkeypatch.setattr(run.hostspeed, "sample_ms", lambda: next(kernel))
    s = run.Samples()
    out, took, scaled = run.timed(lambda: 7, s, run.untraced("op"))
    assert out == 7 and s.ref_ms == [2.0, 3.0]
    assert scaled == pytest.approx(took * run.hostspeed.NOMINAL_MS / 2.5)


def test_another_pass_only_if_it_ends_within_half_a_pass(monkeypatch):
    monkeypatch.setattr(run.time, "perf_counter", lambda: 10.0)
    # two passes of 5 s so far: the next would end at 15 s
    assert run.another_pass(0.0, 2, 13.0)
    assert not run.another_pass(0.0, 2, 12.0)
