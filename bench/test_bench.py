"""Tests of the benchmark itself: each check catches a planted error, and both
workloads run end to end at the tiny size.

    python3 -m pytest bench/ -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on the path first
import checks
from biblioforge import load_taxonomy
from inputs import SIZES, TRACER_OCCURRENCES, generate, write_files
from tests.oracles import naive_keyword_scan

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    # the first seed from 7 on whose planted matches include a keyword search
    inputs = next(
        inputs
        for inputs in map(lambda seed: generate(seed, "backfile", "tiny"), range(7, 100))
        if any(rec.keyword_tracer for rec in inputs.records)
    )
    paths = write_files(inputs, tmp_path_factory.mktemp("tiny"))
    present = {rec.record_id for rec in inputs.records}
    return inputs, paths, present, checks.planted_edges(inputs, present)


def _tsv(rows) -> str:
    return "".join("\t".join(str(c) for c in row) + "\n" for row in rows)


def test_inputs_repeat_for_a_seed(tmp_path):
    write_files(generate(3, "harvest", "tiny"), tmp_path / "a")
    write_files(generate(3, "harvest", "tiny"), tmp_path / "b")
    for path in sorted((tmp_path / "a").rglob("*")):
        if path.is_file():
            assert path.read_bytes() == (tmp_path / "b" / path.relative_to(tmp_path / "a")).read_bytes()


def test_edge_check_catches_a_missing_edge(tiny):
    _, _, _, edges = tiny
    assert edges
    assert checks.check_edges(_tsv(sorted(edges)), edges) == []
    assert checks.check_edges(_tsv(sorted(edges)[1:]), edges)


def test_count_check_catches_an_off_by_one(tiny):
    _, _, present, edges = tiny
    indegree = {rid: sum(1 for _, cited in edges if cited == rid) for rid in present}
    rows = sorted(indegree.items(), key=lambda kv: (-kv[1], kv[0]))
    assert checks.check_counts(_tsv(rows), edges, present) == []
    rows[0] = (rows[0][0], rows[0][1] + 1)
    assert checks.check_counts(_tsv(rows), edges, present)


def test_rank_check_catches_a_perturbed_score(tiny):
    _, _, present, edges = tiny
    scores = checks.power_iteration(present, edges)
    rows = [(rid, format(value, ".17g")) for rid, value in scores.items()]
    assert checks.check_rank(_tsv(rows), present, edges) == []
    bumped = dict(scores)
    first = min(bumped)
    bumped[first] += 1e-6
    assert checks.check_rank(_tsv(bumped.items()), present, edges)


def test_usage_checks_catch_an_off_by_one(tiny):
    inputs = tiny[0]
    truth = checks.UsageTruth(inputs)
    top = truth.top_views(5)
    assert checks.check_ranking(_tsv(top), top, "top views") == []
    off = [(top[0][0], top[0][1] - 1), *top[1:]]
    assert checks.check_ranking(_tsv(off), top, "top views")
    target = inputs.recommend_targets[0]
    co = truth.co_views(target, 5)
    assert co and checks.check_ranking(_tsv(co[:-1]), co, "co-views")


def test_delivery_check_catches_dropped_duplicated_and_extra():
    expected = {("a1", "r1"): ("100", "T1"), ("a2", "r2"): ("100", "T2")}
    seen = {("a1", "r1"): [("100", "T1")], ("a2", "r2"): [("100", "T2")]}
    verdicts, extra = checks.check_deliveries(seen, expected)
    assert not any(verdicts.values()) and not extra

    dropped = {("a1", "r1"): [("100", "T1")]}
    assert checks.check_deliveries(dropped, expected)[0][("a2", "r2")] == "never delivered"

    twice = {**seen, ("a2", "r2"): [("100", "T2"), ("200", "T2")]}
    assert checks.check_deliveries(twice, expected)[0][("a2", "r2")] == "delivered 2 times"

    late_batch = {**seen, ("a2", "r2"): [("200", "T2")]}
    assert checks.check_deliveries(late_batch, expected)[0][("a2", "r2")]

    assert checks.check_deliveries({**seen, ("a1", "r9"): [("100", "x")]}, expected)[1]


def test_entry_count_and_ingest_checks_catch_an_off_by_one():
    assert checks.check_refextract("r1\t3\nr2\t0\n", {"r1": 3, "r2": 0}) == []
    assert checks.check_refextract("r1\t4\nr2\t0\n", {"r1": 3, "r2": 0})
    assert checks.check_ingest("ingested\t5\n", 5) == []
    assert checks.check_ingest("ingested\t4\n", 5)


def test_keyword_check_catches_a_wrong_count_and_a_lost_tracer(tiny):
    inputs, paths, _, _ = tiny
    taxonomy = load_taxonomy(paths["taxonomy"])
    rec = next(r for r in inputs.records if r.keyword_tracer)
    text = (paths["taxonomy"].parent.parent / "store" / "ft" / f"{rec.record_id}.txt").read_text()
    rows = [
        (rec.record_id, ka.display_label, ka.occurrence, ",".join(map(str, ka.component_counts or ())))
        for ka in naive_keyword_scan(text, taxonomy, 10)
    ]
    tracers = {rec.record_id: (rec.keyword_tracer, TRACER_OCCURRENCES)}
    sample = {rec.record_id: text}
    assert checks.check_keywords(_tsv(rows), sample, taxonomy, tracers, naive_keyword_scan) == []
    wrong = [(*rows[-1][:2], rows[-1][2] + 1, rows[-1][3])]
    assert checks.check_keywords(_tsv(rows[:-1] + wrong), sample, taxonomy, tracers, naive_keyword_scan)
    no_tracer = [row for row in rows if row[1] != rec.keyword_tracer]
    assert checks.check_keywords(_tsv(no_tracer), {}, taxonomy, tracers, naive_keyword_scan)


def test_cluster_check_catches_a_moved_document():
    sets = {"d1": {"a", "b"}, "d2": {"a", "b", "c"}, "d3": {"x"}, "d4": {"x", "y"}, "d5": {"q"}}
    right = [["d1", "d2"], ["d3", "d4"], ["d5"]]
    assert checks.check_clusters(right, sets, 0.5) == []
    assert checks.check_clusters([["d1"], ["d2", "d3", "d4"], ["d5"]], sets, 0.5)


def _bench(workload: str, trace: int, cwd: Path = BENCH.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "11"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["harvest", "backfile"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr[-2000:]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    size = SIZES[(workload, "tiny")]
    late_share = size.late / (8 + size.deliveries) if workload == "harvest" else 0.0
    assert result["failed"] / result["attempted"] == pytest.approx(late_share)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = _bench("harvest", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
