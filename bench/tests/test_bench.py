"""Tests of the benchmark itself: generators, checkers, each workload at a tiny size.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import child  # noqa: E402
from ipkit import cli  # noqa: E402
from workloads import TAMPER_KINDS, WORKLOADS, build_rounds  # noqa: E402


def _jobs_key(rounds):
    return [(j.id, j.family, j.argv, j.files, sorted(j.expect), j.known_defect)
            for rnd in rounds for j in rnd]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = _jobs_key(build_rounds(workload, 11, 2))
    assert first == _jobs_key(build_rounds(workload, 11, 2))
    assert first != _jobs_key(build_rounds(workload, 12, 2))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_jobs_of_a_run_are_distinct(workload):
    rounds = build_rounds(workload, 5, 40)
    keys = [(j.family, tuple(j.argv), tuple(sorted(j.files.items()))) for rnd in rounds for j in rnd]
    assert len(keys) == len(set(keys))
    # every round has the same slots, so the job mix is the same in every run
    mixes = {tuple(sorted(j.family for j in rnd)) for rnd in rounds}
    assert len(mixes) == 1 or workload == "structure"
    assert len({sum(j.known_defect for j in rnd) for rnd in rounds}) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_pools_outlast_the_fastest_run(workload):
    # a 30 s run on a fast, quiet host does about 60 rounds of structure
    assert len(build_rounds(workload, 2, 90)) == 90


def test_speed_probe_scales_by_the_nearest_reference_times():
    probe = child.SpeedProbe()
    probe.samples = [(t, 0.01) for t in range(10)] + [(t, 0.04) for t in range(100, 110)]
    assert probe.scale(5) == child.REF_NOMINAL_S / 0.01
    assert probe.scale(104.5) == child.REF_NOMINAL_S / 0.04
    probe.sample()
    assert len(probe.samples) == 21 and probe.samples[-1][1] > 0


def _run_round(workload, seed, work, trace):
    rounds = [child.write_inputs(rnd, work) for rnd in build_rounds(workload, seed, 1)]
    replay = child.TracedReplay(work) if trace else None
    records, done = child.run_loop(cli, rounds, work, 0.0, 1, replay)
    assert done == 1 and all(isinstance(rec["job"], str) for rec in records)
    child.attach_jobs(records, workload, seed, done)
    return records, replay and replay.result()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_of_each_workload_passes_its_checks(workload, tmp_path):
    work = str(tmp_path)
    records, _ = _run_round(workload, 3, work, trace=False)
    for rec in records:
        status, why = child.check_record(rec, work)
        expected = "known-defect" if rec["job"].known_defect else "ok"
        assert status == expected, (rec["job"].id, rec["job"].argv, why)
    assert child.tampered_documents_rejected(records, work) == []
    counts = child.deterministic_counts(records, work)
    if workload.startswith("search"):
        assert counts["search.nodes"] > 0 and counts["setspec.constraint_nodes"] > 0
    assert (counts["certificates.bytes"] > 0) == (workload == "search-certify")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_round_replays_the_same_verdicts(workload, tmp_path):
    records, traced = _run_round(workload, 4, str(tmp_path), trace=True)
    assert traced["disagreements"] == []
    metrics = traced["metrics"]
    assert set(child.LAYER_UNITS) <= set(metrics)
    shares = {layer: metrics[f"{layer}.share"] for layer in child.LAYERS}
    assert abs(sum(shares.values()) - 1) < 1e-9
    if workload == "structure":
        assert shares["search"] == shares["certificates"] == 0
    else:
        assert shares["search"] + shares["setspec"] > 0.5
    if workload == "search-certify":
        assert min(shares["fsfp"], shares["certificates"], metrics["search.verify_share"]) > 0
    spans = traced["spans"]
    assert {s[4] for s in spans} == {rec["job"].id for rec in records}
    assert all(s[1] <= s[2] for s in spans)


def test_checker_and_cli_reject_tampered_certificates(tmp_path):
    job = next(j for j in build_rounds("search-certify", 1, 1)[0]
               if j.family == "found" and "--depth" in j.argv and j.argv[j.argv.index("--depth") + 1] == "8")
    work = str(tmp_path)
    assert cli.main(job.resolved_argv(work)) == 0
    with open(os.path.join(work, job.truth["doc"]), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert checks.search_document_failure(doc, job.truth) is None
    for kind in TAMPER_KINDS:
        bad = checks.tamper(doc, kind)
        assert checks.search_document_failure(bad, job.truth) is not None, kind
        path = os.path.join(work, f"tampered_{kind}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        assert cli.main(["verify", "--cert", path]) == 1, kind
    assert checks.search_document_failure({"kind": "subsystem-search"}, job.truth) is not None


def test_semigroup_check_finds_minimal_principal_ideals():
    # left zero band on 3 points (x*y = x) with an identity adjoined as 3
    table = [[0, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2], [0, 1, 2, 3]]
    facts = checks.semigroup_facts(table)
    assert facts["minimal_left"] == {frozenset({0, 1, 2})}
    assert facts["minimal_right"] == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert facts["kernel"] == frozenset({0, 1, 2}) == facts["kernel_right"]
    assert facts["minimal_idempotents"] == {0, 1, 2}


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "structure", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == child.LAYER_UNITS
    import run
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
