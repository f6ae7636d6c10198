"""The benchmark's modules import against this checkout's ``src/``.

``bench/replay.py`` and ``bench/child.py`` call the package through names a
refactor could drop (``FsFpState``, ``extend_state``, ``intersect_all``,
``ipkit.cli._product_formula_sweep`` and more); a change that drops one
breaks every benchmark run, so the import is part of this suite.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_modules_import_against_src():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "bench"), src]))
    done = subprocess.run(
        [sys.executable, "-c", "import ipkit, replay, child; print(ipkit.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert os.path.realpath(done.stdout.strip()).startswith(os.path.realpath(src) + os.sep)


# Round 0 of each workload, replayed as direct calls, and its search jobs'
# stages probed, as a benchmark run does.  The CLI runs the found searches
# first: they write the documents that the verify jobs read.  Probes of
# depth 16 and up make the same calls on longer paths, at most of the time.
REPLAY_ROUND_0 = """
import tempfile
import child, replay
from ipkit import cli
from workloads import SEARCH_FAMILIES, WORKLOADS, build_rounds

for workload in WORKLOADS:
    with tempfile.TemporaryDirectory() as work:
        jobs = child.write_inputs(build_rounds(workload, 1, 1)[0], work)
        for job in jobs:
            if job.prepare:
                child._prepare(job, work)
            if job.family == "found":
                child.run_one(cli, job, work)
            facts = replay.replay_job(job, work, replay.Tracer(True))
            assert facts["exit"] in job.expect, (job.id, facts["exit"], job.expect)
            if job.family in SEARCH_FAMILIES and replay._budget(job).depth < 16:
                blocks = child._found_blocks(job, work) if job.family == "found" else None
                replay.probe_search(job, replay.Tracer(True), facts["nodes"], blocks)
        print(workload, len(jobs))
"""


def test_bench_replays_and_probes_round_0_of_each_workload():
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "bench"), src]))
    done = subprocess.run(
        [sys.executable, "-c", REPLAY_ROUND_0], cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert [line.split()[0] for line in done.stdout.splitlines()] == [
        "search-nodes", "search-certify", "structure",
    ]
