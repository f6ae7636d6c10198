"""One benchmark process: cold start, then a workload's jobs in a closed loop.

``run.py`` starts this file in a fresh interpreter; it is not a user entry
point.  With ``--mode setup`` it stops once the inputs of the first round
are written (a cold start sample).  With ``--mode run`` it then calls
``ipkit.cli.main(argv)`` for one job at a time, with stdout captured, until
``--seconds`` have passed and at least the workload's minimum number of
rounds is done.  Later rounds are generated and written between jobs,
outside their timing.  Between jobs, an untraced run also times a fixed
reference computation (the machine's speed) and starts cold-start samples
(``--mode setup``), spread over the loop, for ``setup_s``.
Checks run after the loop, so they neither slow it nor count in its memory
peak.  With ``--trace 1`` each job is followed by its replay as direct
layer calls, untraced and traced, for the per-layer metrics.

The last line on stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import SEARCH_FAMILIES, build_rounds

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# Rounds generated and written at set-up; the run generates the rest as it goes.
SETUP_ROUNDS = 1
# Every untimed-budget run completes these, so p90 has >= 100 samples.
MIN_ROUNDS = {"search-nodes": 5, "search-certify": 5, "structure": 4}
# Deterministic counts and digests cover the first rounds only, which every
# run executes whatever its speed.
COUNT_ROUNDS = 2
# Whatever the budget, the timed loop stops starting rounds after this long.
HARD_CAP_S = 110.0
# Cold starts per untraced run, one each time another 1/SETUP_SAMPLES of the
# budget has passed, so they meet the machine in the state the jobs meet it.
# The run's own start, which may fill the bytecode caches, is not one of them.
SETUP_SAMPLES = 20
SETUP_TIMEOUT_S = 30.0
# The host's speed drifts by up to 2x over tens of seconds (other tenants'
# load), for the program and any other code alike.  A fixed reference
# computation is timed between jobs, at least every REF_INTERVAL_S; each job
# time is scaled by REF_NOMINAL_S / (median of the REF_WINDOW reference times
# nearest to it), i.e. reported at the speed at which the reference takes
# REF_NOMINAL_S (a quiet 2-vCPU VM).  A cold start is scaled by the median
# of REF_SETUP reference times taken in its own process right after it.
REF_NOMINAL_S = 0.012
REF_INTERVAL_S = 0.2
REF_WINDOW = 7
REF_SETUP = 5
# Captured stdout above this size is kept only as a digest.
KEEP_STDOUT = 64 * 1024

STAGE_OUTCOME = {0: "found", 1: "exhausted", 3: "node-limit"}
LAYERS = ("search", "setspec", "fsfp", "certificates", "partition", "semigroup")
# Per-layer metrics of a traced run, with their units.  A layer the workload
# never calls reads 0.
LAYER_UNITS = {
    "search.ns_per_node": "ns", "search.enum_ns": "ns", "search.nodes": "count",
    "search.verify_ms": "ms", "search.yield": "ratio",
    "setspec.member_ns": "ns", "setspec.refine_us": "us", "setspec.compile_us": "us",
    "setspec.constraint_nodes": "count",
    "fsfp.extend_us": "us", "fsfp.values": "count", "fsfp.list_ms": "ms",
    "certificates.dump_ms": "ms", "certificates.load_ms": "ms", "certificates.bytes": "bytes",
    "partition.refute_ms": "ms", "partition.hindman_ms": "ms", "partition.found_ratio": "ratio",
    "semigroup.validate_ms": "ms", "semigroup.ideals_ms": "ms", "semigroup.order_ms": "ms",
    "semigroup.groups_ms": "ms", "semigroup.formula_ms": "ms",
    **{f"{layer}.share": "ratio" for layer in LAYERS}, "search.verify_share": "ratio",
    "cli.overhead_ms": "ms", "trace.overhead_frac": "ratio",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def stable_stdout(text: str) -> str:
    """stdout without the line naming the per-run certificate path."""
    head, sep, _ = text.rpartition("certificate written to ")
    return head if sep else text


def set_up(workload: str, seed: int, work: str):
    """Import the CLI and write the first inputs: the cold start a user pays.

    Returns the CLI module and an iterator over the rounds that writes each
    round's inputs as it is drawn."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ipkit import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        raise SystemExit(f"ipkit imported from {cli.__file__}, not from this checkout's src/")
    from workloads import iter_rounds

    os.makedirs(work, exist_ok=True)
    rounds = iter_rounds(workload, seed)
    first = [write_inputs(next(rounds), work) for _ in range(SETUP_ROUNDS)]
    return cli, itertools.chain(first, (write_inputs(rnd, work) for rnd in rounds))


def cold_start(args, work: str) -> dict:
    """Set-up time of one fresh interpreter that only cold-starts, and its
    reference time, in seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--mode", "setup", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--work", work]
    try:
        spawned = monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"cold start exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_work(floats: list, ints: list) -> int:
    """Fixed pure-Python work of the benchmark's own, the yardstick of machine
    speed: sort and index 20000 floats, then set and count 20000 ints.  It
    makes no new number objects, and its largest buffer (about 1.3 MB) is
    freed before the next is made, so it never sets the memory peak."""
    ordered = sorted(floats)
    index = dict(zip(ordered, floats))
    n = len(index)
    del index, ordered
    counts: dict = {}
    for y in ints:
        counts[y % 4099] = counts.get(y % 4099, 0) + 1
    return n + len(set(ints)) + len(counts)


class SpeedProbe:
    """Reference times, (perf_counter at the middle, seconds), taken between jobs.

    The collector is off while the reference runs, so the program's live
    objects never add a collection to its time."""

    def __init__(self):
        rng = random.Random(5)
        self.floats = [rng.random() for _ in range(20000)]
        self.ints = [rng.getrandbits(40) for _ in range(20000)]
        self.samples = []

    def sample(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_work(self.floats, self.ints)
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        return t1 - t0

    def due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= REF_INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REF_NOMINAL_S over the local reference time around ``at``."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - at))[:REF_WINDOW]
        return REF_NOMINAL_S / statistics.median(s[1] for s in near)


class ColdStarts:
    """The per-job hook of an untraced run: speed samples and set-up samples,
    between jobs."""

    def __init__(self, args):
        self.args, self.samples = args, []
        self.speed = SpeedProbe()
        for _ in range(3):
            self.speed.sample()
        self.start = time.perf_counter()

    def __call__(self, rec=None) -> None:
        self.speed.due()
        elapsed = time.perf_counter() - self.start
        due = elapsed / self.args.seconds * SETUP_SAMPLES if self.args.seconds > 0 else SETUP_SAMPLES
        if len(self.samples) < min(due, SETUP_SAMPLES):
            self._cold_start()

    def _cold_start(self) -> None:
        self.samples.append(cold_start(self.args, f"{self.args.work}-cold{len(self.samples)}"))

    def finish(self) -> list:
        """All samples, taking those the loop ended too early for."""
        while len(self.samples) < SETUP_SAMPLES:
            self._cold_start()
        return self.samples


def write_inputs(rnd: list, work: str) -> list:
    for job in rnd:
        for name, text in job.files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
    return rnd


def _prepare(job, work: str) -> None:
    """Write the tampered copy a verify job reads (outside the timed region)."""
    from checks import tamper

    _, source_id, kind = job.prepare
    source = os.path.join(work, f"cert_{source_id}.json")
    if not os.path.exists(source):
        return  # the search failed; the verify job then fails too
    with open(source, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(os.path.join(work, job.truth["doc"]), "w", encoding="utf-8") as fh:
        json.dump(tamper(doc, kind), fh, sort_keys=True, indent=2)


def run_one(cli, job, work: str) -> dict:
    """One closed-loop job: cli.main(argv) in process, stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    argv = job.resolved_argv(work)
    detail = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed job, not a failed run
        code, detail = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    # Kept on disk for the checks, not in memory, where the records of a long
    # run would raise the memory peak with the number of jobs.
    with open(os.path.join(work, f"stdout_{job.id}.txt"), "w", encoding="utf-8") as fh:
        fh.write(text if len(text) <= KEEP_STDOUT else text[:2048])
    return {
        "job": job,
        "code": code,
        "detail": detail,
        "seconds": seconds,
        "at": start + seconds / 2,
        "whole": len(text) <= KEEP_STDOUT,
        "sha": hashlib.sha256(stable_stdout(text).encode()).hexdigest(),
    }


def kept_stdout(rec: dict, work: str) -> tuple:
    """A job's stdout (None if it was too long to keep) and its first 2048 characters."""
    with open(os.path.join(work, f"stdout_{rec['job'].id}.txt"), "r", encoding="utf-8") as fh:
        text = fh.read()
    return (text if rec["whole"] else None), text[:2048]


def run_loop(cli, rounds, work: str, budget_s: float, min_rounds: int, after_job=None):
    """Whole rounds, one job at a time, until ``budget_s`` is spent and at least
    ``min_rounds`` are done.  ``after_job(record)``, if given, runs after each job."""
    rounds = iter(rounds)
    records, done = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (done >= min_rounds and elapsed >= budget_s) or elapsed >= HARD_CAP_S:
            break
        rnd = next(rounds, None)
        if rnd is None:
            break
        for job in rnd:
            if job.prepare:
                _prepare(job, work)
            records.append(run_one(cli, job, work))
            if after_job is not None:
                after_job(records[-1])
            # Only the id stays, so the inputs and expected answers of past
            # jobs never add to the memory peak; see attach_jobs.
            records[-1]["job"] = job.id
        done += 1
    return records, done


def attach_jobs(records: list, workload: str, seed: int, rounds: int) -> None:
    """Put each record's job back, drawn again from the seed, for the checks."""
    jobs = {job.id: job for rnd in build_rounds(workload, seed, rounds) for job in rnd}
    for rec in records:
        rec["job"] = jobs[rec["job"]]


# -- checks ------------------------------------------------------------------------


def check_record(rec: dict, work: str) -> tuple:
    """("ok" | "known-defect" | "failed", reason) for one executed job."""
    import checks

    job, code = rec["job"], rec["code"]
    if code is None:
        if job.known_defect and checks.is_digit_limit_error(rec["detail"]):
            return "known-defect", rec["detail"]
        return "failed", f"raised {rec['detail']}"
    if code not in job.expect:
        return "failed", f"exit {code}, expected {sorted(job.expect)}"
    fam, truth = job.family, job.truth
    text, head = kept_stdout(rec, work)
    reason = None
    if fam in SEARCH_FAMILIES:
        outcome, nodes = checks.search_summary(head)
        if outcome != STAGE_OUTCOME[code] or nodes is None:
            reason = f"stdout reports outcome {outcome!r}, nodes {nodes!r} for exit {code}"
        elif fam == "found":
            path = os.path.join(work, truth["doc"])
            doc = checks.load_json(path) if os.path.exists(path) else {}
            reason = checks.search_document_failure(doc, truth)
    elif fam == "verify":
        if not head.startswith("certificate verifies"):
            reason = "verify printed no success line"
    elif fam == "tampered":
        if not head.startswith("certificate does not verify"):
            reason = "verify printed no rejection line"
    elif fam == "refute":
        reason = checks.refute_failure(text, code, truth)
    elif fam == "hindman":
        reason = checks.hindman_failure(text, code, truth)
    elif fam == "semigroup":
        reason = checks.semigroup_failure(text, truth)
    elif fam in ("fs", "fp"):
        reason = checks.listing_failure(rec["sha"], fam, truth)
    return ("ok", None) if reason is None else ("failed", reason)


def tampered_documents_rejected(records: list, work: str) -> list:
    """The benchmark's own checker must refuse every tampered copy it wrote."""
    import checks

    sources = {rec["job"].id: rec["job"] for rec in records}
    problems = []
    for rec in records:
        job = rec["job"]
        path = os.path.join(work, job.truth.get("doc", ""))
        if job.family == "tampered" and os.path.isfile(path):
            source = sources[job.truth["search"]]
            if checks.search_document_failure(checks.load_json(path), source.truth) is None:
                problems.append(f"{job.id}: checker accepted a tampered certificate")
    return problems


# -- deterministic counts ------------------------------------------------------------


def _found_blocks(job, work: str):
    path = os.path.join(work, job.truth["doc"])
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get("blocks")


def deterministic_counts(records: list, work: str) -> dict:
    """Counts fixed by the inputs alone, over the first COUNT_ROUNDS rounds."""
    import checks
    from ipkit.certificates import comparable_form, dumps_document, load_document
    from replay import Tracer, probe_search

    head = [r for r in records if int(r["job"].id[1:].split(".")[0]) < COUNT_ROUNDS]
    digest, stdout_digest = hashlib.sha256(), hashlib.sha256()
    counts = {"jobs": len(head), "search.nodes": 0, "certificates.bytes": 0,
              "setspec.constraint_nodes": 0, "fsfp.values": 0}
    off = Tracer(False)
    for rec in head:
        job = rec["job"]
        code = rec["code"] if rec["code"] is not None else rec["detail"].split(":")[0]
        digest.update(f"{job.id} {code}\n".encode())
        stdout_digest.update(f"{job.id} {rec['sha']}\n".encode())
        if job.family not in SEARCH_FAMILIES:
            continue
        _, nodes = checks.search_summary(kept_stdout(rec, work)[1])
        nodes = nodes or 0
        counts["search.nodes"] += nodes
        blocks = None
        path = os.path.join(work, job.truth.get("doc", ""))
        if job.family == "found" and os.path.isfile(path):
            doc = load_document(path)
            counts["certificates.bytes"] += os.path.getsize(path)
            digest.update(dumps_document(comparable_form(doc)).encode())
            blocks = doc["blocks"]
        probe = probe_search(job, off, nodes, blocks)
        counts["setspec.constraint_nodes"] += probe["constraint_nodes"]
        counts["fsfp.values"] += probe["values"]
    counts["digest"] = digest.hexdigest()
    counts["stdout_digest"] = stdout_digest.hexdigest()
    return counts


# -- traced replay -------------------------------------------------------------------


class TracedReplay:
    """The per-job hook of a traced run.  After each CLI job, its direct layer
    calls run untraced, then traced, and a search job's inner calls are
    repeated (``replay.repeat_search_calls``).

    Pairing the three keeps machine noise out of the CLI overhead and the
    tracing overhead, which are differences between them.
    """

    def __init__(self, work: str):
        from replay import Tracer

        self.work = work
        self.off, self.tr = Tracer(False), Tracer(True)
        self.overhead, self.disagreements = [], []
        self.untraced_wall = self.traced_wall = 0.0
        self.facts_by_family = defaultdict(list)

    def __call__(self, rec: dict) -> None:
        from replay import repeat_search_calls, replay_job

        job, tr = rec["job"], self.tr
        t0 = time.perf_counter()
        replay_job(job, self.work, self.off)
        t1 = time.perf_counter()
        tr.job = job.id
        facts = tr.call("job", replay_job, job, self.work, tr)
        t2 = time.perf_counter()
        self.untraced_wall += t1 - t0
        self.traced_wall += t2 - t1
        if rec["code"] is not None:
            self.overhead.append(rec["seconds"] - (t1 - t0))
            if facts["exit"] != rec["code"]:
                self.disagreements.append(f"{job.id}: replay exit {facts['exit']}, CLI exit {rec['code']}")
        self.facts_by_family[job.family].append(facts)
        if job.family in SEARCH_FAMILIES:
            facts["depth"] = int(job.argv[job.argv.index("--depth") + 1])
            blocks = _found_blocks(job, self.work) if job.family == "found" else None
            counts = tr.call("probe", repeat_search_calls, job, tr, facts["nodes"], blocks,
                             facts.pop("outcome").certificate)
            tr.note(**counts)

    def result(self) -> dict:
        metrics = layer_metrics(self.tr.spans, self.facts_by_family)
        metrics["cli.overhead_ms"] = statistics.median(self.overhead) * 1e3 if self.overhead else 0.0
        metrics["trace.overhead_frac"] = (self.traced_wall / self.untraced_wall - 1
                                          if self.untraced_wall else 0.0)
        return {"metrics": metrics, "spans": self.tr.spans, "disagreements": self.disagreements}


def layer_metrics(spans: list, facts_by_family: dict) -> dict:
    dur = defaultdict(list)
    attrs = defaultdict(list)
    child_ns = defaultdict(int)
    for name, start, end, parent, _, extra in spans:
        dur[name].append(end - start)
        attrs[name].append(extra)
        if parent >= 0:
            child_ns[parent] += end - start
    total = {name: sum(v) for name, v in dur.items()}

    def mean(name, scale):
        return total[name] / len(dur[name]) / scale if dur.get(name) else 0.0

    def per(name, key):
        n = sum(a.get(key, 0) for a in attrs.get(name, ()))
        return total.get(name, 0) / n if n else 0.0

    # Shares are of the replayed jobs' time: the self time of each layer's
    # spans under the "job" roots.  Spans under a "probe" root repeat calls
    # that search_subsystem made inside its own span, so their time moves
    # from search's self time to the layers that own the calls, capped at
    # that job's search_subsystem self time; it is never added twice.
    roots, self_ns, verify_ns = [], defaultdict(float), 0.0
    search_self, repeats = defaultdict(int), defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, parent, job, _) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
        layer = name.split(".")[0]
        if layer not in LAYERS:
            continue
        own = end - start - child_ns[i]
        if spans[roots[i]][0] == "probe":
            repeats[job][name] += own
            continue
        self_ns[layer] += own
        if name == "search.search_subsystem":
            search_self[job] += own
        elif name == "search.verify":
            verify_ns += own
    for job, by_name in repeats.items():
        moved = sum(by_name.values())
        scale = min(1.0, search_self[job] / moved) if moved else 0.0
        for name, ns in by_name.items():
            self_ns[name.split(".")[0]] += ns * scale
            if name == "search.verify":
                verify_ns += ns * scale
        self_ns["search"] -= moved * scale
    layered = sum(self_ns.values())

    searches = [f for fam in SEARCH_FAMILIES for f in facts_by_family.get(fam, ())]
    found = facts_by_family.get("found", [])
    probes = [a for a in attrs.get("probe", ()) if "stages" in a]
    stages = sum(p["stages"] for p in probes)
    witnesses = facts_by_family.get("refute", []) + facts_by_family.get("hindman", [])
    writes = attrs.get("certificates.write", [])
    m = {
        "search.ns_per_node": per("search.search_subsystem", "nodes"),
        "search.enum_ns": per("search.enum", "count"),
        "search.nodes": sum(f["nodes"] for f in searches),
        "search.verify_ms": mean("search.verify", 1e6),
        "search.yield": (sum(f["depth"] for f in found) / sum(f["nodes"] for f in found)) if found else 0.0,
        "setspec.member_ns": per("setspec.member", "count"),
        "setspec.refine_us": mean("setspec.refine", 1e3),
        "setspec.compile_us": mean("setspec.compile", 1e3),
        "setspec.constraint_nodes": sum(p["constraint_nodes"] for p in probes) / stages if stages else 0.0,
        "fsfp.extend_us": mean("fsfp.extend", 1e3),
        "fsfp.values": sum(p["values"] for p in probes) / len(probes) if probes else 0.0,
        "fsfp.list_ms": mean("fsfp.list", 1e6),
        "certificates.dump_ms": mean("certificates.dump", 1e6),
        "certificates.load_ms": mean("certificates.load", 1e6),
        "certificates.bytes": sum(a["bytes"] for a in writes) / len(writes) if writes else 0.0,
        "partition.refute_ms": mean("partition.refute", 1e6),
        "partition.hindman_ms": mean("partition.hindman", 1e6),
        "partition.found_ratio": (sum(f["exit"] == 0 for f in witnesses) / len(witnesses)) if witnesses else 0.0,
        "semigroup.validate_ms": mean("semigroup.validate", 1e6),
        "semigroup.ideals_ms": mean("semigroup.ideals", 1e6),
        "semigroup.order_ms": mean("semigroup.order", 1e6),
        "semigroup.groups_ms": mean("semigroup.groups", 1e6),
        "semigroup.formula_ms": mean("semigroup.formula", 1e6),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = self_ns[layer] / layered if layered else 0.0
    m["search.verify_share"] = verify_ns / layered if layered else 0.0
    return m


def job_time_metrics(records: list, scale=lambda at: 1.0) -> dict:
    """Throughput and job-time quantiles over every job of the run, each job
    time multiplied by ``scale(its time)``."""
    ms = [rec["seconds"] * scale(rec["at"]) * 1e3 for rec in records]
    return {
        "jobs_per_s": len(ms) / sum(ms) * 1e3,
        "job_ms.p50": statistics.median(ms),
        "job_ms.p90": statistics.quantiles(ms, n=10)[-1],
    }


def write_spans(spans: list, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job, extra in spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "job": job, **extra}) + "\n")


# -- main ------------------------------------------------------------------------------


def run(args) -> dict:
    cli, rounds = set_up(args.workload, args.seed, args.work)
    ready = monotonic()
    if args.mode == "setup":
        probe = SpeedProbe()
        return {"setup_s": ready - args.spawned_at,
                "ref_s": statistics.median(probe.sample() for _ in range(REF_SETUP))}
    os.environ.pop("IPKIT_ORDER_CAP", None)
    if args.trace:
        hook, min_rounds = TracedReplay(args.work), COUNT_ROUNDS
    else:
        hook, min_rounds = ColdStarts(args), MIN_ROUNDS[args.workload]
    records, done = run_loop(cli, rounds, args.work, args.seconds, min_rounds, hook)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attach_jobs(records, args.workload, args.seed, done)

    statuses = [check_record(rec, args.work) for rec in records]
    failures = [f"{rec['job'].id}: {why}" for rec, (status, why) in zip(records, statuses) if status == "failed"]
    failures += tampered_documents_rejected(records, args.work)
    known = sum(status == "known-defect" for status, _ in statuses)
    failed = sum(status != "ok" for status, _ in statuses)
    per_family = defaultdict(list)
    for rec in records:
        per_family[rec["job"].family].append(rec["seconds"] * 1e3)
    result = {
        "rounds": done,
        "attempted": len(records),
        "failed": failed,
        "known_defect": known,
        "failures": failures,
        "counts": deterministic_counts(records, args.work),
        "families": {fam: {"jobs": len(v), "median_ms": statistics.median(v)} for fam, v in sorted(per_family.items())},
        "failed_frac": failed / len(records),
    }
    if not args.trace:
        setups = hook.finish()
        scale = hook.speed.scale
        refs = [s for _, s in hook.speed.samples]
        result["setup_samples"] = [s["setup_s"] for s in setups]
        result["metrics"] = dict(job_time_metrics(records, scale),
                                 setup_s=statistics.median(s["setup_s"] * REF_NOMINAL_S / s["ref_s"] for s in setups),
                                 peak_rss_mb=peak_mb)
        result["wall_metrics"] = dict(job_time_metrics(records), setup_s=statistics.median(result["setup_samples"]))
        result["speed"] = {"samples": len(refs), "median_ms": statistics.median(refs) * 1e3,
                           "min_ms": min(refs) * 1e3, "max_ms": max(refs) * 1e3,
                           "nominal_ms": REF_NOMINAL_S * 1e3}
        result["timeline"] = {"jobs": [[rec["job"].id, rec["at"], rec["seconds"]] for rec in records],
                              "reference": hook.speed.samples, "setup": setups}
    else:
        traced = hook.result()
        result["failures"] += traced["disagreements"]
        result["layer_metrics"] = {name: {"value": traced["metrics"][name], "unit": unit}
                                   for name, unit in LAYER_UNITS.items()}
        spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
        write_spans(traced["spans"], spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark child process (started by run.py)")
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned-at", type=float, help="CLOCK_MONOTONIC at spawn (setup mode)")
    args = parser.parse_args(argv)
    result = run(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
