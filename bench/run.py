"""ipkit benchmark: one workload, one closed-loop client, timed end to end.

    python3 bench/run.py --workload search-nodes --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src/`` and nothing is installed.  Each run starts a fresh
interpreter (``child.py``) that runs the workload's jobs one at a time
through ``ipkit.cli.main(argv)``.  With ``--trace 0`` the run reports the
end-to-end metrics; between jobs, that interpreter times a fixed reference
computation, to scale every time to one machine speed, and starts others
that only cold-start (interpreter, ``import ipkit.cli``, writing the first
round's inputs) for ``setup_s``.  With ``--trace 1`` it reports the per-layer
metrics of a traced replay of the same jobs.

Every metric is printed with its unit, then the deterministic counts, and
the last stdout line is a JSON object: correct, attempted, failed, metrics.
Workloads, job families and known failures are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("job_ms.p50", "ms"),
    ("job_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def spawn_child(args, work: str) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--mode", "run",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work]
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "IPKIT_ORDER_CAP")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ipkit benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed budget of the job loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ipkit", "cli.py")):
        print(f"error: no ipkit sources at {os.path.join(ROOT, 'src', 'ipkit')}", file=sys.stderr)
        return 2
    work_base = os.path.join(ROOT, ".bench_work")
    tag = f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        result = spawn_child(args, os.path.join(work_base, f"{tag}-run"))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(work_base) and not os.listdir(work_base):
            os.rmdir(work_base)

    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} jobs in "
          f"{result['rounds']} rounds, closed loop, one client, one job at a time"
          + (", each followed by its traced replay" if args.trace else ""))
    if args.trace:
        metrics = result["layer_metrics"]
    else:
        metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<28} {result['failed_frac']:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']}, {result['known_defect']} known defect)")
    if args.trace:
        print(f"  spans written to {result['spans_file']}")
    else:
        speed = result["speed"]
        print(f"  times above are at reference speed: reference {speed['nominal_ms']:g} ms; here median "
              f"{speed['median_ms']:.3f} ms, {speed['min_ms']:.3f}-{speed['max_ms']:.3f} ms over "
              f"{speed['samples']} samples")
        print("  wall clock, unscaled: " + ", ".join(f"{name} {value:.6g}"
                                                    for name, value in result["wall_metrics"].items()))
        print(f"  setup samples: {len(result['setup_samples'])}; job samples: {result['attempted']}")
        for fam, info in result["families"].items():
            print(f"    {fam:<12} {info['jobs']:>4} jobs, median {info['median_ms']:.3f} ms wall clock")
    print("counts " + json.dumps(result["counts"], sort_keys=True))
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
