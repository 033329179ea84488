"""fogsim's benchmark: host wall time of three workloads, with checked outputs.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that holds ``src/fogsim``. Each workload
runs on its own, one after another, in a worker process of its own
(``bench/worker.py``): a warm-up run, then timed runs with set-up probes in
fresh interpreters between them. ``--trace 1`` measures the per-layer
figures instead, from runs traced from outside the package.

Every metric is printed by name and unit, with each check's result; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only if every
check passed. Spans, report files and a log of results (``results.jsonl``)
go to ``.bench_out/`` in the checkout. README.md beside this file describes
the metrics and the workloads.
"""
from __future__ import annotations

import os

# Before anything imports numpy, here or in the processes started below.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import at_ref
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
OUT_DIR = ROOT_DIR / ".bench_out"
DEADLINE_S = 170  # the whole command must end within 180 s


def metric_specs() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""

    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT_DIR / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT_DIR)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; nothing outside it is read."""

    git = ROOT_DIR / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(*args: str, timeout: float) -> dict:
    """Runs a worker and returns the JSON object on its last output line."""

    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT_DIR,
        stdout=subprocess.PIPE,
        timeout=timeout,
        check=True,
        text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def previous_digests(name: str, seed: int, src: str) -> set:
    log = OUT_DIR / "results.jsonl"
    if not log.is_file():
        return set()
    seen = set()
    for line in log.read_text(encoding="utf-8").splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:  # a record cut short by a killed run
            continue
        if (rec["workload"], rec["seed"], rec["src_sha256"]) == (name, seed, src) and rec["digest"]:
            seen.add(rec["digest"])
    return seen


def _median(samples: list):
    return statistics.median(samples) if samples else None


def run_workload(name: str, args, units: dict, deadline: float) -> dict:
    """Measures one workload; its metrics, request counts and check results."""

    result = run_worker(
        "run", "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        timeout=max(1.0, deadline - time.monotonic()),
    )
    src = source_digest()
    checks = [tuple(c) for c in result["checks"]]
    earlier = previous_digests(name, args.seed, src) - {result["digest"]} if result["digest"] else set()
    checks.append(
        ("report_digest_repeats_across_runs",
         f"digest {result['digest']} differs from an earlier run's {sorted(earlier)[0]}" if earlier else None)
    )
    sim = result["sim"]
    if args.trace:
        values = result.get("layers", {})
    else:
        # A wedged workload has no timed runs, so no wall_s or setup_s.
        # Times at the reference host speed: see "Host speed" in README.md.
        values = {
            "wall_s": at_ref(result["walls"], result["kernel_s"]) if result["walls"] else None,
            "setup_s": _median(result["ref_setup_samples"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units if values.get(key) is not None}
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": result["python"],
        "numpy": result["numpy"],
        "commit": git_commit(),
        "src_sha256": src,
    }
    record = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "metrics": metrics,
        "sim": sim,
        "digest": result["digest"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks_failed": [c for c in checks if c[1]],
        "walls": result["walls"],
        "kernel_s": result["kernel_s"],
        "traced_walls": result.get("traced_walls"),
        "setup_samples": result["setup_samples"],
        "ref_setup_samples": result["ref_setup_samples"],
        "spans_file": result.get("spans_file"),
        **env,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    tag = f"[{name}]"
    print(f"{tag} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, metric in metrics.items():
        print(f"{tag} {key} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace and result["walls"]:
        print(f"{tag} as measured: wall_s fastest {min(result['walls']):.6g} s, median {_median(result['walls']):.6g} s;"
              f" setup_s median {_median(result['setup_samples']):.6g} s")
    if not args.trace:
        # Simulated-time figures: per_layer in BENCHMARK.json, shown here too.
        for key, value in sim.items():
            print(f"{tag} {key} = {value} (repeats exactly per seed)")
    print(f"{tag} requests attempted={result['attempted']} failed={result['failed']} report sha256={result['digest']}")
    for check, detail in checks:
        print(f"{tag} check {check}: " + (f"FAILED: {detail}" if detail else "ok"))
    return {"metrics": metrics, "attempted": result["attempted"], "failed": result["failed"],
            "correct": not any(detail for _, detail in checks) and len(metrics) == len(units)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1, help="non-negative; sets the scenario seed")
    parser.add_argument("--seconds", type=int, default=38, help="how long the timed runs of a workload last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT_DIR / "src" / "fogsim" / "__init__.py").is_file():
        print(f"bench: no fogsim source at {ROOT_DIR / 'src' / 'fogsim'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    end_to_end, per_layer = metric_specs()
    units = per_layer if args.trace else end_to_end
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcome = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            got = run_workload(name, args, units, deadline)
        except (subprocess.SubprocessError, json.JSONDecodeError, IndexError, KeyError) as exc:
            print(f"[{name}] FAILED: the measurement did not finish: {exc!r}", file=sys.stderr)
            if len(names) == 1:
                return 1
            outcome["correct"] = False
            continue
        outcome["correct"] &= got["correct"]
        outcome["attempted"] += got["attempted"]
        outcome["failed"] += got["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        outcome["metrics"].update({prefix + key: m for key, m in got["metrics"].items()})
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
