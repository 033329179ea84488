"""One benchmark measurement of one workload, in a process of its own.

    python3 bench/worker.py run --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py setup --workload NAME --seed N

``run`` does one untimed warm-up run, then timed runs for about
``--seconds``, at least ``MIN_RUNS`` of them. With ``--trace 0`` each
timed run is followed by ``SETUP_PROBES`` set-up probes; with ``--trace 1``
the timed runs alternate untraced and traced. ``setup`` is one probe, in a
fresh interpreter: it times what comes before the first simulated event,
``import fogsim``, ``parse_scenario`` and building a ``Runtime``. Both print
one JSON object as their last line; ``bench/run.py`` starts ``run`` and
turns its output into the benchmark's result.
"""
from __future__ import annotations

import os

# Before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import at_ref, bracketed
from tracing import ROOT_SPAN, SPAN_FIELDS, Probe, layer_metrics, request_counts, self_times
from workloads import WORKLOADS, build_tree, check_report, sim_metrics

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT_DIR / ".bench_out"
MIN_RUNS = 3
SETUP_PROBES = 1
SETUP_TIMEOUT_S = 20


def import_fogsim():
    """Imports fogsim from this checkout's ``src``, never from elsewhere."""

    src = ROOT_DIR / "src"
    if not (src / "fogsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no fogsim source at {src / 'fogsim'}")
    sys.path.insert(0, str(src))
    import fogsim

    return fogsim


def report_digest(paths: dict[str, str]) -> tuple[str, int]:
    """sha256 over the report files (name and bytes, by name), and their size."""

    digest = hashlib.sha256()
    size = 0
    for name in sorted(paths):
        data = Path(paths[name]).read_bytes()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def one_run(fogsim, name: str, seed: int, trace: bool, short: bool = False) -> dict:
    """One workload run, from scenario tree to report files written."""

    tree = build_tree(fogsim, name, seed, short)
    out_dir = str(OUT_DIR / name / "report")
    with Probe(fogsim, trace) as probe:

        def body():
            report = fogsim.run_scenario(fogsim.parse_scenario(tree))
            return report, fogsim.emit_report(report, out_dir)

        start = time.perf_counter()
        wedged = None
        try:
            report, paths = (probe.wrap(ROOT_SPAN, body) if trace else body)()
        except fogsim.DeadlockDetected as exc:
            report, paths, wedged = None, None, str(exc)
        wall = time.perf_counter() - start
    if trace:
        _name, begin, end, _parent, _dep = probe.spans[0]  # the root span
        wall = end - begin
    attempted, failed = request_counts(probe.deployments)
    run = {"wall_s": wall, "wedged": wedged, "attempted": attempted, "failed": failed}
    if report is None:
        return run
    run["digest"], report_bytes = report_digest(paths)
    run["checks"] = check_report(name, report)
    run["sim"] = sim_metrics(name, report, probe.deployments)
    run["sim"]["request_fail_frac"] = failed / attempted if attempted else 0.0
    if trace:
        run["layers"] = dict(layer_metrics(probe), **{"report.bytes": report_bytes})
        run["spans"] = probe.spans
    return run


def time_setup(name: str, seed: int) -> float:
    """One set-up probe, in a fresh interpreter."""

    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "setup", "--workload", name, "--seed", str(seed)],
        stdout=subprocess.PIPE, timeout=SETUP_TIMEOUT_S, check=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(fogsim, name: str, seed: int, seconds: float, trace: bool, short: bool = False, setup_probes: int = 0) -> dict:
    """Warm-up plus timed runs; the workload's figures and check results.

    The warm-up is a run of the workload's short form: it loads and warms
    every code path the timed runs take, and costs less of the time budget.
    Timed runs go on while the next one is expected to end within
    ``seconds``, and there are at least ``MIN_RUNS`` (one pair when traced).
    ``setup_probes`` set-up probes follow each untraced timed run, so they
    are spread over the same stretch of time as the runs.
    """

    warm = one_run(fogsim, name, seed, trace=False, short=True)
    plain, traced, setup = [], [], []
    start = time.perf_counter()
    while warm["wedged"] is None:
        began = time.perf_counter()
        run, before, after = bracketed(lambda: one_run(fogsim, name, seed, trace=False, short=short))
        run["kernel_s"] = (before, after)
        plain.append(run)
        for _ in range(setup_probes):
            probe, before, after = bracketed(lambda: time_setup(name, seed))
            setup.append((probe, at_ref([probe], [before, after])))
        if trace:
            if traced:
                traced[-1].pop("spans", None)  # only the last traced run's spans are written out
            traced.append(one_run(fogsim, name, seed, trace=True, short=short))
        now = time.perf_counter()
        enough = trace or len(plain) >= MIN_RUNS
        if any(r["wedged"] for r in plain + traced) or (enough and now + (now - began) - start > seconds):
            break
    runs = [warm] + plain + traced
    wedges = [r["wedged"] for r in runs if r["wedged"]]
    digests = {r["digest"] for r in plain + traced if not r["wedged"]}
    checks = [
        ("no_wedged_deployment", f"a deployment wedged: {wedges[0]}" if wedges else None),
        ("report_digest_repeats", f"{len(digests)} digests for one seed" if len(digests) > 1 else None),
    ]
    for check, _ in warm.get("checks", []):
        failures = (detail for run in runs for name_, detail in run.get("checks", []) if name_ == check and detail)
        checks.append((check, next(failures, None)))
    timed = plain + traced
    first = timed[0] if timed else warm
    result = {
        "walls": [r["wall_s"] for r in plain],
        "kernel_s": [k for r in plain for k in r["kernel_s"]],
        "setup_samples": [raw for raw, _ in setup],
        "ref_setup_samples": [scaled for _, scaled in setup],
        "attempted": sum(r["attempted"] for r in timed) if timed else warm["attempted"],
        "failed": sum(r["failed"] for r in timed) if timed else warm["failed"],
        "digest": first.get("digest"),
        "sim": first.get("sim", {}),
        "checks": checks,
    }
    if traced and not wedges:
        bytes_seen = {r["layers"]["protocol.control_bytes"] for r in traced}
        checks.append(
            ("control_bytes_repeats", f"protocol.control_bytes took {len(bytes_seen)} values" if len(bytes_seen) > 1 else None)
        )
        # Times vary from run to run, so take their median; counts repeat exactly.
        layers = {
            key: statistics.median(r["layers"][key] for r in traced) if isinstance(value, float) else value
            for key, value in traced[-1]["layers"].items()
        }
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(result["walls"])
        layers.update(first["sim"])
        result["layers"] = layers
        result["traced_walls"] = [r["wall_s"] for r in traced]
        result["spans"] = traced[-1]["spans"]
    return result


def write_spans(name: str, seed: int, spans: list) -> Path:
    path = OUT_DIR / name / f"spans-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    own = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": SPAN_FIELDS + ("self",), "spans": [list(s) + [o] for s, o in zip(spans, own)]}, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        start = time.perf_counter()
        fogsim = import_fogsim()
        imported = time.perf_counter() - start
        tree = build_tree(fogsim, args.workload, args.seed)
        start = time.perf_counter()
        fogsim.Runtime(fogsim.parse_scenario(tree))
        print(json.dumps({"setup_s": imported + time.perf_counter() - start}))
        return 0

    fogsim = import_fogsim()
    import numpy

    probes = 0 if args.trace else SETUP_PROBES
    result = measure(fogsim, args.workload, args.seed, args.seconds, bool(args.trace), setup_probes=probes)
    spans = result.pop("spans", None)
    if spans is not None:
        result["spans_file"] = str(write_spans(args.workload, args.seed, spans).relative_to(ROOT_DIR))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["python"] = platform.python_version()
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
