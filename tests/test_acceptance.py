"""Acceptance gate: the eight headline behaviors, one verdict line each.

Every test prints a single ``[criterion N] PASS/FAIL`` line (bypassing
capture) so a full run leaves an at-a-glance scoreboard in the log.
"""
import dataclasses
import filecmp
import itertools
import sys
import time

import numpy as np

import conftest
from fogsim.ga_policies import GaParams, ohnsga
from fogsim.netsim import DEFAULT_LINK, LinkSpec, Topology, host_from_class
from fogsim.protocol import (
    Address,
    MessageEnvelope,
    Probe,
    decode,
    encode,
)
from fogsim.report import emit_report
from fogsim.runner import run_scenario
from fogsim.scaler import ScaleCandidate, headroom_score, select_scale_target
from fogsim.scenario import load_scenario, parse_scenario
from fogsim.scheduler import ResponseModel, build_task_actors_map
from fogsim.taskgraph import AppSpec, TaskSpec
from fogsim.telemetry import TelemetryView

from test_protocol import SAMPLE_PAYLOADS


def verdict(number, name, ok, detail):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    conftest.VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


# -- 1: the search finds true optima on exhaustively checkable spaces ---------------


@dataclasses.dataclass
class _Entry:
    addr: Address
    images: tuple


def _small_problem(seed):
    rng = np.random.default_rng([11, seed])
    classes = ["rpi4", "desktop", "cloud-2c", "cloud-4c"]
    names = ["u", "m", "a0", "a1", "a2"]
    hosts = [host_from_class(h, str(rng.choice(classes))) for h in names]
    links = {}
    for a, b in itertools.combinations(names, 2):
        links[(a, b)] = LinkSpec(
            latency_ms=float(rng.uniform(1.0, 40.0)),
            data_rate_bps=float(rng.choice([10e6, 50e6, 100e6, 1e9])),
        )
    topology = Topology(hosts, links, DEFAULT_LINK)

    n_tasks = int(rng.integers(3, 5))
    tasks = {}
    edges = []
    for i in range(n_tasks):
        tasks[f"t{i}"] = TaskSpec(
            name=f"t{i}",
            compute_cost=float(rng.uniform(50.0, 2500.0)),
            output_size_bytes=int(rng.integers(64, 65536)),
        )
        if i:
            edges.append((f"t{i - 1}", f"t{i}"))
            if i >= 2 and rng.random() < 0.5:
                edges.append((f"t{int(rng.integers(0, i - 1))}", f"t{i}"))
    exits = sorted(set(tasks) - {a for a, _ in edges})
    app = AppSpec(name="tiny", tasks=tasks, edges=edges, entry_tasks=["t0"], exit_tasks=exits)
    actors = [_Entry(Address(f"a{k}", 5001), ("*",)) for k in range(3)]
    return ResponseModel(app, build_task_actors_map(app, actors), "u", "m",
                         TelemetryView(topology), 65536)


def test_criterion_1_optimality_on_small_spaces():
    # Population and iteration budget are fixed; mutation is widened so the
    # duplicate-free sampler can traverse spaces this small instead of
    # re-proposing the same decoded cells.
    params = GaParams(pop_size=16, max_iteration_num=50, n_parents=8, n_offsprings=8,
                      mutation_prob=0.8, mutation_eta=3.0)
    hits = 0
    started = time.perf_counter()
    for seed in range(100):
        model = _small_problem(seed)
        oracle = min(model.estimate(a) for a in itertools.product(*(range(c) for c in model.counts)))
        result = ohnsga(model.counts, model.estimate, params, np.random.default_rng([12, seed]))
        assert result.fitness >= oracle
        hits += result.fitness == oracle
    wall = time.perf_counter() - started
    verdict(1, "optimal placements on exhaustive spaces", hits >= 95 and wall < 10.0,
            f"optimum hit on {hits}/100 seeds, wall {wall:.1f}s < 10s")


# -- 2: history-seeded search converges no slower than the baseline -----------------


def test_criterion_2_convergence_profile():
    config = load_scenario("convergence")
    report = conftest.preset_report("convergence")
    app = config.apps[config.users[0].app]
    assert len(app.task_names()) == 62 and len(config.actors) == 5

    rows = {}
    for row in report.convergence:
        rows.setdefault((row["policy"], row["seed"]), []).append(row)
    expected = config.ga.max_iteration_num
    sizes_ok = all(len(group) == expected for group in rows.values())
    monotone_ok = True
    for group in rows.values():
        group.sort(key=lambda r: r["iteration"])
        series = [r["best_fitness"] for r in group]
        monotone_ok &= all(b <= a for a, b in zip(series, series[1:]))
        monotone_ok &= [r["iteration"] for r in group] == list(range(1, expected + 1))

    medians = report.summary["median_at_compare"]
    seeded = report.summary["warmup_history_entries"] >= 1
    ok = (seeded and sizes_ok and monotone_ok
          and len(rows) == 3 * report.summary["seeds"]
          and medians["ohnsga"] <= medians["nsga2"])
    verdict(2, "history-seeded convergence", ok,
            f"median@{report.summary['compare_iteration']} ohnsga {medians['ohnsga']:.1f} "
            f"<= nsga2 {medians['nsga2']:.1f}, {len(report.convergence)} monotone rows, "
            f"{report.summary['warmup_history_entries']} history entries")


# -- 3: estimates predict measurements, and the tuned policy wins -------------------


def test_criterion_3_response_accuracy_and_wins():
    report = conftest.preset_report("response")
    max_err = report.summary["max_err_pct"]
    seeds = report.summary["seeds"]
    wins = report.summary["ohnsga_wins"]
    accurate = all(err < 1.0 for err in max_err.values())
    ok = accurate and wins >= 0.8 * seeds
    worst = max(max_err.values())
    verdict(3, "response estimates vs measurements", ok,
            f"worst estimate error {worst:.2e}% < 1%, "
            f"best-or-equal on {wins}/{seeds} seeds (need {int(0.8 * seeds)})")


# -- 4: scaling out relieves scheduling pressure ------------------------------------


def test_criterion_4_scaling_relieves_sft():
    report = conftest.preset_report("scalability")
    rows = report.summary["counts"]
    all_scheduled = all(
        row["scheduled_scaling"] == row["scheduled_no_scaling"] == int(count)
        for count, row in rows.items()
    )
    high = rows["16"]["ratio_no_scaling_over_scaling"]
    low = rows["1"]["ratio_no_scaling_over_scaling"]
    ok = all_scheduled and high >= 1.3 and abs(low - 1.0) < 0.05
    verdict(4, "master scaling under load", ok,
            f"16-request SFT ratio {high:.2f} >= 1.3, single-request ratio {low:.3f} "
            f"within 5% of 1, all requests scheduled in every cell")


# -- 5: warm executors shorten the ready path app-dependently -----------------------


def test_criterion_5_reuse_ratios():
    report = conftest.preset_report("reuse")
    apps = report.summary["apps"]
    gol, vocr = apps["GameOfLife"]["ratio"], apps["VOCR"]["ratio"]
    ok = gol < 0.55 and 0.55 < vocr < 1.0
    verdict(5, "executor reuse warm/cold ratios", ok,
            f"GameOfLife {gol:.3f} < 0.55, VOCR {vocr:.3f} in (0.55, 1.0); "
            f"warm reuses {apps['GameOfLife']['warm_reuses']}+{apps['VOCR']['warm_reuses']}")


# -- 6: subnet discovery converges within diameter + 1 sweeps -----------------------


def _random_subnet_tree(trial, rng):
    n = int(rng.integers(4, 17))
    octets = rng.choice(np.arange(1, 255), size=n, replace=False)
    hosts = [f"10.{trial}.0.{o}" for o in sorted(int(x) for x in octets)]
    order = list(rng.permutation(n))
    masters = [hosts[order[0]], hosts[order[1]]]
    actors = []
    for idx in order[2:]:
        home = masters[int(rng.integers(0, 2))]  # disjoint initial registrations
        actors.append({"host": hosts[idx], "masters": [home]})
    return {
        "name": f"subnet-{trial}",
        "seed": trial,
        "experiment": {"kind": "discovery"},
        "time_limit_ms": 2500.0,
        "topology": {
            "hosts": [{"host": h, "class": "rpi4"} for h in hosts],
            "default_link": {"latency_ms": 5.0, "data_rate_bps": 100e6},
        },
        "components": {
            "remote_loggers": [masters[0]],
            "masters": masters,
            "actors": actors,
        },
        "discovery": {"enabled": True, "interval_ms": 1000.0, "net_mask": 24,
                      "grace_ms": 50.0},
    }


def test_criterion_6_discovery_converges_quickly():
    rng = np.random.default_rng(606)
    diameter = 1  # every pair of subnet hosts is one hop apart
    converged = 0
    rounds = []
    for trial in range(10):
        config = parse_scenario(_random_subnet_tree(trial, rng))
        report = run_scenario(config)
        per_master = report.summary["masters"].values()
        within = all(entry["rounds_run"] <= diameter + 1 for entry in per_master)
        knows_peer = all(entry["known_masters"] >= 1 for entry in per_master)
        converged += report.summary["all_converged"] and within and knows_peer
        rounds.append(max(entry["rounds_run"] for entry in per_master))
    verdict(6, "subnet discovery", converged == 10,
            f"10/10 random subnets fully known within diameter+1={diameter + 1} sweeps "
            f"(max sweeps used {max(rounds)})")


# -- 7: the scale-target choice matches its ordering oracle -------------------------


def test_criterion_7_scaler_matches_oracle():
    rng = np.random.default_rng(707)
    matches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        picks = []
        for i in range(n):
            profile = dataclasses.replace(
                SAMPLE_PAYLOADS[0].profile,
                host=f"h{i}",
                cpu_util=float(rng.integers(0, 5)) / 4.0,
                cpu_freq_ghz=float(rng.choice([1.5, 2.0, 3.6])),
            )
            picks.append(ScaleCandidate(address=Address(f"h{i}", 5001), profile=profile,
                                        latency_ms=float(rng.integers(0, 4)) * 2.5))
        keyed = [(c.latency_ms, -headroom_score(c.profile), i) for i, c in enumerate(picks)]
        oracle = picks[min(range(n), key=keyed.__getitem__)]
        matches += select_scale_target(picks) is oracle
    verdict(7, "scale-target selection oracle", matches == 1000,
            f"{matches}/1000 random candidate sets matched (latency, -headroom, first-seen)")


# -- 8: the codec and the reports are deterministic ---------------------------------


def _randomize(payload, rng):
    if isinstance(payload, Probe):
        return payload
    kwargs = {}
    for f in dataclasses.fields(payload):
        value = getattr(payload, f.name)
        if isinstance(value, bool):
            kwargs[f.name] = bool(rng.integers(0, 2))
        elif isinstance(value, int):
            kwargs[f.name] = int(rng.integers(0, 1 << 31))
        elif isinstance(value, float):
            kwargs[f.name] = float(np.round(rng.uniform(0.0, 1e6), 6))
        elif isinstance(value, str):
            kwargs[f.name] = f"v{int(rng.integers(0, 10 ** 9))}"
    return dataclasses.replace(payload, **kwargs)


def test_criterion_8_codec_and_report_determinism(tmp_path):
    rng = np.random.default_rng(808)
    for i in range(10000):
        payload = _randomize(SAMPLE_PAYLOADS[int(rng.integers(0, len(SAMPLE_PAYLOADS)))], rng)
        env = MessageEnvelope(
            source=Address(f"10.1.0.{int(rng.integers(1, 255))}", int(rng.integers(1, 65536))),
            destination=Address(f"10.2.0.{int(rng.integers(1, 255))}", int(rng.integers(1, 65536))),
            payload=payload,
        )
        frame = encode(env)
        back = decode(frame)
        assert back == env, f"envelope {i} changed across the wire"
        assert encode(back) == frame, f"envelope {i} re-encoded differently"

    config = load_scenario("smoke")
    first = emit_report(run_scenario(config), str(tmp_path / "a"))
    second = emit_report(run_scenario(config), str(tmp_path / "b"))
    identical = all(filecmp.cmp(first[name], second[name], shallow=False) for name in first)
    verdict(8, "codec round-trips and deterministic reports", identical,
            f"10000 envelopes byte-stable, {len(first)} report files byte-identical across reruns")
