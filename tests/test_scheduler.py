"""Candidate maps, the response estimator, and scheduling cost accounting."""
import inspect
import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.ga_policies import GaParams
from fogsim.netsim import DEFAULT_LINK, LinkSpec, Topology, host_from_class
from fogsim.protocol import Address, HostProfile
from fogsim.scheduler import (
    ResponseModel,
    _compile_critical_path,
    SchedulerConfig,
    build_task_actors_map,
    dependency_lists,
    nominal_evals,
    scheduling_work_units,
)
from fogsim.taskgraph import AppSpec, TaskSpec, vocr_app
from fogsim.telemetry import TelemetryView


@dataclass
class Entry:
    addr: Address
    images: tuple

    @property
    def host(self):
        return self.addr.host


def _app(names, edges, entry, exit_, costs, outs):
    tasks = {
        n: TaskSpec(name=n, compute_cost=costs[n], output_size_bytes=outs[n]) for n in names
    }
    return AppSpec(name="t", tasks=tasks, edges=edges, entry_tasks=entry, exit_tasks=exit_)


def _view(links=None):
    """The four-host view; `links` replaces or adds topology links by ordered pair."""
    hosts = [host_from_class("u", "rpi4"), host_from_class("m", "desktop"),
             host_from_class("a", "desktop"), host_from_class("b", "rpi4")]
    base = {
        ("u", "m"): LinkSpec(2.0, 100e6),
        ("m", "a"): LinkSpec(4.0, 100e6),
        ("m", "b"): LinkSpec(10.0, 50e6),
        ("a", "b"): LinkSpec(1.0, 100e6),
    }
    return TelemetryView(Topology(hosts, {**base, **(links or {})}, DEFAULT_LINK))


RATE = {"a": 8 * 3.6, "b": 4 * 1.5}


def xfer(latency, rate_bps, size):
    return latency + size * 8.0 / rate_bps * 1000.0


# -- candidates -------------------------------------------------------------------


def test_candidates_follow_images_and_registration_order():
    app = vocr_app()
    first = Entry(Address("a", 5001), ("KeyFrameFilter", "OCR"))
    second = Entry(Address("b", 5001), ("*",))
    third = Entry(Address("c", 5001), ("TextDedup",))
    got = build_task_actors_map(app, [first, second, third])
    assert got["KeyFrameFilter"] == [first, second]
    assert got["OCR"] == [first, second]
    assert got["TextDedup"] == [second, third]


def test_candidates_empty_when_nobody_holds_the_image():
    app = vocr_app()
    got = build_task_actors_map(app, [Entry(Address("a", 5001), ("OCR",))])
    assert got["KeyFrameFilter"] == []
    assert got["OCR"] != []


def test_dependency_lists_cover_parents_and_children():
    app = _app(["s", "t", "x"], [("s", "t"), ("t", "x")], ["s"], ["x"],
               {"s": 1.0, "t": 1.0, "x": 1.0}, {"s": 8, "t": 8, "x": 8})
    addr = {name: Address(name, 5200) for name in app.task_names()}
    wiring = dependency_lists(app, addr)
    assert wiring["s"] == [("t", addr["t"])]
    assert wiring["t"] == [("s", addr["s"]), ("x", addr["x"])]
    assert wiring["x"] == [("t", addr["t"])]


# -- hand-computed estimates ------------------------------------------------------


def chain_model(frame=65536):
    app = _app(["t1", "t2"], [("t1", "t2")], ["t1"], ["t2"],
               {"t1": 60.0, "t2": 120.0}, {"t1": 1000, "t2": 2000})
    actors = [Entry(Address("a", 5001), ("*",)), Entry(Address("b", 5001), ("*",))]
    candidates = build_task_actors_map(app, actors)
    return ResponseModel(app, candidates, "u", "m", _view(), frame)


def test_chain_both_tasks_on_one_host():
    model = chain_model()
    ingress = xfer(2.0, 100e6, 65536) + xfer(4.0, 100e6, 65536)
    work = 60.0 / RATE["a"] + 120.0 / RATE["a"]
    egress = xfer(4.0, 100e6, 2000) + xfer(2.0, 100e6, 2000)
    assert model.estimate((0, 0)) == pytest.approx(ingress + work + egress, rel=1e-12)


def test_chain_split_across_hosts_pays_the_edge():
    model = chain_model()
    ingress = xfer(2.0, 100e6, 65536) + xfer(4.0, 100e6, 65536)
    hop = xfer(1.0, 100e6, 1000)
    work = 60.0 / RATE["a"] + 120.0 / RATE["b"]
    egress = xfer(10.0, 50e6, 2000) + xfer(2.0, 100e6, 2000)
    assert model.estimate((0, 1)) == pytest.approx(ingress + hop + work + egress, rel=1e-12)


def test_diamond_join_waits_for_the_slow_branch():
    app = _app(["s", "p", "q", "j"], [("s", "p"), ("s", "q"), ("p", "j"), ("q", "j")],
               ["s"], ["j"], {"s": 28.8, "p": 28.8, "q": 288.0, "j": 28.8},
               {"s": 1000, "p": 1000, "q": 1000, "j": 1000})
    actors = [Entry(Address("a", 5001), ("*",))]
    model = ResponseModel(app, build_task_actors_map(app, actors), "u", "m", _view(), 1000)
    ingress = xfer(2.0, 100e6, 1000) + xfer(4.0, 100e6, 1000)
    # co-located edges are free; the join starts when branch q (10x cost) ends
    work = 28.8 / RATE["a"] + 288.0 / RATE["a"] + 28.8 / RATE["a"]
    egress = xfer(4.0, 100e6, 1000) + xfer(2.0, 100e6, 1000)
    assert model.estimate((0, 0, 0, 0)) == pytest.approx(ingress + work + egress, rel=1e-12)


def test_multiple_exits_take_the_latest_arrival():
    app = _app(["s", "e1", "e2"], [("s", "e1"), ("s", "e2")], ["s"], ["e1", "e2"],
               {"s": 28.8, "e1": 28.8, "e2": 288.0}, {"s": 1000, "e1": 1000, "e2": 1000})
    actors = [Entry(Address("a", 5001), ("*",))]
    model = ResponseModel(app, build_task_actors_map(app, actors), "u", "m", _view(), 1000)
    ingress = xfer(2.0, 100e6, 1000) + xfer(4.0, 100e6, 1000)
    egress = xfer(4.0, 100e6, 1000) + xfer(2.0, 100e6, 1000)
    slow = ingress + (28.8 + 288.0) / RATE["a"] + egress
    assert model.estimate((0, 0, 0)) == pytest.approx(slow, rel=1e-12)


# -- independent reference recurrence ---------------------------------------------


def reference_estimate(app, hosts_by_task, user, master, view, frame):
    finish = {}
    for level in app.levels:
        for name in level:
            host = hosts_by_task[name]
            parents = app.parents(name)
            if parents:
                start = max(
                    finish[p] + (0.0 if hosts_by_task[p] == host else view.topology.transfer_ms(
                        hosts_by_task[p], host, app.tasks[p].output_size_bytes))
                    for p in parents
                )
            else:
                start = view.topology.transfer_ms(user, master, frame) \
                    + view.topology.transfer_ms(master, host, frame)
            finish[name] = start + app.tasks[name].compute_cost / view.host_rate(host)
    return max(
        finish[name]
        + view.topology.transfer_ms(hosts_by_task[name], master, app.tasks[name].output_size_bytes)
        + view.topology.transfer_ms(master, user, app.tasks[name].output_size_bytes)
        for name in app.exit_tasks
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_estimate_matches_reference_on_random_dags(data):
    n = data.draw(st.integers(1, 6))
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parents = data.draw(st.sets(st.integers(0, i - 1), min_size=1))
        edges.extend((names[p], names[i]) for p in sorted(parents))
    children = {a for a, _ in edges}
    costs = {nm: data.draw(st.floats(1.0, 500.0)) for nm in names}
    outs = {nm: data.draw(st.integers(1, 100000)) for nm in names}
    entry = [names[0]]
    exit_ = [nm for nm in names if nm not in children]
    app = _app(names, edges, entry, exit_, costs, outs)
    actors = [Entry(Address("a", 5001), ("*",)), Entry(Address("b", 5001), ("*",))]
    view = _view()
    model = ResponseModel(app, build_task_actors_map(app, actors), "u", "m", view, 65536)
    assignment = tuple(data.draw(st.integers(0, 1)) for _ in names)
    hosts_by_task = {
        name: hosts[a] for name, hosts, a in zip(model.tasks, model.candidate_hosts, assignment)
    }
    expected = reference_estimate(app, hosts_by_task, "u", "m", view, 65536)
    assert model.estimate(assignment) == pytest.approx(expected, rel=1e-12)


class _CacheBasedModel:
    """The estimator as it was before its costs were tabulated, kept verbatim
    (host-keyed caches filled on first use) as the oracle for exact equality."""

    def __init__(self, app, candidates, user_host, master_host, view, frame_size_bytes):
        self.app = app
        self.tasks = app.task_names()
        self.user_host = user_host
        self.master_host = master_host
        self.view = view
        self.frame_size_bytes = int(frame_size_bytes)
        self.candidate_hosts = [
            [actor.addr.host for actor in candidates[task]] for task in self.tasks
        ]
        self.counts = [len(hosts) for hosts in self.candidate_hosts]
        index = {name: i for i, name in enumerate(self.tasks)}
        self._parents = [[index[p] for p in app.parents(name)] for name in self.tasks]
        self._order = [index[name] for level in app.levels for name in level]
        self._exit = [index[name] for name in app.exit_tasks]
        rates = {}
        self._node_cost = []
        for i, name in enumerate(self.tasks):
            cost = app.tasks[name].compute_cost
            row = []
            for host in self.candidate_hosts[i]:
                if host not in rates:
                    rates[host] = view.host_rate(host)
                row.append(cost / rates[host])
            self._node_cost.append(row)
        self._out_bytes = [app.tasks[name].output_size_bytes for name in self.tasks]
        self._edge_cache = {}
        self._ingress_cache = {}
        self._egress_cache = {}

    def _edge_ms(self, src_host, dst_host, size):
        if src_host == dst_host:
            return 0.0
        key = (src_host, dst_host, size)
        cached = self._edge_cache.get(key)
        if cached is None:
            cached = self.view.topology.transfer_ms(src_host, dst_host, size)
            self._edge_cache[key] = cached
        return cached

    def ingress_ms(self, entry_host):
        cached = self._ingress_cache.get(entry_host)
        if cached is None:
            cached = self.view.topology.transfer_ms(
                self.user_host, self.master_host, self.frame_size_bytes
            ) + self.view.topology.transfer_ms(self.master_host, entry_host, self.frame_size_bytes)
            self._ingress_cache[entry_host] = cached
        return cached

    def egress_ms(self, exit_host, size):
        key = (exit_host, size)
        cached = self._egress_cache.get(key)
        if cached is None:
            cached = self.view.topology.transfer_ms(exit_host, self.master_host, size) \
                + self.view.topology.transfer_ms(self.master_host, self.user_host, size)
            self._egress_cache[key] = cached
        return cached

    def estimate(self, assignment):
        hosts = [self.candidate_hosts[i][assignment[i]] for i in range(len(self.tasks))]
        finish = [0.0] * len(self.tasks)
        for i in self._order:
            host = hosts[i]
            if self._parents[i]:
                start = 0.0
                for p in self._parents[i]:
                    arrival = finish[p] + self._edge_ms(hosts[p], host, self._out_bytes[p])
                    if arrival > start:
                        start = arrival
            else:
                start = self.ingress_ms(host)
            finish[i] = start + self._node_cost[i][assignment[i]]
        response = 0.0
        for i in self._exit:
            arrival = finish[i] + self.egress_ms(hosts[i], self._out_bytes[i])
            if arrival > response:
                response = arrival
        return response


def _perturbed_view(data):
    # drawn links replace the topology's on some pairs and not on others; an
    # ordered pair is looked up before its reverse, so (m, a) and (a, m) may differ
    links = {}
    for a, b in data.draw(st.sets(st.sampled_from(
            [("u", "m"), ("m", "a"), ("a", "m"), ("m", "b"), ("a", "b"), ("b", "c"), ("m", "c")]))):
        links[(a, b)] = LinkSpec(data.draw(st.floats(0.0, 50.0)), data.draw(st.floats(1e5, 1e9)))
    view = _view(links)
    view.observe(HostProfile(host="c", cpu_cores=2, cpu_freq_ghz=1.2, mem_capacity_mb=1024,
                             cpu_util=0.3, mem_util=0.1, sampled_at=1.0))
    return view


def _assert_equals_oracle_exactly(app, candidates, view, frame):
    model = ResponseModel(app, candidates, "u", "m", view, frame)
    reference = _CacheBasedModel(app, candidates, "u", "m", view, frame)
    for assignment in itertools.product(*(range(c) for c in model.counts)):
        assert model.estimate(assignment) == reference.estimate(assignment)
    return model


def _draw_candidates_and_check(data, app):
    view = _perturbed_view(data)
    # two or three candidate hosts per task, repeats included, in any order
    actors = [Entry(Address(h, 5001 + k), ("*",)) for k, h in enumerate(
        data.draw(st.lists(st.sampled_from("abc"), min_size=2, max_size=3)))]
    frame = data.draw(st.integers(0, 200000))
    _assert_equals_oracle_exactly(app, build_task_actors_map(app, actors), view, frame)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_tabulated_estimate_equals_cache_based_recurrence_exactly(data):
    n = data.draw(st.integers(1, 6))
    names = [f"n{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        parents = data.draw(st.sets(st.integers(0, i - 1), min_size=1))
        edges.extend((names[p], names[i]) for p in sorted(parents))
    children = {a for a, _ in edges}
    costs = {nm: data.draw(st.floats(1.0, 500.0)) for nm in names}
    outs = {nm: data.draw(st.integers(1, 100000)) for nm in names}
    entry = [names[0]]
    exit_ = [nm for nm in names if nm not in children]
    app = _app(names, edges, entry, exit_, costs, outs)
    _draw_candidates_and_check(data, app)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_estimate_equals_cache_based_recurrence_on_irregular_dags(data):
    """Several entries, entries with parents, tasks declared out of
    topological order, parents out of index order, repeated edges and exits
    with children."""

    n = data.draw(st.integers(1, 6))
    names = [f"n{i}" for i in range(n)]
    # topo[r] is the declaration index of the task at topological rank r
    topo = data.draw(st.permutations(range(n)))
    edges = []
    for r in range(1, n):
        parents = data.draw(st.sets(st.integers(0, r - 1)))
        edges.extend((names[topo[q]], names[topo[r]]) for q in parents)
    if edges and data.draw(st.booleans()):
        edges.append(data.draw(st.sampled_from(edges)))
    edges = data.draw(st.permutations(edges))
    parented = {b for _, b in edges}
    children = {a for a, _ in edges}
    entry = [nm for nm in names if nm not in parented or data.draw(st.booleans())]
    exit_ = [nm for nm in names if nm not in children or data.draw(st.booleans())]
    costs = {nm: data.draw(st.floats(1.0, 500.0)) for nm in names}
    outs = {nm: data.draw(st.integers(1, 100000)) for nm in names}
    _draw_candidates_and_check(data, _app(names, edges, entry, exit_, costs, outs))


def _irregular_app(name="t", edges=None):
    """Declared join-first; entries x0, x2 and x1 (which has parent x0); x3
    joins x2 before x1 over a repeated edge; exits x3 and x1 (a parent)."""

    names = ["x3", "x0", "x1", "x2"]
    edges = edges or [("x2", "x3"), ("x1", "x3"), ("x0", "x1"), ("x2", "x3")]
    tasks = {nm: TaskSpec(name=nm, compute_cost=10.0 + 7.0 * k, output_size_bytes=900 + 4000 * k)
             for k, nm in enumerate(names)}
    return AppSpec(name=name, tasks=tasks, edges=edges, entry_tasks=["x0", "x1", "x2"],
                   exit_tasks=["x3", "x1"])


def _abc_candidates(app):
    actors = [Entry(Address(h, 5001 + k), ("*",)) for k, h in enumerate("bab")]
    return build_task_actors_map(app, actors)


def test_estimate_equals_cache_based_recurrence_on_an_irregular_dag():
    app = _irregular_app()
    assert app.parents("x3") == ["x2", "x1", "x2"]
    _assert_equals_oracle_exactly(app, _abc_candidates(app), _view(), 30000)


def test_models_share_compiled_code_per_shape_but_not_tables():
    _compile_critical_path.cache_clear()
    app = _irregular_app()
    idle = _view()
    busy = _view({("a", "b"): LinkSpec(40.0, 2e6)})
    first = _assert_equals_oracle_exactly(app, _abc_candidates(app), idle, 30000)
    assert _compile_critical_path.cache_info().misses == 1
    second = _assert_equals_oracle_exactly(app, _abc_candidates(app), busy, 30000)
    renamed = _irregular_app(name="renamed")
    _assert_equals_oracle_exactly(renamed, _abc_candidates(renamed), idle, 5000)
    assert _compile_critical_path.cache_info()[:2] == (2, 1)  # (hits, misses)
    # the first model still reads its own tables after the others were built
    reference = _CacheBasedModel(app, _abc_candidates(app), "u", "m", idle, 30000)
    space = list(itertools.product(*(range(c) for c in first.counts)))
    assert [first.estimate(a) for a in space] == [reference.estimate(a) for a in space]
    assert [first.estimate(a) for a in space] != [second.estimate(a) for a in space]
    # same tasks, x3's parents in another order: a shape of its own
    reordered = _irregular_app(edges=[("x1", "x3"), ("x2", "x3"), ("x0", "x1"), ("x2", "x3")])
    _assert_equals_oracle_exactly(reordered, _abc_candidates(reordered), idle, 30000)
    assert _compile_critical_path.cache_info().misses == 2
    assert _compile_critical_path.cache_info().currsize == 2


def _hop_tables(model):
    """The hop tables bound into a model's compiled estimate, by name (h0, h1, ...)."""
    bound = inspect.getclosurevars(model._critical_path).nonlocals
    return {name: table for name, table in bound.items() if name.startswith("h")}


def test_models_on_one_topology_share_its_hop_tables():
    app = _irregular_app()
    view = _view()
    first = ResponseModel(app, _abc_candidates(app), "u", "m", view, 30000)
    # another request, another master's view: the same topology object
    second = ResponseModel(app, _abc_candidates(app), "u", "m", TelemetryView(view.topology), 5000)
    own = _hop_tables(first)
    assert len(own) == 4 and own == _hop_tables(second)
    assert all(_hop_tables(second)[name] is table for name, table in own.items())
    # x3 takes x2's output twice over a repeated edge: one table
    assert own["h1"] is own["h3"]
    out = {name: app.tasks[name].output_size_bytes for name in app.tasks}
    hosts = dict(zip(first.tasks, first.candidate_hosts))
    for name, (parent, child) in zip(sorted(own), [("x0", "x1"), ("x2", "x3"), ("x1", "x3"), ("x2", "x3")]):
        assert own[name] == tuple(
            tuple(view.topology.transfer_ms(src, dst, out[parent]) for dst in hosts[child]) for src in hosts[parent]
        )
    elsewhere = ResponseModel(app, _abc_candidates(app), "u", "m", _view(), 30000)
    assert _hop_tables(elsewhere) == own
    assert not any(_hop_tables(elsewhere)[name] is table for name, table in own.items())


def test_repeat_estimates_hit_caches_identically():
    model = chain_model()
    space = list(itertools.product(range(2), repeat=2))
    first = [model.estimate(a) for a in space]
    second = [model.estimate(a) for a in space]
    assert first == second


# -- cost accounting --------------------------------------------------------------


def test_nominal_evals_by_policy():
    params = GaParams(pop_size=100, max_iteration_num=100, n_offsprings=40)
    assert nominal_evals("random", params) == 100
    assert nominal_evals("ohnsga", params) == 100 + 100 * 40
    assert nominal_evals("nsga2", params) == 4100


def test_scheduling_work_units_formula():
    params = GaParams(pop_size=100, max_iteration_num=100, n_offsprings=40)
    config = SchedulerConfig()
    assert scheduling_work_units("ohnsga", params, config) == 100.0 + 50.0 * 4100
    assert scheduling_work_units("random", params, config) == 100.0 + 50.0 * 100


def test_scheduler_config_validation():
    SchedulerConfig().validate()
    with pytest.raises(ValueError):
        SchedulerConfig(max_cpu_util=0.0).validate()
    with pytest.raises(ValueError):
        SchedulerConfig(max_cpu_util=1.1).validate()
    with pytest.raises(ValueError):
        SchedulerConfig(max_sched_count=-1).validate()
    with pytest.raises(ValueError):
        SchedulerConfig(sched_eval_units=-1.0).validate()
