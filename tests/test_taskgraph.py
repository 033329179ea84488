"""Task DAG validation, level computation, and the two built-in apps."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.errors import ConfigError, CyclicDependency
from fogsim.scenario import parse_scenario, preset_tree
from fogsim.taskgraph import AppSpec, TaskSpec, builtin_apps, gol_app, vocr_app


def _app(names, edges, entry, exit_, costs=None):
    tasks = {n: TaskSpec(name=n, compute_cost=(costs or {}).get(n, 1.0), output_size_bytes=8) for n in names}
    return AppSpec(name="t", tasks=tasks, edges=edges, entry_tasks=entry, exit_tasks=exit_)


def test_diamond_levels_follow_deepest_parent():
    app = _app(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], ["a"], ["d"])
    assert app.levels == [["a"], ["b", "c"], ["d"]]
    assert app.parents("d") == ["b", "c"]
    assert app.children("a") == ["b", "c"]


def test_cycle_raises():
    with pytest.raises(CyclicDependency, match="cycle"):
        _app(["a", "b"], [("a", "b"), ("b", "a")], ["a"], ["b"])


def test_self_loop_raises():
    with pytest.raises(CyclicDependency):
        _app(["a", "b"], [("a", "a"), ("a", "b")], ["a"], ["b"])


def test_unknown_edge_endpoint_rejected():
    with pytest.raises(ValueError, match="unknown task"):
        _app(["a"], [("a", "ghost")], ["a"], ["a"])


def test_orphan_non_entry_task_rejected():
    with pytest.raises(ValueError, match="no parent"):
        _app(["a", "b"], [], ["a"], ["a"])


def test_empty_endpoint_sets_rejected():
    with pytest.raises(ValueError, match="entry and exit"):
        _app(["a"], [], [], ["a"])


def test_nonpositive_cost_rejected():
    with pytest.raises(ValueError, match="compute_cost"):
        _app(["a"], [], ["a"], ["a"], costs={"a": 0.0})


def test_builtin_catalog():
    apps = builtin_apps()
    assert set(apps) == {"GameOfLife", "VOCR"}


def test_vocr_is_a_three_stage_chain():
    app = vocr_app()
    assert app.task_names() == ["KeyFrameFilter", "OCR", "TextDedup"]
    assert app.entry_tasks == ["KeyFrameFilter"]
    assert app.exit_tasks == ["TextDedup"]
    assert app.levels == [["KeyFrameFilter"], ["OCR"], ["TextDedup"]]
    assert app.tasks["OCR"].compute_cost == 2400.0


def test_gol_is_a_62_task_pyramid():
    app = gol_app()
    assert len(app.tasks) == 62
    assert len(app.levels) == 31
    assert all(len(level) == 2 for level in app.levels)
    assert app.entry_tasks == ["gol-L00-a", "gol-L00-b"]
    assert app.exit_tasks == ["gol-L30-a", "gol-L30-b"]
    # Full bipartite wiring between consecutive levels.
    assert set(app.parents("gol-L01-a")) == {"gol-L00-a", "gol-L00-b"}
    assert set(app.children("gol-L29-b")) == {"gol-L30-a", "gol-L30-b"}
    # Costs halve per level; outputs halve down to the floor.
    assert app.tasks["gol-L01-a"].compute_cost == pytest.approx(360.0)
    assert app.tasks["gol-L00-a"].compute_cost == 2 * app.tasks["gol-L01-b"].compute_cost
    assert app.tasks["gol-L30-a"].output_size_bytes == 16
    total = sum(task.compute_cost for task in app.tasks.values())
    assert total == pytest.approx(sum(2 * 720.0 / 2**k for k in range(31)))


def _with_custom_app(app_tree):
    tree = preset_tree("smoke")
    tree["apps"] = {"custom": [app_tree]}
    return tree


def test_custom_app_parses_from_the_scenario():
    tree = _with_custom_app({
        "name": "custom",
        "tasks": [
            {"name": "grab", "compute_cost": 10, "output_size_bytes": 100},
            {"name": "crunch", "compute_cost": 20.5, "output_size_bytes": 50},
        ],
        "edges": [["grab", "crunch"]],
        "entry": ["grab"],
        "exit": ["crunch"],
    })
    app = parse_scenario(tree).apps["custom"]
    assert app.name == "custom"
    assert app.levels == [["grab"], ["crunch"]]
    assert app.tasks["crunch"] == TaskSpec("crunch", 20.5, 50)


def test_custom_app_is_validated_at_parse():
    with pytest.raises(ConfigError, match="has no tasks") as info:
        parse_scenario(_with_custom_app({"name": "bad", "tasks": [], "entry": [], "exit": []}))
    assert info.value.path == "apps.custom[0]"


# Random DAGs: edges only point from lower to higher index, so the graph is
# acyclic by construction and every level must contain tasks whose parents
# all sit in strictly earlier levels.
@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 12))
def test_levels_respect_parent_order_on_random_dags(data, n):
    names = [f"t{i}" for i in range(n)]
    edges = []
    for j in range(1, n):
        parents = data.draw(st.sets(st.integers(0, j - 1), min_size=1, max_size=min(3, j)))
        edges.extend((names[i], names[j]) for i in sorted(parents))
    app = _app(names, edges, [names[0]], [names[-1]])
    level_of = {name: k for k, level in enumerate(app.levels) for name in level}
    assert sorted(level_of) == sorted(names)
    for parent, child in edges:
        assert level_of[parent] < level_of[child]
    for name in names:
        if app.parents(name):
            assert level_of[name] == 1 + max(level_of[p] for p in app.parents(name))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 8), extra=st.integers(0, 5))
def test_any_back_edge_is_caught(n, extra):
    names = [f"t{i}" for i in range(n)]
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    edges.append((names[-1], names[0]))  # close the loop
    with pytest.raises(CyclicDependency):
        _app(names, edges, [names[0]], [names[-1]])
