"""Application task graphs and the two built-in streaming apps.

An application is a DAG of named tasks.  Entry tasks consume the user's
sensor frames, interior tasks consume their parents' outputs, and exit tasks
return results to the user.  Compute cost is in abstract work units; output
size is the number of bytes one processed frame sends downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CyclicDependency

GOL_APP = "GameOfLife"
VOCR_APP = "VOCR"

GOL_LEVELS = 31
GOL_BASE_COST = 720.0
GOL_BASE_OUTPUT = 65536
GOL_MIN_OUTPUT = 16

VOCR_STAGES = (
    ("KeyFrameFilter", 120.0, 32768),
    ("OCR", 2400.0, 2048),
    ("TextDedup", 60.0, 512),
)


@dataclass(frozen=True)
class TaskSpec:
    """One task: how much work a frame costs and how large its output is."""

    name: str
    compute_cost: float
    output_size_bytes: int

    def validate(self) -> None:
        if self.compute_cost <= 0:
            raise ValueError(f"task {self.name!r} compute_cost must be positive")
        if self.output_size_bytes <= 0:
            raise ValueError(f"task {self.name!r} output_size_bytes must be positive")


@dataclass
class AppSpec:
    """Validated task DAG with explicit entry and exit task sets."""

    name: str
    tasks: dict[str, TaskSpec]
    edges: list[tuple[str, str]] = field(default_factory=list)
    entry_tasks: list[str] = field(default_factory=list)
    exit_tasks: list[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.tasks:
            raise ValueError(f"app {self.name!r} has no tasks")
        for task in self.tasks.values():
            task.validate()
        for parent, child in self.edges:
            if parent not in self.tasks or child not in self.tasks:
                raise ValueError(f"edge ({parent!r}, {child!r}) names an unknown task")
        if not self.entry_tasks or not self.exit_tasks:
            raise ValueError(f"app {self.name!r} needs non-empty entry and exit sets")
        for name in list(self.entry_tasks) + list(self.exit_tasks):
            if name not in self.tasks:
                raise ValueError(f"endpoint task {name!r} is not in the app")
        self._parents: dict[str, list[str]] = {name: [] for name in self.tasks}
        self._children: dict[str, list[str]] = {name: [] for name in self.tasks}
        for parent, child in self.edges:
            self._parents[child].append(parent)
            self._children[parent].append(child)
        entries = set(self.entry_tasks)
        for name in self.tasks:
            if name not in entries and not self._parents[name]:
                raise ValueError(f"non-entry task {name!r} has no parent")
        self.levels = topo_levels(self)  # raises on cycles
        reachable = set(self.entry_tasks)
        frontier = list(self.entry_tasks)
        while frontier:
            current = frontier.pop()
            for child in self._children[current]:
                if child not in reachable:
                    reachable.add(child)
                    frontier.append(child)
        unreachable = sorted(set(self.tasks) - reachable)
        if unreachable:
            raise ValueError(f"tasks unreachable from entries: {unreachable}")

    def parents(self, task: str) -> list[str]:
        return list(self._parents[task])

    def children(self, task: str) -> list[str]:
        return list(self._children[task])

    def task_names(self) -> list[str]:
        return list(self.tasks)


def topo_levels(app: AppSpec) -> list[list[str]]:
    """Tasks grouped by dependency depth; raises CyclicDependency on cycles.

    Level 0 holds tasks without parents; a task sits one level below its
    deepest parent.  Order within a level follows task declaration order.
    """

    indegree = {name: 0 for name in app.tasks}
    for _, child in app.edges:
        indegree[child] += 1
    level_of: dict[str, int] = {}
    frontier = [name for name in app.tasks if indegree[name] == 0]
    for name in frontier:
        level_of[name] = 0
    processed = 0
    queue = list(frontier)
    children = {name: [] for name in app.tasks}
    for parent, child in app.edges:
        children[parent].append(child)
    while queue:
        current = queue.pop(0)
        processed += 1
        for child in children[current]:
            level_of[child] = max(level_of.get(child, 0), level_of[current] + 1)
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    if processed != len(app.tasks):
        stuck = sorted(name for name in app.tasks if indegree[name] > 0)
        raise CyclicDependency(f"app {app.name!r} has a dependency cycle through {stuck}")
    depth = max(level_of.values()) + 1
    levels: list[list[str]] = [[] for _ in range(depth)]
    for name in app.tasks:
        levels[level_of[name]].append(name)
    return levels


def gol_app() -> AppSpec:
    """Game-of-life pyramid: 31 levels of paired rectangle tasks (62 total).

    The world is split into rectangles whose area halves level by level; the
    two tasks of a level process equal-sized rectangles, so they share one
    compute cost, and every task of a level feeds both tasks of the next.
    The deepest pair returns the rendered world to the user.
    """

    tasks: dict[str, TaskSpec] = {}
    edges: list[tuple[str, str]] = []
    for level in range(GOL_LEVELS):
        cost = GOL_BASE_COST / (2**level)
        output = max(GOL_MIN_OUTPUT, GOL_BASE_OUTPUT // (2**level))
        for side in ("a", "b"):
            tasks[f"gol-L{level:02d}-{side}"] = TaskSpec(
                name=f"gol-L{level:02d}-{side}",
                compute_cost=cost,
                output_size_bytes=output,
            )
        if level > 0:
            for parent_side in ("a", "b"):
                for child_side in ("a", "b"):
                    edges.append(
                        (f"gol-L{level - 1:02d}-{parent_side}", f"gol-L{level:02d}-{child_side}")
                    )
    last = GOL_LEVELS - 1
    return AppSpec(
        name=GOL_APP,
        tasks=tasks,
        edges=edges,
        entry_tasks=["gol-L00-a", "gol-L00-b"],
        exit_tasks=[f"gol-L{last:02d}-a", f"gol-L{last:02d}-b"],
    )


def vocr_app() -> AppSpec:
    """Video OCR pipeline: key-frame filtering, OCR, then text deduplication."""

    tasks = {
        name: TaskSpec(name=name, compute_cost=cost, output_size_bytes=size)
        for name, cost, size in VOCR_STAGES
    }
    names = [name for name, _, _ in VOCR_STAGES]
    edges = list(zip(names, names[1:]))
    return AppSpec(
        name=VOCR_APP,
        tasks=tasks,
        edges=edges,
        entry_tasks=[names[0]],
        exit_tasks=[names[-1]],
    )


def builtin_apps() -> dict[str, AppSpec]:
    return {GOL_APP: gol_app(), VOCR_APP: vocr_app()}
