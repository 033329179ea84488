"""Fog orchestration at desk scale.

A single codebase of cooperating components (master, actor, task
executor, user, remote logger) that places task DAGs onto profiled
hosts with a history-seeded genetic algorithm, scales masters under
load, reuses warm executors, and reproduces its headline experiments
on a deterministic simulated network (``SimKernel``).  The same
components also run over loopback TCP on ``RealtimeKernel``, a single
selector loop on the wall clock.  ``Runtime`` drives either kernel
(``Runtime(config, kernel=RealtimeKernel)``); the CLI drives
``SimKernel``.

A simulated run needs neither sockets nor the CSV writer before its first
event, so ``RealtimeKernel`` (``tcpnet``, with ``socket``) and
``emit_report`` (``report``, with ``csv``) load at their first read as
``fogsim`` attributes, which binds them in the package.
"""

from .actor_runtime import Actor, ActorConfig, ExecutorPhase, TaskExecutor
from .discovery import Discovery, DiscoveryConfig
from .errors import (
    ConfigError,
    CyclicDependency,
    DeadlockDetected,
    EncodingOverflow,
    FogsimError,
    NeedMoreBytes,
    ProtocolError,
)
from .ga_policies import POLICIES, GaParams, HistoryStore, PolicyResult
from .netsim import DEFAULT_LINK, HOST_CLASSES, HostCompute, HostSpec, LinkSpec, SimKernel, Topology, host_from_class
from .protocol import Address, FrameBuffer, MessageEnvelope
from .registry_master import Master, PlacementState, RegisteredActor
from .runner import MetricsReport, Runtime, run_scenario
from .scaler import ScaleCandidate, headroom_score, select_scale_target
from .scenario import ScenarioConfig, load_scenario, parse_scenario, preset_names, preset_tree
from .scheduler import ResponseModel, SchedulerConfig, build_task_actors_map
from .taskgraph import AppSpec, TaskSpec, builtin_apps
from .telemetry import HostProfile, LogStore, RemoteLogger, TelemetryView
from .user_sim import RequestMetrics, User, UserConfig

__version__ = "0.1.0"


def __getattr__(name):
    """Imports ``RealtimeKernel`` or ``emit_report`` at its first read and binds it here, so later reads skip this."""
    if name == "RealtimeKernel":
        from .tcpnet import RealtimeKernel as value
    elif name == "emit_report":
        from .report import emit_report as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


__all__ = [
    "Actor",
    "ActorConfig",
    "Address",
    "AppSpec",
    "ConfigError",
    "CyclicDependency",
    "DEFAULT_LINK",
    "DeadlockDetected",
    "Discovery",
    "DiscoveryConfig",
    "EncodingOverflow",
    "ExecutorPhase",
    "FogsimError",
    "FrameBuffer",
    "GaParams",
    "HOST_CLASSES",
    "HistoryStore",
    "HostCompute",
    "HostProfile",
    "HostSpec",
    "LinkSpec",
    "LogStore",
    "Master",
    "MessageEnvelope",
    "MetricsReport",
    "NeedMoreBytes",
    "POLICIES",
    "PlacementState",
    "PolicyResult",
    "ProtocolError",
    "RealtimeKernel",
    "RegisteredActor",
    "RemoteLogger",
    "RequestMetrics",
    "ResponseModel",
    "Runtime",
    "ScaleCandidate",
    "ScenarioConfig",
    "SchedulerConfig",
    "SimKernel",
    "TaskExecutor",
    "TaskSpec",
    "TelemetryView",
    "Topology",
    "User",
    "UserConfig",
    "build_task_actors_map",
    "builtin_apps",
    "emit_report",
    "headroom_score",
    "host_from_class",
    "load_scenario",
    "parse_scenario",
    "preset_names",
    "preset_tree",
    "run_scenario",
    "select_scale_target",
    "__version__",
]
