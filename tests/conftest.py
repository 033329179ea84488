"""Shared test plumbing: the acceptance scoreboard and preset runs.

Acceptance tests append one verdict line each; the summary hook prints
them after the run so the scoreboard survives output capture. Each preset
runs at its defaults at most once per session, for every test that reads
that report.
"""
import functools

from fogsim.runner import run_scenario
from fogsim.scenario import load_scenario

VERDICT_LINES = []


@functools.cache
def preset_report(name):
    """The report of one run of a built-in preset at its defaults; read it, never change it."""
    return run_scenario(load_scenario(name))


def pytest_terminal_summary(terminalreporter):
    if VERDICT_LINES:
        terminalreporter.section("acceptance scoreboard")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
