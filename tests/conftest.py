"""Shared test plumbing: the acceptance scoreboard and preset runs.

Acceptance tests append one verdict line each; the summary hook prints
them after the run so the scoreboard survives output capture. Each preset
runs at its defaults at most once per session, for every test that reads
that report. Tests that must start from a clean interpreter run their
code in a fresh one.
"""
import functools
import os
import subprocess
import sys
from pathlib import Path

import fogsim
from fogsim.runner import run_scenario
from fogsim.scenario import load_scenario

VERDICT_LINES = []


@functools.cache
def preset_report(name):
    """The report of one run of a built-in preset at its defaults; read it, never change it."""
    return run_scenario(load_scenario(name))


def fresh_python(code, *flags, stdin=None, timeout=60):
    """The output lines of ``code`` run in a fresh interpreter that imports fogsim from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(fogsim.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, *flags, "-c", code], input=stdin, env=env,
                          capture_output=True, text=True, timeout=timeout, check=True)
    return done.stdout.splitlines()


def pytest_terminal_summary(terminalreporter):
    if VERDICT_LINES:
        terminalreporter.section("acceptance scoreboard")
        for line in VERDICT_LINES:
            terminalreporter.write_line(line)
