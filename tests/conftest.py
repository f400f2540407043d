"""Shared test plumbing: collects acceptance-criterion result lines and
prints them in the terminal summary, where pytest's capture cannot hide
them for passing tests, and pins the CPU count the simulator's pool sees."""

import os

import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _two_cpus(monkeypatch):
    # The simulator's pool has min(workers, CPU count) workers.  With the
    # count pinned to 2, every workers=2 / threads=2 case forks two workers
    # on any host, and none forks more.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
