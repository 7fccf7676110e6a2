"""Session-wide fixtures: cached preset runs and the acceptance report."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import combcool
import combcool.dynamics
import combcool.scenarios as sc

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def empty_window_memo():
    """Start every test with an empty window-map slot.

    A test that monkeypatches what a window build calls (such as
    ``_generator_matrices``) must see a fresh build, not a map an earlier
    test left in the slot.
    """
    combcool.dynamics._window_memo.clear()


@pytest.fixture(scope="session")
def preset_runs():
    """Run each named preset at most once per session and cache the result."""
    cache = {}

    def get(name: str):
        if name not in cache:
            cache[name] = sc.run_preset(sc.get_preset(name))
        return cache[name]

    return get


@pytest.fixture
def subprocess_pythonpath(monkeypatch) -> None:
    """Let a child Python import this session's ``combcool`` from any cwd.

    Sets ``PYTHONPATH`` to the directory that holds the imported package,
    followed by any existing entries made absolute, so a relative entry
    such as ``src`` still resolves once the child runs elsewhere.
    """
    entries = [str(Path(combcool.__file__).resolve().parents[1])]
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry:
            entries.append(str(Path(entry).resolve()))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(entries))


@pytest.fixture(scope="session")
def acceptance_report() -> list[str]:
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
