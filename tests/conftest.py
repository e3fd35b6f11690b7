"""Shared pytest wiring: the checkout's package for `python -m secnoma`
subprocesses, and an end-of-run scoreboard for the acceptance suite."""
import os
from pathlib import Path

# pyproject's `pythonpath` reaches only this process; child interpreters
# find the package through the environment
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    verdicts = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            name = nodeid.rsplit("::", 1)[-1]
            if "test_acceptance" not in nodeid or not name.startswith("test_criterion"):
                continue
            ok = key == "passed"
            verdicts[name] = verdicts.get(name, True) and ok
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(verdicts):
        terminalreporter.write_line(f"[{'PASS' if verdicts[name] else 'FAIL'}] {name}")
