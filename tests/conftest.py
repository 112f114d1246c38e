"""Fixtures shared by every test module."""

import os
import threading

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped, or a thread running."""
    threads = threading.active_count()
    yield
    if threading.active_count() > threads:
        pytest.fail(f"the test left {threading.active_count() - threads} more thread(s) running")
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = f"exited with wait status {status}" if pid else "still running"
    pytest.fail(f"the test left a child process, {state}")
