"""Child processes of a run: one environment, always reaped."""

from __future__ import annotations

import os
import signal
import subprocess
from pathlib import Path

#: Fixed hash seed for every process a run starts.
PYTHONHASHSEED = "0"


def child_env(root: Path) -> dict:
    """Environment additions for the benchmark's processes: the program
    from ``src``, the harness from ``perfbench``, a fixed hash seed."""
    paths = [str(root / "src"), str(root / "perfbench")]
    return {"PYTHONPATH": os.pathsep.join(paths),
            "PYTHONHASHSEED": PYTHONHASHSEED,
            "PYTHONDONTWRITEBYTECODE": "1"}


def spawn(cmd, *, cwd=None, **kwargs) -> subprocess.Popen:
    kwargs.setdefault("stdin", subprocess.DEVNULL)
    return subprocess.Popen(cmd, cwd=cwd, text=True, **kwargs)


def reap(proc: subprocess.Popen, timeout: float = 10.0) -> int:
    """Stop ``proc`` if it is still running (SIGTERM, then SIGKILL after
    ``timeout``), wait for it and close its pipes; returns its exit code."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()
    return proc.returncode
