"""Child processes of the harness, spoken to one line at a time.

A child runs ``python3 -m sgbench.<module> CONFIG.json`` from the
repository root with ``src`` on PYTHONPATH, so it imports the library
from source exactly as the harness does.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

READY_TIMEOUT_S = 150.0
EXIT_TIMEOUT_S = 60.0


class ChildError(RuntimeError):
    pass


class Child:
    """A child process with a line queue over its stdout."""

    def __init__(self, module: str, config: dict, config_path: Path):
        config_path.write_text(json.dumps(config), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", f"sgbench.{module}", str(config_path)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self):
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, tag: str, timeout: float = READY_TIMEOUT_S) -> dict:
        """Wait for the line ``TAG {json}`` and return its payload."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise ChildError(f"no {tag} line within {timeout:.0f} s") from None
            if line is None:
                raise ChildError(f"child exited with {self.proc.wait()} before {tag}")
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])

    def send(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self):
        """Stop the child and wait for it, killing it if it does not exit."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=EXIT_TIMEOUT_S)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
