"""``repro serve`` stops cleanly on SIGINT and SIGTERM.

A shell that starts the server in the background (``repro serve &``) hands
it SIGINT ignored, so ``KeyboardInterrupt`` never arrives.  The server must
install its own handlers: each signal closes the listener and the process
exits 0.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_serve_exits_zero_on_signal_with_sigint_ignored(signum):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        preexec_fn=_ignore_sigint,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving on http://"), banner + proc.stderr.read()
        proc.send_signal(signum)
        assert proc.wait(timeout=5) == 0, proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
