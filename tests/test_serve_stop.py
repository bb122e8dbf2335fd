"""``repro serve --listen`` stops cleanly on a SIGTERM sent at its banner.

``listening on HOST:PORT`` is the line a supervisor (or a test) waits for
before it may signal the server, so the SIGTERM/SIGINT handlers must be
in before it is printed: a SIGTERM that lands while the default action
still holds kills the server without its shutdown checkpoint (exit -15).
The child sends the signal from inside the banner's own ``write``, the
earliest moment anyone could see it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SIGTERM_AT_BANNER = textwrap.dedent(
    """
    import os, signal, sys

    from repro.cli import main

    class SignalAtBanner:
        def __init__(self, out):
            self.out = out

        def write(self, text):
            self.out.write(text)
            if text.startswith("listening on"):
                self.out.flush()
                os.kill(os.getpid(), signal.SIGTERM)
            return len(text)

        def flush(self):
            self.out.flush()

    sys.stdout = SignalAtBanner(sys.stdout)
    sys.exit(main(["serve", "--listen", "127.0.0.1:0", "--scheme", "wbox",
                   "--base", "500", "--storage", "file", "--storage-path", sys.argv[1]]))
    """
)


def test_sigterm_at_banner_stops_the_server(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SIGTERM_AT_BANNER, str(tmp_path / "root")],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("listening on")
    assert lines[-1] == "server stopped"
