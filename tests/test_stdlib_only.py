"""No CLI, daemon or index-build path imports numpy.

Every kernel is pure stdlib, so a serving or building process must not
pay numpy's import time and memory.  Each case runs in a fresh
interpreter (this test process may already hold numpy) and checks
``sys.modules`` after the call.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "cli-parser-and-version": """
        import contextlib, io
        from repro.cli import build_parser, main
        build_parser()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main(["--version"])
            except SystemExit:
                pass
    """,
    "daemon-health-and-metrics": """
        from repro.datasets.synthetic import add_bridges, grid_network
        from repro.serve.daemon import DPSDaemon
        network, _ = add_bridges(grid_network(8, 8, seed=3), 4,
                                 (2.0, 5.0), seed=4)
        daemon = DPSDaemon(network, algorithm="ble")
        daemon.health()
        daemon.handle_query(b'{"Q": [0, 9, 18]}')
        daemon.render_metrics()
    """,
    "build-index": """
        from repro.core.roadpart.index import build_index
        from repro.datasets.synthetic import add_bridges, grid_network
        network, bridges = add_bridges(grid_network(10, 9, seed=3), 4,
                                       (2.0, 5.0), seed=4)
        build_index(network, 5, bridges=bridges, oracle="auto")
    """,
}

CHECK = """
import sys
assert "numpy" not in sys.modules, "numpy was imported"
"""


@pytest.mark.parametrize("case", sorted(CASES))
def test_path_never_imports_numpy(case):
    code = textwrap.dedent(CASES[case]) + CHECK
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_daemon_reads_http_without_the_stdlib_server():
    """The daemon reads HTTP/1.1 itself: answering a request over a
    socket imports neither ``http.server`` nor ``http.client`` nor the
    ``email`` parser they use (nor ``ssl``, ``html`` or ``mimetypes``)."""
    code = textwrap.dedent("""
        import socket, sys
        from repro.datasets.synthetic import add_bridges, grid_network
        from repro.serve.daemon import DPSDaemon
        network, _ = add_bridges(grid_network(8, 8, seed=3), 4,
                                 (2.0, 5.0), seed=4)
        daemon = DPSDaemon(network, algorithm="ble")
        daemon.start()
        body = b'{"Q": [0, 9, 18]}'
        with socket.create_connection(("127.0.0.1", daemon.port),
                                      timeout=30) as sock:
            sock.sendall(b"POST /query HTTP/1.1\\r\\nHost: t\\r\\n"
                         b"Connection: close\\r\\nContent-Length: %d"
                         b"\\r\\n\\r\\n%s" % (len(body), body))
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        daemon.stop()
        assert reply.startswith(b"HTTP/1.1 200 OK\\r\\n"), reply[:80]
        loaded = sorted(m for m in sys.modules
                        if m in ("http.server", "http.client")
                        or m.split(".")[0] in ("email", "ssl", "html",
                                               "mimetypes"))
        assert not loaded, loaded
    """) + CHECK
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
