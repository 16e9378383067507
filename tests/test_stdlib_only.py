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
