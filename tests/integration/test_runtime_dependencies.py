"""The library runs on the standard library alone: networkx is a test
oracle, never a runtime import."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

PROBE = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def test_importing_every_module_leaves_networkx_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                            text=True, timeout=120, cwd=ROOT, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
