"""Smoke tests: every export resolves, and the demos run end to end."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vemse

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted("vemse" if p.stem == "__init__" else "vemse." + p.stem
                 for p in Path(vemse.__file__).parent.glob("*.py"))


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_estimator_tour_demo_runs():
    proc = run_demo("01_estimator_tour.py")
    assert proc.returncode == 0, proc.stderr
    assert "tau   vemse    mmse" in proc.stdout


def test_record_pipeline_demo_replays_byte_identical():
    proc = run_demo("05_record_pipeline.py")
    assert proc.returncode == 0, proc.stderr
    assert "replay byte-identical: True" in proc.stdout
