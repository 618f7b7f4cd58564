"""Smoke tests: every export resolves, and the demos run end to end."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vemse

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted("vemse" if p.stem == "__init__" else "vemse." + p.stem
                 for p in Path(vemse.__file__).parent.glob("*.py"))


def run_python(*args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def run_demo(name):
    return run_python(str(ROOT / "demos" / name))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_readme_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
    chans = np.stack([vemse.generate_ar(vemse.AR2, 2000, seed=(7, 0, c)) for c in range(2)])
    curve = vemse.vemse(vemse.MultichannelSeries(chans), vemse.EntropyParams(scales=range(1, 21)))
    assert proc.stdout == "".join("%s %s\n" % point for point in zip(curve.scales, curve.values))


def test_estimator_tour_demo_runs():
    proc = run_demo("01_estimator_tour.py")
    assert proc.returncode == 0, proc.stderr
    assert "tau   vemse    mmse" in proc.stdout


def test_noise_and_directionality_demo_runs():
    proc = run_demo("03_noise_and_directionality.py")
    assert proc.returncode == 0, proc.stderr
    assert "ar3+wgn20" in proc.stdout
    assert "channel-order reversal" in proc.stdout
    assert "wgn|ar1" in proc.stdout and "ar1|wgn" in proc.stdout


def test_record_pipeline_demo_replays_byte_identical():
    proc = run_demo("05_record_pipeline.py")
    assert proc.returncode == 0, proc.stderr
    assert "replay byte-identical: True" in proc.stdout


def test_an_mmse_compute_imports_no_scipy(tmp_path):
    # the package needs numpy alone; scipy is only the tests' oracle
    script = "\n".join([
        "import sys",
        "from vemse.cli import main",
        "assert main(['generate', '--kind', 'ar2', '--n', '600', '--channels', '3',",
        "             '--seed', '1', '--output', 'rec.csv']) == 0",
        "assert main(['compute', '--estimator', 'mmse', '--input', 'rec.csv',",
        "             '--scales', '1..3', '--output', 'curve.csv']) == 0",
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))",
    ])
    proc = run_python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "curve.csv").exists()
