"""Each narrative demo and each README Python example runs against the library in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                             flags=re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    # Run from a scratch directory: demo 04 writes its CSV to the working directory.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_has_python_examples():
    assert README_EXAMPLES


@pytest.mark.parametrize("code", README_EXAMPLES, ids=[f"block{i}" for i in range(len(README_EXAMPLES))])
def test_readme_example_runs(code, tmp_path):
    # A public name removed from the library fails here while the README still shows it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
