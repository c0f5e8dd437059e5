"""Each narrative demo and each README example works against the library in src/.

Demos and Python examples run; each `seculoc` command line parses into a campaign configuration.
"""

import dataclasses
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from seculoc.campaign import CampaignConfig
from seculoc.cli import _build_config, _parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


README_EXAMPLES = _blocks("python")
README_CLI = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("seculoc ")]
README_INI = [block for block in _blocks("ini") if block.startswith("# campaign.ini\n")]


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


def test_readme_has_cli_examples():
    assert README_CLI and len(README_INI) == 1


@pytest.mark.parametrize("line", README_CLI, ids=[f"line{i}" for i in range(len(README_CLI))])
def test_readme_cli_example_parses(line, tmp_path, monkeypatch):
    # A removed flag or a bad grid shown in the README fails here; no campaign runs.
    (tmp_path / "campaign.ini").write_text(README_INI[0])
    monkeypatch.chdir(tmp_path)
    args = _parser().parse_args(shlex.split(line, comments=True)[1:])
    _build_config(args.command, args)


def test_readme_names_every_campaign_knob_in_order():
    sentence = re.search(r"The knobs are (.*?)\.\s", README, flags=re.DOTALL).group(1)
    assert re.findall(r"`(\w+)`", sentence) == [f.name for f in dataclasses.fields(CampaignConfig)]
