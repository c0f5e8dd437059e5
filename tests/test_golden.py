"""Golden campaign CSVs: every CLI preset at a small fixed size, byte for byte.

The files under ``tests/golden/`` were written by the CLI itself, e.g.

    PYTHONPATH=src python -m seculoc rmse --n-deployments 5 --n-corruptions 2 \
        --seed 7 --out tests/golden/rmse.csv

A changed byte is a changed result: explain it, never rewrite the golden to
hide it.
"""

from pathlib import Path

import pytest

from seculoc.cli import _SUBCOMMANDS, main

GOLDEN = Path(__file__).parent / "golden"
SIZE = ["--n-deployments", "5", "--n-corruptions", "2", "--seed", "7"]


@pytest.mark.parametrize("preset", sorted(_SUBCOMMANDS))
def test_preset_csv_matches_golden(preset, tmp_path, capsys):
    out = tmp_path / f"{preset}.csv"
    assert main([preset, *SIZE, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{preset}.csv").read_bytes()
