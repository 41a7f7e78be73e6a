"""Golden corpus: the program must reproduce `tests/golden/` exactly.

The corpus holds CLI bytes on the shipped configs and the optimize records
of seeded generated Ys.  After a deliberate change of outputs, regenerate it
with `PYTHONPATH=src python tests/golden/make_corpus.py` and review the diff.
A slice of the differential sweep (`tests/golden/sweep.py`) runs here too;
`PYTHONPATH=src python tests/golden/sweep.py --check` runs all of it.
"""

import json

import pytest

from golden.make_corpus import (CLI_DIR, CORPUS_SIZE, FEATURES, SHIPPED,
                                YS_DIR, cli_invocations, features,
                                optimize_records, run_cli, shipped_config)
from golden import sweep

Y_CONFIGS = sorted(YS_DIR.glob("y??.json"))


def _golden_text(path):
    return path.read_text(encoding="utf-8") if path.exists() else ""


@pytest.mark.parametrize("name", SHIPPED)
def test_cli_bytes_on_shipped_configs(name, tmp_path):
    exits = json.loads((CLI_DIR / "exits.json").read_text())
    grid = tmp_path / "grid.txt"
    for run, argv in cli_invocations(shipped_config(name), str(grid)):
        key = f"{name}.{run}"
        code, out, err = run_cli(argv)
        assert code == exits[key], key
        assert out == _golden_text(CLI_DIR / f"{key}.out"), key
        assert err == _golden_text(CLI_DIR / f"{key}.err"), key
        golden_grid = CLI_DIR / f"{key}.grid"
        assert grid.exists() == golden_grid.exists(), key
        if grid.exists():
            assert grid.read_bytes() == golden_grid.read_bytes(), key
            grid.unlink()


@pytest.mark.parametrize("path", Y_CONFIGS, ids=lambda p: p.stem)
def test_generated_y_optimize_records(path):
    want = json.loads(path.with_suffix(".optimize.json").read_text())
    assert optimize_records(json.loads(path.read_text())) == want


def test_corpus_covers_every_structure_and_regime():
    assert len(Y_CONFIGS) == CORPUS_SIZE
    covered = set()
    for path in Y_CONFIGS:
        records = json.loads(path.with_suffix(".optimize.json").read_text())
        covered |= features(json.loads(path.read_text()), records)
    assert covered == FEATURES


@pytest.mark.parametrize("block", sweep.TIER1_BLOCKS)
def test_sweep_slice_matches_its_pinned_digest(block):
    configs = sweep.blocks(sweep.scenario_configs())[block]
    assert sweep.block_digest(configs) == sweep.pinned()[block]
