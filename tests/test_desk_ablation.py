"""README's desk ablation table, rerun through the CLI.

The slow lane: each case is a full desk `ablate` (three 600-round fits,
about a minute at one BLAS thread), so it skips unless SRLGAN_SLOW=1
(`conftest.require_slow`).  Run it with

    SRLGAN_SLOW=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest -q -m slow
"""

import json

import pytest

from srlgan.cli import main
from synth import write_ml100k_like

from conftest import require_slow

# README's "Evaluation" table: S3's cold P@5 at model seeds 0, 1 and 2, to
# the three decimals it gives.
README_S3_COLD_P5 = {0: "0.467", 1: "0.463", 2: "0.467"}


@pytest.fixture(scope="module")
def desk_cache(tmp_path_factory):
    """README's desk fixture, prepared: m = 1682, items 401-1682 unrated."""
    require_slow()
    raw = write_ml100k_like(tmp_path_factory.mktemp("desk-raw"), n_users=300, n_items=400,
                            ratings_per_user=30, seed=3)
    out = tmp_path_factory.mktemp("desk-cache")
    assert main(["prepare", "--dataset", "ml100k", "--raw-dir", str(raw),
                 "--out-dir", str(out)]) == 0
    return out / "ml100k.npz"


@pytest.mark.slow
@pytest.mark.parametrize("seed", sorted(README_S3_COLD_P5))
def test_desk_ablate_gives_readmes_s3_cold_p5(desk_cache, tmp_path, seed):
    """README's desk `ablate` command at `--seed` 0, 1 and 2 gives the S3
    cold P@5 its table states."""
    out = tmp_path / "ablate"
    assert main(["ablate", "--cache", str(desk_cache), "--out-dir", str(out),
                 "--split-seed", "0", "--cold-fraction", "0.2", "--learning-rate", "1e-4",
                 "--n-e", "20", "--generator-hidden", "64,128",
                 "--discriminator-hidden", "128,32", "--max-rounds", "600",
                 "--seed", str(seed)]) == 0
    summary = json.loads((out / "ablation.summary.json").read_text())
    assert f"{summary['S3']['P@5']:.3f}" == README_S3_COLD_P5[seed], summary
