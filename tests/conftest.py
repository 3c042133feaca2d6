"""Shared fixtures: seasonality data and the trained smoke and sweep models.

The smoke model follows the small-scale setup used by the acceptance
suite (64-token vocabulary, 16-dim embeddings), and the sweep model is
criterion 8's; training each once per session keeps the heavier tests
affordable.
"""

import pytest

from isoprobe.kernels import single_kernel_series, table_dataset_specs
from isoprobe.model import TrainConfig, train
from isoprobe.numerics import RngStream
from isoprobe.tokenizer import TokenizerConfig, tokenize_windows

SEASONALITY_SEED = 42


@pytest.fixture(scope="session")
def seasonality_series():
    spec = dict(table_dataset_specs())["seasonality_2"]
    return single_kernel_series(spec, 1024, RngStream(SEASONALITY_SEED, 0))


@pytest.fixture(scope="session")
def smoke_model(seasonality_series):
    """(params, tok_cfg, train_cfg) trained on seasonality data."""
    tok_cfg = TokenizerConfig(vocab_size=64)
    cfg = TrainConfig(
        learning_rate=0.3,
        steps=4000,
        batch_size=32,
        context_length=16,
        horizon=4,
        seed=7,
    )
    windows = tokenize_windows(
        seasonality_series.values, tok_cfg, cfg.context_length, cfg.horizon
    )
    result = train(windows, cfg, dim=16, rank=8, layer_count=2, vocab_size=64)
    return result.params, tok_cfg, cfg


@pytest.fixture(scope="session")
def sweep_model(seasonality_series):
    """Default-vocabulary model for the directional sweeps: sigma = 0.05
    noise only moves tokens when bins are fine enough to notice it."""
    tok_cfg = TokenizerConfig(vocab_size=512)
    cfg = TrainConfig(
        learning_rate=0.2,
        steps=8000,
        batch_size=32,
        context_length=16,
        horizon=4,
        seed=7,
    )
    windows = tokenize_windows(
        seasonality_series.values, tok_cfg, cfg.context_length, cfg.horizon
    )
    result = train(windows, cfg, dim=16, rank=8, layer_count=2, vocab_size=512)
    return result.params, tok_cfg
