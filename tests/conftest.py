"""Shared fixtures. Thread caps must be set before numpy binds its BLAS."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from seqrl.data import default_vocabulary, generate_splits
from seqrl.model import ModelConfig, init_params
from seqrl import oracles


@pytest.fixture
def tiny_task():
    # fresh per test: gradient state on the params must not leak
    return oracles.make_tiny_task()


@pytest.fixture
def tiny_model():
    config = ModelConfig(vocab_size=4, feature_dim=3, enc_hidden=3, enc_layers=2,
                         subsample_layers=1, embed_dim=3, dec_hidden=4, mlp_hidden=3)
    return config, init_params(config, 5)


@pytest.fixture(scope="session")
def micro_corpus():
    """Tiny but learnable corpus for training and CLI tests."""
    vocab = default_vocabulary(3)
    splits = generate_splits(vocab, {"train": 6, "dev": 3}, (2, 4),
                             frames_per_symbol=4, noise_sigma=0.05, seed=9,
                             feature_dim=4)
    return vocab, splits["train"], splits["dev"]
