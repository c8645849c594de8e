"""seqrl: a self-contained sequence transcription toolkit.

A reverse-mode autodiff tape, an attention encoder-decoder over feature
frames, reward-shaped policy-gradient training on top of teacher forcing,
sampling/beam decoding, synthetic corpus tooling, and a CLI tying it
together. Everything is float64 and bitwise reproducible from (config, seed).
"""

from .autodiff import Tensor, backward, constant, no_grad, parameter, tensor
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint, validate_checkpoint
from .data import (CHAR32_GRAPHEMES, Corpus, Utterance, Vocabulary,
                   char32_vocabulary, default_vocabulary, generate_corpus,
                   generate_splits, load_corpus, prototype_matrix, save_corpus,
                   split_paths)
from .decoding import (Hypothesis, SampleBatch, beam_search, forced_decode,
                       greedy_decode, sample_sequences)
from .errors import ConfigError, ParseError, SchemaError, ToolkitError
from .model import (ModelConfig, default_max_len, encode, init_params,
                    param_shapes, sequence_log_prob)
from .objectives import RlConfig, rl_surrogate
from .rewards import (MovingStats, discounted_returns, edit_distance,
                      normalize_final, normalize_timewise,
                      prefix_edit_distances, step_rewards, total_reward)
from .training import (AdamState, EvalResult, MetricsRow, TrainConfig,
                       TrainResult, adam_update, evaluate, train_mle,
                       train_rl, write_metrics)

__version__ = "0.1.0"
