"""Desk-scale NSP-based prompt learning.

A mini BERT-style encoder trained jointly on MLM and NSP over a
synthetic topic corpus, plus prompt construction, candidates-contrast /
samples-contrast answer mapping, NSP-tuning, and a K-shot evaluation
harness.
"""

from .corpus import SyntheticCorpusConfig, generate_corpus, sample_nsp_pairs
from .errors import (
    CheckpointError,
    DimensionError,
    DivergenceError,
    NspBertError,
    ValidationError,
)
from .harness import (
    DEFAULT_SEEDS,
    Example,
    ExperimentConfig,
    KShotSplit,
    evaluate,
    kshot_split,
    load_jsonl,
    make_synthetic_task,
    run_experiment,
    run_split,
)
from .model import EncoderConfig, EncoderModel, PRESETS
from .pretrain import nsp_accuracy, pretrain, vocab_from_documents
from .prompting import (
    PromptTemplate,
    TaskConfig,
    Verbalizer,
    render_pet,
    render_single,
)
from .scoring import (
    LabelDistribution,
    ScoredSample,
    Thresholds,
    apply_thresholds,
    emit_probability_histogram,
    pet_score,
    samples_contrast,
    score_candidates,
    thresholds_from_dev,
)
from .tensor import Adam, Tensor, backward, no_grad
from .tokenizer import Tokenizer, Vocab, build_vocab
from .tuning import TuningConfig, fine_tune_baseline, nsp_tune

__version__ = "0.1.0"
