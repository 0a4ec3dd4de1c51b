"""Few-shot NSP-tuning vs. standard fine-tuning.

Takes K labeled examples per class, turns each into one positive and
|Y|-1 negative prompt instances, and tunes the NSP head with binary
cross-entropy; compares against a fresh [CLS] classification head.

Run:  python3 demos/few_shot.py        (~6-8 minutes on one core)
"""

import numpy as np

from nspbert.corpus import SyntheticCorpusConfig, generate_corpus
from nspbert.harness import KShotSplit, kshot_split, make_synthetic_task, run_split
from nspbert.model import EncoderConfig, EncoderModel
from nspbert.pretrain import pretrain, vocab_from_documents
from nspbert.tuning import TuningConfig

K = 8
SEEDS = (13, 21)
STEPS = 2000

corpus_cfg = SyntheticCorpusConfig(seed=7)
docs = generate_corpus(corpus_cfg)
vocab = vocab_from_documents(docs)
base = EncoderModel(EncoderConfig.preset("micro", vocab_size=len(vocab)), seed=21)
print(f"pre-training for {STEPS} steps ...")
pretrain(base, docs, vocab, steps=STEPS, seed=21)

examples, task = make_synthetic_task(corpus_cfg, "topic", seed=1, n_documents=60)
rng = np.random.default_rng(0)

for seed in SEEDS:
    s = kshot_split(examples, K, seed)
    dev = [s.dev[i] for i in rng.choice(len(s.dev), 80, replace=False)]
    test = [s.test[i] for i in rng.choice(len(s.test), 120, replace=False)]
    split = KShotSplit(s.train, dev, test, seed)
    results = {
        variant: run_split(base, split, task, vocab,
                           TuningConfig(epochs=4, lr=1e-4, batch_size=8,
                                        variant=variant)).test_acc
        for variant in ("coupled_bce", "fine_tune")
    }
    print(f"seed {seed}: K={K} NSP-tuning {results['coupled_bce']:.3f}  "
          f"fine-tune baseline {results['fine_tune']:.3f}")
