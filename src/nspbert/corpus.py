"""Synthetic topic corpus and NSP/MLM example construction.

Documents are bags of synthetic word types: each document has a topic
and draws its content tokens from the topic lexicon (with probability
`concentration`) or from a shared lexicon.  The shared lexicon is
partitioned into style clusters and each document sticks to one, so
sentence adjacency carries a topic-independent signal and NSP is
learnable beyond pure topic matching.  Topic tags are carried for
downstream task construction only; pre-training never reads them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_type, read_jsonl

ISNEXT_LABEL = "IsNext"
NOTNEXT_LABEL = "NotNext"


@dataclass
class SyntheticCorpusConfig:
    n_topics: int = 4
    words_per_topic: int = 40
    shared_words: int = 120
    n_documents: int = 400
    sentences_per_document: int = 8
    sentence_len_min: int = 5
    sentence_len_max: int = 12
    concentration: float = 0.5
    # Each document draws its topic tokens from a subset of this many
    # lexicon words; 0 means the full topic lexicon.
    words_per_document: int = 0
    # Partition the shared lexicon into this many style clusters; each
    # document draws its shared tokens from a single cluster.  Styles
    # recur across documents and are independent of topic, so sentence
    # adjacency carries a signal that topic matching cannot shortcut.
    # 0 disables styles (shared tokens come from the full pool).
    shared_styles: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_topics", 1), ("words_per_topic", 1), ("shared_words", 1),
                          ("n_documents", 1), ("sentences_per_document", 1),
                          ("sentence_len_min", 1), ("words_per_document", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValidationError(f"corpus config {name} must be >= {low}, "
                                      f"got {getattr(self, name)}")
        if self.sentence_len_max < self.sentence_len_min:
            raise ValidationError(f"corpus config sentence_len_max {self.sentence_len_max} "
                                  f"is below sentence_len_min {self.sentence_len_min}")
        if not 0.0 <= self.concentration <= 1.0:
            raise ValidationError(f"concentration must be in [0, 1], got {self.concentration}")
        if not 0 <= self.shared_styles <= self.shared_words:
            raise ValidationError(f"corpus config shared_styles must be in [0, shared_words "
                                  f"{self.shared_words}], got {self.shared_styles}")

    def topic_lexicon(self, topic):
        return [f"t{topic}w{j:02d}" for j in range(self.words_per_topic)]

    def shared_lexicon(self):
        return [f"com{j:03d}" for j in range(self.shared_words)]


@dataclass
class Document:
    doc_id: str
    topic: int
    sentences: list


@dataclass
class NspPairExample:
    text_a: str
    text_b: str
    label: str  # IsNext / NotNext
    a_doc: str = ""
    a_index: int = -1
    b_doc: str = ""
    b_index: int = -1


def generate_corpus(cfg, id_prefix="doc"):
    """Deterministic synthetic corpus; one topic tag per document."""
    rng = np.random.default_rng(cfg.seed)
    random, integers = rng.random, rng.integers
    all_shared = cfg.shared_lexicon()
    lexicons = [cfg.topic_lexicon(topic) for topic in range(cfg.n_topics)]
    docs = []
    for d in range(cfg.n_documents):
        topic = int(integers(cfg.n_topics))
        lexicon = lexicons[topic]
        if cfg.words_per_document and cfg.words_per_document < len(lexicon):
            picks = rng.choice(len(lexicon), size=cfg.words_per_document, replace=False)
            lexicon = [lexicon[i] for i in picks]
        shared = all_shared
        if cfg.shared_styles > 1:
            size = len(all_shared) // cfg.shared_styles
            style = int(integers(cfg.shared_styles))
            shared = all_shared[style * size : (style + 1) * size]
        sentences = []
        for _ in range(cfg.sentences_per_document):
            n = int(integers(cfg.sentence_len_min, cfg.sentence_len_max + 1))
            sentences.append(" ".join([
                lexicon[integers(len(lexicon))] if random() < cfg.concentration
                else shared[integers(len(shared))] for _ in range(n)]))
        docs.append(Document(f"{id_prefix}-{d}", topic, sentences))
    return docs


def save_corpus(documents, path):
    with open(path, "w", encoding="utf-8") as f:
        for doc in documents:
            f.write(json.dumps({"topic": doc.topic, "sentences": doc.sentences}) + "\n")


def load_corpus(path, id_prefix="doc"):
    docs = []
    for lineno, rec in read_jsonl(path, "document"):
        where = f"{path}:{lineno}"
        docs.append(Document(f"{id_prefix}-{lineno - 1}",
                             check_type(int, rec.get("topic"), f"{where}: topic"),
                             check_type(list[str], rec.get("sentences"), f"{where}: sentences")))
    return docs


def sample_nsp_pair(documents, rng):
    """One pair: 50% adjacent sentences (IsNext), 50% cross-document (NotNext)."""
    di = int(rng.integers(len(documents)))
    doc = documents[di]
    ai = int(rng.integers(len(doc.sentences) - 1))
    if rng.random() < 0.5:
        return NspPairExample(doc.sentences[ai], doc.sentences[ai + 1], ISNEXT_LABEL,
                              doc.doc_id, ai, doc.doc_id, ai + 1)
    other = int(rng.integers(len(documents) - 1))
    if other >= di:
        other += 1
    odoc = documents[other]
    bi = int(rng.integers(len(odoc.sentences)))
    return NspPairExample(doc.sentences[ai], odoc.sentences[bi], NOTNEXT_LABEL,
                          doc.doc_id, ai, odoc.doc_id, bi)


def sample_nsp_pairs(documents, n, seed):
    if any(len(d.sentences) < 2 for d in documents):
        raise ValidationError("every document needs at least 2 sentences for NSP pairs")
    if len(documents) < 2:
        raise ValidationError("need at least 2 documents for NotNext sampling")
    rng = np.random.default_rng(seed)
    return [sample_nsp_pair(documents, rng) for _ in range(n)]


def mask_tokens(ids, rate, rng, mask_id, special_ids, vocab_size):
    """BERT-style masking: select ~rate of non-special positions; of the
    selected, 80% become [MASK], 10% a random regular token, 10% stay.

    Returns (masked ids, positions, original target ids).
    """
    if not 0.0 <= rate < 1.0:
        raise ValidationError(f"mask rate must be in [0, 1), got {rate}")
    masked = ids.copy()
    positions, targets = [], []
    for pos, tok in enumerate(ids):
        tok = int(tok)
        if tok in special_ids:
            continue
        if rng.random() >= rate:
            continue
        positions.append(pos)
        targets.append(tok)
        r = rng.random()
        if r < 0.8:
            masked[pos] = mask_id
        elif r < 0.9:
            masked[pos] = int(rng.integers(max(special_ids) + 1, vocab_size))
        # else: keep the original token
    return masked, positions, targets
