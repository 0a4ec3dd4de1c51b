"""WordPiece-style tokenization and sentence-pair encoding.

Input layout for pairs is [CLS] A [SEP] B [SEP], with segment id 0 for
sentence A through its trailing separator and 1 for sentence B and the
terminal separator.  Truncation drops tokens from the end of sentence A
only, so prompt text placed in sentence B is never mutilated.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = [PAD, UNK, CLS, SEP, MASK]

_PUNCT_RE = re.compile(r"([^\w\s]|_)")


def pretokenize(text):
    """Lowercase, split punctuation into single characters, split on space."""
    text = _PUNCT_RE.sub(r" \1 ", text.lower())
    return text.split()


class Vocab:
    """Immutable token table. Special tokens occupy the lowest ids."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        if self.tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValidationError("vocab must begin with the special tokens")
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValidationError("vocab contains duplicate tokens")
        self.pad_id = self.index[PAD]
        self.unk_id = self.index[UNK]
        self.cls_id = self.index[CLS]
        self.sep_id = self.index[SEP]
        self.mask_id = self.index[MASK]

    def __len__(self):
        return len(self.tokens)

    @property
    def special_ids(self):
        return {self.pad_id, self.unk_id, self.cls_id, self.sep_id, self.mask_id}

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for t in self.tokens:
                f.write(t + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            try:
                tokens = [line.rstrip("\n") for line in f if line.strip()]
            except UnicodeDecodeError as e:
                raise ValidationError(f"vocab {path} is not UTF-8 text: {e}") from e
        return cls(tokens)


def build_vocab(corpus, max_size=8192, min_freq=1):
    """Frequency-ordered vocab from an iterable of text lines.

    Ties break lexicographically so rebuilding from the same corpus is
    deterministic.
    """
    counts = Counter()
    seen_any = False
    for line in corpus:
        seen_any = True
        counts.update(pretokenize(line))
    if not seen_any or not counts:
        raise ValidationError("cannot build a vocabulary from an empty corpus")
    candidates = [(-c, w) for w, c in counts.items() if c >= min_freq]
    candidates.sort()
    room = max_size - len(SPECIAL_TOKENS)
    return Vocab(SPECIAL_TOKENS + [w for _, w in candidates[:room]])


@dataclass
class EncodedPair:
    """Token ids plus segment ids, attention mask and recorded mask positions."""

    ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    mask_positions: list = field(default_factory=list)

    def __len__(self):
        return len(self.ids)


class Tokenizer:
    """Greedy longest-match WordPiece over a fixed vocab. Read-only."""

    def __init__(self, vocab):
        self.vocab = vocab

    def _wordpiece(self, word):
        if word in self.vocab.index:
            return [word]
        pieces = []
        start = 0
        while start < len(word):
            end = len(word)
            piece = None
            while start < end:
                sub = word[start:end]
                if start > 0:
                    sub = "##" + sub
                if sub in self.vocab.index:
                    piece = sub
                    break
                end -= 1
            if piece is None:
                return [UNK]
            pieces.append(piece)
            start = end
        return pieces

    def tokenize(self, text):
        out = []
        for word in pretokenize(text):
            out.extend(self._wordpiece(word))
        return out

    def encode(self, text):
        return [self.vocab.index[t] for t in self.tokenize(text)]

    def encode_pair(self, a, b, max_len):
        """[CLS] A [SEP] B [SEP] + padding. Overflow trims the end of A only."""
        if max_len < 8:
            raise ValidationError(f"max_len must be >= 8, got {max_len}")
        a_ids = self.encode(a)
        b_ids = self.encode(b)
        if len(b_ids) > max_len - 4:
            raise ValidationError(
                f"sentence B needs {len(b_ids)} tokens but only {max_len - 4} fit; "
                "prompts must never be truncated"
            )
        a_budget = max_len - 3 - len(b_ids)
        a_ids = a_ids[:a_budget]
        v = self.vocab
        ids = [v.cls_id] + a_ids + [v.sep_id] + b_ids + [v.sep_id]
        segs = [0] * (len(a_ids) + 2) + [1] * (len(b_ids) + 1)
        attn = [1] * len(ids)
        pad = max_len - len(ids)
        ids += [v.pad_id] * pad
        segs += [0] * pad
        attn += [0] * pad
        return EncodedPair(
            np.array(ids, dtype=np.int64),
            np.array(segs, dtype=np.int64),
            np.array(attn, dtype=np.int64),
        )

    def encode_single(self, text, max_len):
        """[CLS] text [SEP] + padding, all segment 0. Trims the end of text."""
        if max_len < 8:
            raise ValidationError(f"max_len must be >= 8, got {max_len}")
        ids = self.encode(text)[: max_len - 2]
        v = self.vocab
        full = [v.cls_id] + ids + [v.sep_id]
        attn = [1] * len(full)
        pad = max_len - len(full)
        full += [v.pad_id] * pad
        attn += [0] * pad
        return EncodedPair(
            np.array(full, dtype=np.int64),
            np.zeros(max_len, dtype=np.int64),
            np.array(attn, dtype=np.int64),
        )


def insert_masks(pair, span_start, span_len, mask_id, special_ids):
    """Replace a token span with [MASK] ids, recording the positions."""
    if span_start < 0 or span_start + span_len > len(pair.ids):
        raise ValidationError(
            f"mask span [{span_start}, {span_start + span_len}) outside sequence "
            f"of length {len(pair.ids)}"
        )
    span = range(span_start, span_start + span_len)
    for pos in span:
        if int(pair.ids[pos]) in special_ids:
            raise ValidationError(f"mask span covers a special token at position {pos}")
    ids = pair.ids.copy()
    ids[span_start : span_start + span_len] = mask_id
    return EncodedPair(
        ids,
        pair.segment_ids.copy(),
        pair.attention_mask.copy(),
        mask_positions=list(span),
    )
