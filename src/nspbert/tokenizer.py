"""WordPiece-style tokenization and the layout of every model input.

`Tokenizer.layout` writes every input: [CLS] A [SEP] B [SEP] for a pair,
with segment id 0 through A's separator and 1 for B and the terminal
separator, or [CLS] text [SEP] all in segment 0, padded to `max_len`.

One truncation rule holds for all of them: only the example's text is
cut, and it loses tokens from its end.  The prompt (template words, the
verbalization or its mask span, and a pair's sentence B) is never cut.
With a suffix template the text is sentence A; with a prefix template it
is sentence B, after the prompt.  In a suffix cloze the text loses tokens
from its start instead, so the words next to the masks stay.  An input
whose prompt leaves no room for one text token is refused.
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
    """Token ids plus segment ids, attention mask, and a cloze input's mask
    positions with the ids they hide.

    Inputs may share their arrays and lists: the cloze inputs of one text
    whose verbalizations have the same token length share all but
    `mask_targets`.  Nothing in the package writes into them."""

    ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    mask_positions: list = field(default_factory=list)
    mask_targets: list = field(default_factory=list)

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

    def encode_pair(self, a, b, max_len, text_in_b=False):
        """[CLS] A [SEP] B [SEP] + padding; the text is A, or B if
        `text_in_b`, and only it is cut."""
        pieces = [self.encode(a), self.encode(b)]
        return self.layout(pieces, max_len, text=int(text_in_b), split=1)

    def encode_single(self, text, max_len):
        """[CLS] text [SEP] + padding, all segment 0. Trims the end of text."""
        return self.layout([self.encode(text)], max_len)

    def layout(self, pieces, max_len, text=0, split=None, mask=None):
        """The one writer of a model input: the id lists `pieces` in order
        between [CLS] and [SEP], padded to `max_len`.

        A [SEP] and segment 1 start at piece `split`, if given.  Piece
        `text` is the example's text, the only piece ever cut; piece `mask`
        is written as [MASK]s whose positions and hidden ids are recorded.
        """
        v = self.vocab
        specials = 2 if split is None else 3
        kept = sum(map(len, pieces)) - len(pieces[text])
        room = max_len - specials - kept
        if room < 1:
            raise ValidationError(
                f"needs {kept} tokens but max_len {max_len} fits at most "
                f"{max_len - specials - 1}, and it is never truncated")
        ids, positions, targets, b_start = [v.cls_id], [], [], max_len
        for i, piece in enumerate(pieces):
            if i == split:
                ids.append(v.sep_id)
                b_start = len(ids)
            if i == text and len(piece) > room:
                # A cloze's text keeps the words next to its masks.
                cut_start = mask is not None and text < mask
                piece = piece[len(piece) - room:] if cut_start else piece[:room]
            if i == mask:
                positions = list(range(len(ids), len(ids) + len(piece)))
                piece, targets = [v.mask_id] * len(piece), list(piece)
            ids += piece
        ids.append(v.sep_id)
        n = len(ids)
        segs = np.zeros(max_len, dtype=np.int64)
        segs[b_start:n] = 1
        attn = np.zeros(max_len, dtype=np.int64)
        attn[:n] = 1
        ids += [v.pad_id] * (max_len - n)
        return EncodedPair(np.array(ids, dtype=np.int64), segs, attn, positions, targets)
