"""Prompt templates, verbalizers, rendering, and task configs.

A template fills one sentence slot with a prompt containing the
verbalized label; the original text occupies the other slot (prefix
puts the prompt in sentence A, suffix in sentence B).  Rendering is
pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .tokenizer import EncodedPair, insert_masks

PREFIX, SUFFIX = "prefix", "suffix"


@dataclass
class Verbalizer:
    """Injective label -> phrase mapping; phrases may be arbitrarily long."""

    mapping: dict

    def __post_init__(self):
        if any(not phrase for phrase in self.mapping.values()):
            raise ValidationError("verbalizer phrases must be nonempty")
        if len(set(self.mapping.values())) != len(self.mapping):
            raise ValidationError("verbalizer must be injective")

    def __call__(self, label):
        if label not in self.mapping:
            raise ValidationError(f"unknown label {label!r}")
        return self.mapping[label]


@dataclass
class PromptTemplate:
    pattern: str  # contains {label} exactly once, never {text}
    position: str = SUFFIX

    def __post_init__(self):
        if self.pattern.count("{label}") != 1:
            raise ValidationError("template pattern must contain {label} exactly once")
        if "{text}" in self.pattern:
            raise ValidationError("template pattern must not contain {text}")
        if self.position not in (PREFIX, SUFFIX):
            raise ValidationError(f"position must be prefix or suffix, got {self.position!r}")


def render_single(x, template, verbalizer, label):
    """(sentence A, sentence B) for a single-sentence task."""
    prompt = template.pattern.format(label=verbalizer(label))
    if template.position == SUFFIX:
        return x, prompt
    return prompt, x


def render_pet(x, template, verbalizer, label, tokenizer, max_len):
    """Single-sequence cloze input: the verbalized span replaced by [MASK]s.

    Returns (encoded input with mask positions, target token ids of the
    verbalization, in order).
    """
    phrase = verbalizer(label)
    before, after = template.pattern.split("{label}")
    if template.position == SUFFIX:
        before = (x + " " + before).strip()
    else:
        after = (after + " " + x).strip()
    v = tokenizer.vocab
    before_ids = tokenizer.encode(before)
    target_ids = tokenizer.encode(phrase)
    after_ids = tokenizer.encode(after)
    if not target_ids:
        raise ValidationError(f"verbalization {phrase!r} tokenizes to nothing")
    needed = 2 + len(before_ids) + len(target_ids) + len(after_ids)
    if needed > max_len:
        # Trim the far end of the original text, never the prompt span.
        overflow = needed - max_len
        if template.position == SUFFIX:
            before_ids = before_ids[overflow:]
        else:
            after_ids = after_ids[: len(after_ids) - overflow]
    ids = [v.cls_id] + before_ids + target_ids + after_ids + [v.sep_id]
    attn = [1] * len(ids)
    pad = max_len - len(ids)
    ids += [v.pad_id] * pad
    attn += [0] * pad
    enc = EncodedPair(
        np.array(ids, dtype=np.int64),
        np.zeros(max_len, dtype=np.int64),
        np.array(attn, dtype=np.int64),
    )
    span_start = 1 + len(before_ids)
    masked = insert_masks(enc, span_start, len(target_ids), v.mask_id, v.special_ids)
    return masked, target_ids


# The task type each evaluation mode, and NSP-tuning, runs on: candidate
# modes render one prompt per label around a single text; pair-scoring
# modes read the IsNext probability of (text_a, text_b).
MODE_TASK_TYPE = {
    "zero_shot_nsp": "single",
    "zero_shot_pet": "single",
    "tuned": "single",
    "nsp_tune": "single",
    "samples_contrast": "pair",
    "thresholds": "pair",
}


@dataclass
class TaskConfig:
    """Task description: shape, labels, template, verbalizer, mapping options."""

    task_type: str  # single | pair
    labels: list
    template: PromptTemplate | None = None
    verbalizer: Verbalizer | None = None
    mapping: dict = field(default_factory=lambda: {"strategy": "candidates_contrast",
                                                   "order": "ascending",
                                                   "batch_size": 16})
    max_len: int = 48
    k_shot: int = 16

    def __post_init__(self):
        if self.task_type not in ("single", "pair"):
            raise ValidationError(f"unknown task_type {self.task_type!r}")
        if self.task_type in ("single",) and (self.template is None or self.verbalizer is None):
            raise ValidationError("single-sentence tasks need a template and verbalizer")
        if self.verbalizer is not None:
            missing = [l for l in self.labels if l not in self.verbalizer.mapping]
            if missing:
                raise ValidationError(f"verbalizer missing labels: {missing}")
        if len(self.labels) < 2:
            raise ValidationError(f"a task needs at least 2 labels, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"task labels must be unique: {self.labels}")
        if self.k_shot < 1:
            raise ValidationError(f"k_shot must be >= 1, got {self.k_shot}")

    def check_mode(self, mode):
        """Reject a mode that cannot run on this task type."""
        need = MODE_TASK_TYPE[mode]
        if self.task_type != need:
            raise ValidationError(
                f"mode {mode!r} needs a {need!r} task, not task_type {self.task_type!r}")

    def to_dict(self):
        d = {"task_type": self.task_type, "labels": self.labels,
             "mapping": self.mapping, "max_len": self.max_len, "k_shot": self.k_shot}
        if self.template is not None:
            d["template"] = {"pattern": self.template.pattern,
                             "position": self.template.position}
        if self.verbalizer is not None:
            d["verbalizer"] = self.verbalizer.mapping
        return d

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)

    @classmethod
    def from_dict(cls, d):
        template = None
        if "template" in d:
            template = PromptTemplate(d["template"]["pattern"],
                                      d["template"].get("position", SUFFIX))
        verbalizer = Verbalizer(d["verbalizer"]) if "verbalizer" in d else None
        return cls(
            task_type=d["task_type"],
            labels=list(d["labels"]),
            template=template,
            verbalizer=verbalizer,
            mapping=d.get("mapping", {"strategy": "candidates_contrast",
                                      "order": "ascending", "batch_size": 16}),
            max_len=d.get("max_len", 48),
            k_shot=d.get("k_shot", 16),
        )

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            try:
                return cls.from_dict(json.load(f))
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                raise ValidationError(f"malformed task config {path!r}: {e}") from e
