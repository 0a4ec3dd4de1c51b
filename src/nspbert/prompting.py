"""Prompt templates, verbalizers, rendering, and task configs.

A template fills one sentence slot with a prompt containing the
verbalized label; the original text occupies the other slot (prefix
puts the prompt in sentence A, suffix in sentence B).  Rendering is
pure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .errors import ValidationError, from_json, read_json

PREFIX, SUFFIX = "prefix", "suffix"


@dataclass
class Verbalizer:
    """Injective label -> phrase mapping; phrases may be arbitrarily long."""

    mapping: dict[str, str]

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
        try:
            self.pattern.format(label="")
        except (AttributeError, IndexError, KeyError, ValueError) as e:
            raise ValidationError(f"template pattern {self.pattern!r} does not format: "
                                  f"{e!r}") from e
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
    The input records their positions and the verbalization's ids, in order."""
    phrase = verbalizer(label)
    target_ids = tokenizer.encode(phrase)
    if not target_ids:
        raise ValidationError(f"verbalization {phrase!r} tokenizes to nothing")
    if not tokenizer.vocab.special_ids.isdisjoint(target_ids):
        raise ValidationError(f"verbalization {phrase!r} has a word outside the vocabulary")
    before, after = (tokenizer.encode(s) for s in template.pattern.split("{label}"))
    text = tokenizer.encode(x)
    try:
        if template.position == SUFFIX:
            return tokenizer.layout([text, before, target_ids, after], max_len, text=0, mask=2)
        return tokenizer.layout([before, target_ids, after, text], max_len, text=3, mask=1)
    except ValidationError as e:
        raise ValidationError(f"the prompt {e}") from e


# The task type each evaluation mode, and NSP-tuning, runs on: candidate
# modes render one prompt per label around a single text; pair-scoring
# modes read the IsNext probability of (text_a, text_b).
MODE_TASK_TYPE = {
    "zero_shot_nsp": "single",
    "zero_shot_pet": "single",
    "nsp_tune": "single",
    "samples_contrast": "pair",
    "thresholds": "pair",
}


@dataclass
class AnswerMapping:
    """A task's `mapping` options, which samples-contrast reads.  `strategy`
    is only recorded: the eval mode picks the mapping."""

    strategy: str = "candidates_contrast"
    order: str = "ascending"
    batch_size: int = 16


@dataclass
class TaskConfig:
    """Task description: shape, labels, template, verbalizer, mapping options."""

    task_type: str  # single | pair
    labels: list[str]
    template: PromptTemplate | None = None
    verbalizer: Verbalizer | None = None
    mapping: dict = field(default_factory=lambda: asdict(AnswerMapping()))
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
        if self.max_len < 8:
            raise ValidationError(f"max_len must be >= 8, got {self.max_len}")
        self.answer_mapping()

    def answer_mapping(self):
        """The `mapping` options, with defaults for the keys it leaves out."""
        return from_json(AnswerMapping, self.mapping, "mapping")

    def check_mode(self, mode):
        """Reject a mode that cannot run on this task type."""
        need = MODE_TASK_TYPE[mode]
        if self.task_type != need:
            raise ValidationError(
                f"mode {mode!r} needs a {need!r} task, not task_type {self.task_type!r}")

    def to_dict(self):
        """The JSON form that `load` reads."""
        d = {key: value for key, value in asdict(self).items() if value is not None}
        if self.verbalizer is not None:
            d["verbalizer"] = self.verbalizer.mapping
        return d

    @classmethod
    def load(cls, path):
        d = read_json(path, "task config")
        # The JSON form of a verbalizer is its label -> phrase object.
        if isinstance(d, dict) and d.get("verbalizer") is not None:
            d = {**d, "verbalizer": {"mapping": d["verbalizer"]}}
        return from_json(cls, d, "task config")
