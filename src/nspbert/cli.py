"""Command-line entry points.

Exit codes: 0 success, 2 validation error (bad input/config), 3
training divergence.  Models needing a vocabulary look for it at
"<checkpoint>.vocab" (one token per line).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys

import click

from .corpus import SyntheticCorpusConfig, generate_corpus, load_corpus, save_corpus
from .errors import DivergenceError, NspBertError, ValidationError, from_json, read_json
from .harness import (
    ABLATION_FIELDS,
    DEFAULT_SEEDS,
    EVAL_MODES,
    ExperimentConfig,
    evaluate,
    kshot_split,
    load_jsonl,
    mean_std,
    run_experiment,
    run_split,
)
from .model import EncoderConfig, EncoderModel
from .prompting import TaskConfig
from .pretrain import PretrainConfig, pretrain as run_pretrain, vocab_from_documents
from .scoring import (
    LabelDistribution,
    emit_probability_histogram,
    load_scored_jsonl,
    samples_contrast,
)
from .tokenizer import Vocab
from .tuning import VARIANTS, TuningConfig


@dataclasses.dataclass
class ReportConfig:
    """The `report` command's experiment config: one flat JSON object whose
    tuning options default to `TuningConfig`'s."""

    task: str  # task-config path
    data: str
    mode: str  # "nsp_tuning" | "fine_tune" | an eval mode
    checkpoint: str | None = None  # None: --checkpoint
    k: int | None = None  # None: the task's k_shot
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    epochs: int = TuningConfig.epochs
    lr: float = TuningConfig.lr
    batch_size: int = TuningConfig.batch_size
    variant: str = TuningConfig.variant

    def __post_init__(self):
        if not self.seeds or min(self.seeds) < 0:
            raise ValidationError(f"seeds must be a nonempty list of integers >= 0, "
                                  f"got {list(self.seeds)}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"lr must be a finite number > 0, got {self.lr}")


@click.group()
@click.option("--config", type=click.Path(), default=None, help="Config file path.")
@click.option("--seed", type=click.IntRange(min=0), default=0, help="Random seed.")
@click.option("--checkpoint", type=click.Path(), default=None, help="Model checkpoint.")
@click.option("--out", type=click.Path(), default=None, help="Output path.")
@click.pass_context
def cli(ctx, config, seed, checkpoint, out):
    ctx.obj = {"config": config, "seed": seed, "checkpoint": checkpoint, "out": out}


def _load_json(path):
    return {} if path is None else read_json(path, "config")


def _load(checkpoint):
    """The model at `checkpoint` and the vocab at "<checkpoint>.vocab",
    refused unless it has the model's vocab_size."""
    vocab = Vocab.load(checkpoint + ".vocab")
    model = EncoderModel.load_checkpoint(checkpoint)
    size = model.config.vocab_size
    if len(vocab) != size:
        raise ValidationError(f"{checkpoint}.vocab has {len(vocab)} tokens but "
                              f"checkpoint {checkpoint!r} has vocab_size {size}")
    return model, vocab


def _require(ctx, key):
    val = ctx.obj.get(key)
    if val is None:
        raise ValidationError(f"--{key} is required for this command")
    return val


@cli.command("gen-corpus")
@click.pass_context
def gen_corpus(ctx):
    """Generate a synthetic topic corpus as JSONL."""
    cfg = from_json(SyntheticCorpusConfig, _load_json(ctx.obj["config"]), "corpus config")
    cfg = dataclasses.replace(cfg, seed=ctx.obj["seed"])
    docs = generate_corpus(cfg)
    out = _require(ctx, "out")
    save_corpus(docs, out)
    click.echo(f"wrote {len(docs)} documents to {out}")


@cli.command("pretrain")
@click.option("--corpus", "corpus_path", type=click.Path(exists=True), default=None,
              help="Corpus JSONL; generated on the fly when omitted.")
@click.pass_context
def pretrain_cmd(ctx, corpus_path):
    """Pre-train a model on MLM + NSP and write a checkpoint."""
    cfg = from_json(PretrainConfig, _load_json(ctx.obj["config"]), "pretrain config")
    if corpus_path:
        docs = load_corpus(corpus_path)
    else:
        docs = generate_corpus(dataclasses.replace(cfg.corpus, seed=ctx.obj["seed"]))
    vocab = vocab_from_documents(docs)
    model = EncoderModel(EncoderConfig.preset(cfg.preset, vocab_size=len(vocab)),
                         seed=ctx.obj["seed"])
    trace = run_pretrain(model, docs, vocab, steps=cfg.steps, batch_size=cfg.batch_size,
                         lr=cfg.lr, seed=ctx.obj["seed"], max_len=cfg.max_len,
                         mask_rate=cfg.mask_rate)
    out = _require(ctx, "out")
    model.save_checkpoint(out)
    vocab.save(out + ".vocab")
    with open(out + ".trace.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=["step", "total", "mlm", "nsp"])
        writer.writeheader()
        writer.writerows(trace)
    click.echo(f"trained {len(trace)} steps; final loss {trace[-1]['total']:.4f}; "
               f"checkpoint at {out}")


@cli.command("eval-zeroshot")
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--mode", type=click.Choice(EVAL_MODES), default="zero_shot_nsp")
@click.pass_context
def eval_zeroshot(ctx, data, mode):
    """Zero-shot evaluation of a dataset against a task config."""
    task = TaskConfig.load(_require(ctx, "config"))
    model, vocab = _load(_require(ctx, "checkpoint"))
    examples = load_jsonl(data, task)
    dev = None
    if mode in ("samples_contrast", "thresholds"):
        split = kshot_split(examples, task.k_shot, ctx.obj["seed"])
        examples, dev = split.test, split.dev
    acc = evaluate(model, vocab, examples, task, mode, dev=dev)
    result = {"mode": mode, "accuracy": acc, "n": len(examples)}
    if ctx.obj["out"]:
        with open(ctx.obj["out"], "w", encoding="utf-8") as f:
            json.dump(result, f, indent=2)
    click.echo(json.dumps(result))


@cli.command("map-samples")
@click.option("--scored", type=click.Path(exists=True), required=True,
              help="Scored-sample JSONL with gold labels on dev rows.")
@click.pass_context
def map_samples(ctx, scored):
    """Apply samples-contrast mapping to a scored-sample file."""
    task = TaskConfig.load(_require(ctx, "config"))
    samples = load_scored_jsonl(scored)
    if any(isinstance(s.q, list) for s in samples):
        raise ValidationError(f"{scored}: samples-contrast needs one probability q per sample")
    dist = LabelDistribution.from_gold([s.gold for s in samples if s.gold is not None],
                                       task.labels)
    mapping = task.answer_mapping()
    labels = samples_contrast(samples, mapping.order, dist, mapping.batch_size)
    out = _require(ctx, "out")
    with open(out, "w", encoding="utf-8") as f:
        for s, label in zip(samples, labels):
            f.write(json.dumps({"id": s.sample_id, "label": label}) + "\n")
    click.echo(f"mapped {len(samples)} samples to {out}")


def _tune(ctx, data, variant):
    """Tune on the K-shot split of --seed; save the tuned model to --out."""
    task = TaskConfig.load(_require(ctx, "config"))
    model, vocab = _load(_require(ctx, "checkpoint"))
    split = kshot_split(load_jsonl(data, task), task.k_shot, ctx.obj["seed"])
    run = run_split(model, split, task, vocab, TuningConfig(variant=variant))
    out = _require(ctx, "out")
    run.tuned.model.save_checkpoint(out)
    vocab.save(out + ".vocab")
    click.echo(json.dumps({"variant": variant, "best_epoch": run.epoch,
                           "test_accuracy": run.test_acc}))


@cli.command("nsp-tune")
@click.option("--data", type=click.Path(exists=True), required=True)
@click.option("--variant", type=click.Choice(list(VARIANTS)), default=TuningConfig.variant)
@click.pass_context
def nsp_tune_cmd(ctx, data, variant):
    """NSP-tuning on a K-shot split of the dataset."""
    _tune(ctx, data, variant)


@cli.command("fine-tune")
@click.option("--data", type=click.Path(exists=True), required=True)
@click.pass_context
def fine_tune_cmd(ctx, data):
    """Standard fine-tuning baseline (fresh [CLS] head, no templates)."""
    _tune(ctx, data, "fine_tune")


@cli.command("ablate")
@click.option("--data", type=click.Path(exists=True), required=True)
@click.pass_context
def ablate(ctx, data):
    """Run all tuning variants over the default seed suite; emit a CSV."""
    task = TaskConfig.load(_require(ctx, "config"))
    model, vocab = _load(_require(ctx, "checkpoint"))
    examples = load_jsonl(data, task)
    splits = [kshot_split(examples, task.k_shot, s) for s in DEFAULT_SEEDS]
    out = _require(ctx, "out")
    with open(out, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=ABLATION_FIELDS)
        writer.writeheader()
        for variant in VARIANTS:
            runs = [run_split(model, split, task, vocab, TuningConfig(variant=variant))
                    for split in splits]
            writer.writerows(run.row() for run in runs)
            mean, std = mean_std([run.test_acc for run in runs])
            click.echo(f"{variant}: mean={mean:.4f} std={std:.4f}")
    click.echo(f"wrote {out}")


@cli.command("report")
@click.pass_context
def report(ctx):
    """Run a multi-seed experiment from a config file; emit CSV + JSON."""
    cfg = from_json(ReportConfig, _load_json(_require(ctx, "config")), "experiment config")
    task = TaskConfig.load(cfg.task)
    examples = load_jsonl(cfg.data, task)
    checkpoint = cfg.checkpoint or _require(ctx, "checkpoint")
    model, vocab = _load(checkpoint)
    exp = ExperimentConfig(
        mode=cfg.mode, checkpoint=checkpoint, task=task, data=examples,
        k=task.k_shot if cfg.k is None else cfg.k, seeds=cfg.seeds,
        tuning=TuningConfig(cfg.epochs, cfg.lr, cfg.batch_size, cfg.variant),
    )
    rep = run_experiment(exp, model, vocab)
    out = _require(ctx, "out")
    rep.to_json(out + ".json")
    rep.to_csv(out + ".csv")
    click.echo(f"mean={rep.mean:.4f} std={rep.std:.4f}; wrote {out}.json / {out}.csv")


@cli.command("histogram")
@click.option("--scored", type=click.Path(exists=True), required=True)
@click.option("--bins", type=int, default=20)
@click.pass_context
def histogram(ctx, scored, bins):
    """Bin the IsNext probabilities of a scored-sample file into a CSV."""
    samples = load_scored_jsonl(scored)
    qs = []
    for s in samples:
        qs.extend(s.q if isinstance(s.q, list) else [s.q])
    out = _require(ctx, "out")
    emit_probability_histogram(qs, bins, out)
    click.echo(f"wrote {out}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as e:
        sys.exit(e.exit_code)
    except click.BadParameter as e:
        click.echo(f"error: {e.format_message()}", err=True)
        sys.exit(2)
    except click.ClickException as e:
        e.show()
        sys.exit(2)
    except click.Abort:
        sys.exit(2)
    except (ValidationError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    except DivergenceError as e:
        click.echo(f"training diverged: {e}", err=True)
        sys.exit(3)
    except NspBertError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
