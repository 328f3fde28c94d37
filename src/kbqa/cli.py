"""Command-line entry point.

Verbs: build-index, train, eval, ask, gradcheck, tune, benchmark.
Each option is one row of OPTIONS: the verbs that read it, its help, its
parser (which owns its range) and its default.  The rows give every verb
its flags, read_config its keys and parse_args its defaults, so a flag and
its config key accept the same values.  Options may come from a flat
key=value config file (--config); explicit command-line flags always win.
A bad value exits 2 while the command line is parsed, before any data
file is read.  Exit codes: 0 success, 1 domain error (bad data, missing
model file), 2 usage error.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable

from .corpus import (
    load_embeddings,
    load_facts,
    load_questions,
    random_embedding_table,
    split_dataset,
)
from .artifact import text_lines
from .errors import ParseError, QAError, UsageError
from .evaluation import basin_hop_tune, benchmark_training, evaluate
from .gradsuite import run_gradcheck_suite
from .index import build_entity_index, build_reach_index, load_indexes, save_indexes
from .model_io import load_model, save_model
from .models import (
    BASELINE_KINDS,
    NEURAL_KINDS,
    TASKS,
    RelationLabelSpace,
    build_model,
    default_descriptor,
    train,
)
from .neural.config import TrainConfig
from .neural.optim import OPTIMIZER_KINDS, make_optimizer
from .pipeline import answer, build_structured_query
from .textproc import load_pos_lexicon

__all__ = ["Command", "OPTIONS", "Option", "main", "parse_args", "read_config", "run"]


# -- value parsers: text -> value, or ValueError saying what is wrong ---------


def _number(kind: type, low=None, strict: bool = False, below=None):
    """Parser for one int or finite float that is >= low (> low if
    strict) and < below."""
    noun = "an integer" if kind is int else "a finite number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or (kind is float and not math.isfinite(value)):
            raise ValueError(f"expected {noun}, got {text!r}")
        if low is not None and (value < low or (strict and value == low)):
            raise ValueError(f"must be {'>' if strict else '>='} {low}, got {value}")
        if below is not None and value >= below:
            raise ValueError(f"must be < {below}, got {value}")
        return value

    return parse


_positive = _number(float, 0, strict=True)
_non_negative = _number(float, 0)
_rate = _number(float, 0, below=1)


def _choice(*options: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {text!r}")
        return text

    return parse


def _switch(text: str) -> bool:
    if text not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected 1/true/yes or 0/false/no")
    return text in ("1", "true", "yes")


def _listed(item):
    """Parser for comma-separated values that item accepts, as a tuple."""
    return lambda text: tuple(item(part) for part in text.split(","))


def _ratios(text: str) -> tuple[float, float, float]:
    """train,valid,test: the rule split_dataset applies."""
    ratios = _listed(_non_negative)(text)
    if len(ratios) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"must sum to 1, got {text!r}")
    return ratios


_KINDS = NEURAL_KINDS + BASELINE_KINDS


def _kind(text: str) -> str:
    kind = text.upper()
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {text!r}")
    return kind


def _kinds(text: str) -> tuple[str, ...]:
    kinds = tuple(_kind(part.strip()) for part in text.split(",") if part.strip())
    if len(kinds) < 2:
        raise ValueError(f"expected at least two model kinds, got {text!r}")
    return kinds


# tune's dimensions; a value follows the rule of the option it sets
_TUNING = {
    "learning_rate": _positive,
    "l1_activity": _non_negative,
    "dropout": _rate,
    "hidden_ratio": _positive,
}


def _dimension(text: str) -> tuple[str, list]:
    key, sep, values = text.partition("=")
    if not sep:
        raise ValueError(f"expected KEY=V1,V2,..., got {text!r}")
    if key not in _TUNING:
        raise ValueError(f"unknown tuning dimension {key!r}, expected one of {', '.join(_TUNING)}")
    return key, list(_listed(_TUNING[key])(values))


# -- the option table ---------------------------------------------------------


@dataclass(frozen=True)
class Option:
    """One option of `qa`.  An option with a parser is also a config key,
    unless it may be repeated; one without is a path or text, given as a
    flag only."""

    verbs: tuple[str, ...]
    help: str
    parse: Callable[[str], Any] | None = None
    default: Any = None
    required: tuple[str, ...] = ()  # verbs that need a value
    repeat: bool = False  # each use of the flag adds one value to a list
    # a bad flag value makes main return 2 with `error: --flag: reason`,
    # where argparse would print its usage and raise SystemExit(2)
    plain_error: bool = False

    @property
    def key(self) -> bool:
        return self.parse is not None and not self.repeat


_VERBS = {
    "build-index": "build and save the retrieval indexes",
    "train": "train a model and save it",
    "eval": "evaluate models and write an accuracy report",
    "ask": "answer one question",
    "gradcheck": "finite-difference check of every architecture",
    "tune": "basin-hopping hyper-parameter search",
    "benchmark": "compare training cost across model kinds",
}
_ALL = tuple(_VERBS)
_DATA = ("train", "eval", "tune", "benchmark")  # verbs that load and split questions
_FIT = ("train", "tune", "benchmark")  # verbs that train models
_TRAIN = ("train", "tune")
_QUERY = ("eval", "ask")  # verbs that query an index

OPTIONS = {
    "config": Option(_ALL, "flat key=value config file"),
    "seed": Option(_ALL, "seed of all randomness", _number(int), 13),
    "facts": Option(("build-index",) + _DATA, "facts file", required=_ALL),
    "aliases": Option(("build-index",) + _DATA, "aliases file", required=_ALL),
    "questions": Option(_DATA, "questions file", required=_ALL),
    "ratios": Option(_DATA, "train,valid,test ratios", _ratios, (0.7, 0.1, 0.2), plain_error=True),
    "skip_unmatched": Option(_DATA, "drop questions no alias matches", _switch, False),
    "task": Option(_FIT, "ENTITY or RELATION", _choice(*TASKS), required=_TRAIN),
    "kind": Option(_TRAIN, ", ".join(_KINDS), _kind, required=_TRAIN, plain_error=True),
    "hidden": Option(_TRAIN, "layer sizes, comma-separated", _listed(_number(int, 1))),
    "dropout": Option(_TRAIN, "dropout rates, comma-separated", _listed(_rate)),
    "desk_scale": Option(_FIT, "divide the hidden sizes by this", _number(int, 1), 1),
    "noun_filter": Option(_FIT, "feed the model noun-filtered questions", _switch),
    "max_len": Option(_FIT, "tokens read per question", _number(int, 1), 36),
    "embeddings": Option(_FIT, "pretrained embedding file"),
    "embedding_dim": Option(_FIT, "embedding width", _number(int, 1), 50),
    "lexicon": Option(_DATA + ("ask",), "token<TAB>TAG POS lexicon file"),
    "epochs": Option(_FIT, "training epochs", _number(int, 0), 5),
    "batch_size": Option(_FIT, "questions per training step", _number(int, 1), 16),
    "learning_rate": Option(_FIT, "optimizer step size", _positive, 0.0007),
    "optimizer": Option(_FIT, ", ".join(OPTIMIZER_KINDS), _choice(*OPTIMIZER_KINDS),
                        "ADAM_COUPLED"),
    "weight_decay": Option(_FIT, "Adam weight decay", _non_negative, 0.0),
    "l1_activity": Option(_FIT, "L1 penalty on activations", _non_negative, 0.0),
    "alpha": Option(_TRAIN, "Naive Bayes add-alpha smoothing", _positive, 1.0),
    "freeze_embeddings": Option(_FIT, "keep the embedding table fixed", _switch, True),
    "out": Option(("build-index", "train"), "output file", required=_ALL),
    "index": Option(_QUERY, "index file", required=_ALL),
    "entity_model": Option(_QUERY, "entity model file", required=("ask",)),
    "relation_model": Option(_QUERY, "relation model file", required=("ask",)),
    "split": Option(("eval",), "train, valid, test or all",
                    _choice("train", "valid", "test", "all"), "test"),
    "k": Option(_QUERY, "entity candidates per question", _number(int, 1), 50),
    "report_out": Option(("eval",), "prefix for the .txt/.tsv report files"),
    "question": Option(("ask",), "question text", required=_ALL),
    "tolerance": Option(("gradcheck",), "largest relative error that passes", _positive, 1e-4),
    "fd_step": Option(("gradcheck",), "finite-difference step", _positive, 1e-5),
    "budget": Option(("tune",), "objective evaluations", _number(int, 0), 25),
    "dim": Option(("tune",), f"KEY=V1,V2,... with KEY one of {', '.join(_TUNING)}", _dimension,
                  required=_ALL, repeat=True),
    "kinds": Option(("benchmark",), "model kinds, comma-separated", _kinds, required=_ALL),
}


@dataclass(frozen=True)
class Command:
    verb: str
    options: argparse.Namespace


def read_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    values = {}
    try:
        for line_no, raw in text_lines(path):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key:
                raise UsageError(f"{path}:{line_no}: expected key=value, got {raw.rstrip()!r}")
            option = OPTIONS.get(key)
            if option is None or not option.key:
                raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = option.parse(value)
            except ValueError as exc:
                raise UsageError(
                    f"{path}:{line_no}: bad value {value!r} for key {key!r}: {exc}"
                ) from None
    except ParseError as exc:  # bytes that are not UTF-8
        raise UsageError(str(exc)) from None
    return values


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _flag_type(name: str, option: Option):
    def parse(text: str):
        try:
            return option.parse(text)
        except ValueError as exc:
            if option.plain_error:
                raise UsageError(f"{_flag(name)}: {exc}") from None
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qa", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {v: sub.add_parser(v, help=text, allow_abbrev=False) for v, text in _VERBS.items()}
    for name, option in OPTIONS.items():
        kwargs = {"help": option.help}
        if option.parse is _switch:
            kwargs["action"] = argparse.BooleanOptionalAction
        elif option.parse is not None:
            kwargs.update(type=_flag_type(name, option), action="append" if option.repeat else None)
        required = () if option.key else option.required
        for verb in option.verbs:
            verbs[verb].add_argument(_flag(name), required=verb in required, **kwargs)
    return parser


def parse_args(argv) -> Command:
    """Parse argv, merge config-file values (flags win), apply defaults."""
    args = _build_parser().parse_args(argv)
    for name, value in vars(args).items():
        # argparse reads `--flag=--` as an empty list, without the flag's parser
        if isinstance(value, list) and (not value or [] in value):
            raise UsageError(f"{_flag(name)}: expected a value")
    config = read_config(args.config) if args.config else {}
    for name, option in OPTIONS.items():
        if args.verb not in option.verbs or getattr(args, name) is not None:
            continue
        value = config.get(name, option.default)
        if value is None and args.verb in option.required:
            raise UsageError(f"{_flag(name)} is required (flag or config)")
        setattr(args, name, value)
    return Command(args.verb, args)


def _load_split(opts):
    kb = load_facts(
        _require_file(opts.facts, "facts"), _require_file(opts.aliases, "aliases")
    )
    questions = load_questions(
        _require_file(opts.questions, "questions"), kb, skip_unmatched=opts.skip_unmatched
    )
    if not questions:
        raise QAError(f"no usable questions in {opts.questions}")
    split = split_dataset(questions, opts.ratios, opts.seed)
    return kb, split


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        problem = "is not a regular file" if os.path.exists(path) else "not found"
        raise QAError(f"{what} file {problem}: {path}")
    return path


def _lexicon_of(opts):
    if opts.lexicon:
        return load_pos_lexicon(_require_file(opts.lexicon, "lexicon"))
    return None


def _embeddings_of(opts, train_questions):
    if opts.embeddings:
        return load_embeddings(
            _require_file(opts.embeddings, "embeddings"), opts.embedding_dim, opts.seed
        )
    tokens = [tok for q in train_questions for tok in q.tokens]
    return random_embedding_table(tokens, opts.embedding_dim, opts.seed)


def _descriptor_of(opts, hidden_ratio=None, dropout=None):
    """The descriptor the options ask for; tune's hidden_ratio sets the
    first of two layers to that multiple of the second, and its dropout
    sets every rate."""
    desc = default_descriptor(
        opts.task,
        opts.kind,
        desk_scale=opts.desk_scale,
        noun_filter=opts.noun_filter,
        hidden_sizes=opts.hidden,
        dropout_rates=opts.dropout,
    )
    hidden = desc.hidden_sizes
    if hidden_ratio is not None and len(hidden) == 2:
        hidden = (max(1, round(hidden_ratio * hidden[1])), hidden[1])
    rates = desc.dropout_rates
    if dropout is not None:
        rates = tuple(dropout for _ in rates)
    return replace(desc, hidden_sizes=hidden, dropout_rates=rates)


def _train_config(opts, l1_override=None) -> TrainConfig:
    return TrainConfig(
        epochs=opts.epochs,
        batch_size=opts.batch_size,
        max_len=opts.max_len,
        l1_activity=opts.l1_activity if l1_override is None else l1_override,
        seed=opts.seed,
        freeze_embeddings=opts.freeze_embeddings,
    )


def _optimizer(opts, learning_rate=None):
    return make_optimizer(
        opts.optimizer,
        learning_rate if learning_rate is not None else opts.learning_rate,
        **({} if opts.optimizer == "SGD" else {"weight_decay": opts.weight_decay}),
    )


def _build_and_train(opts, split, lexicon, descriptor=None, config=None, learning_rate=None):
    desc = descriptor if descriptor is not None else _descriptor_of(opts)
    label_space = None
    if desc.task == "RELATION":
        label_space = RelationLabelSpace.from_questions(split.train)
    embeddings = None
    if desc.kind in NEURAL_KINDS:
        embeddings = _embeddings_of(opts, split.train)
    vocab = [tok for q in split.train for tok in q.tokens]
    model = build_model(
        desc,
        embeddings,
        label_space,
        vocab_tokens=vocab,
        max_len=opts.max_len,
        seed=opts.seed,
        freeze_embeddings=opts.freeze_embeddings,
        alpha=opts.alpha,
    )
    config = config if config is not None else _train_config(opts)
    optimizer = _optimizer(opts, learning_rate)
    log = train(model, split.train, config, optimizer, valid_set=split.valid, lexicon=lexicon)
    return model, log


def _fmt_acc(value: float) -> str:
    return "n/a" if value != value else f"{value:.4f}"


def run(command: Command) -> int:
    opts = command.options
    verb = command.verb

    if verb == "build-index":
        kb = load_facts(_require_file(opts.facts, "facts"), _require_file(opts.aliases, "aliases"))
        entity_index = build_entity_index(kb)
        reach_index = build_reach_index(kb)
        save_indexes(entity_index, reach_index, opts.out)
        print(f"indexed {entity_index.alias_count} aliases, "
              f"{len(reach_index.relations)} facts -> {opts.out}")
        return 0

    if verb == "train":
        _, split = _load_split(opts)
        if not split.train:
            raise QAError("training split is empty")
        lexicon = _lexicon_of(opts)
        model, log = _build_and_train(opts, split, lexicon)
        for stats in log:
            print(
                f"epoch {stats.epoch} train_loss {stats.train_loss:.6f} "
                f"valid_acc {_fmt_acc(stats.valid_accuracy)}"
            )
        save_model(model, opts.out)
        print(f"saved model -> {opts.out}")
        return 0

    if verb == "eval":
        if not (opts.entity_model or opts.relation_model):
            raise UsageError("eval needs --entity-model and/or --relation-model")
        _, split = _load_split(opts)
        dataset = {
            "train": split.train,
            "valid": split.valid,
            "test": split.test,
            "all": split.train + split.valid + split.test,
        }[opts.split]
        if not dataset:
            raise QAError(f"split {opts.split!r} is empty")
        entity_index, _reach = load_indexes(_require_file(opts.index, "index"))
        lexicon = _lexicon_of(opts)
        entity_models = {}
        relation_models = {}
        pipelines = {}
        if opts.entity_model:
            em = load_model(_require_file(opts.entity_model, "entity model"))
            entity_models[em.descriptor.kind] = em
        if opts.relation_model:
            rm = load_model(_require_file(opts.relation_model, "relation model"))
            relation_models[rm.descriptor.kind] = rm
        if opts.entity_model and opts.relation_model:
            pipelines["pipeline"] = (em, rm)
        report = evaluate(
            dataset,
            entity_index,
            entity_models=entity_models,
            relation_models=relation_models,
            pipelines=pipelines,
            lexicon=lexicon,
            k=opts.k,
        )
        text = report.to_text()
        print(text, end="")
        if opts.report_out:
            with open(opts.report_out + ".txt", "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(opts.report_out + ".tsv", "w", encoding="utf-8") as fh:
                fh.write(report.to_tsv())
            print(f"wrote {opts.report_out}.txt and {opts.report_out}.tsv")
        return 0

    if verb == "ask":
        entity_index, reach_index = load_indexes(_require_file(opts.index, "index"))
        entity_model = load_model(_require_file(opts.entity_model, "entity model"))
        relation_model = load_model(_require_file(opts.relation_model, "relation model"))
        lexicon = _lexicon_of(opts)
        query = build_structured_query(entity_model, relation_model, opts.question, lexicon)
        print(f"entity_phrase: {' '.join(query.entity_phrase)}")
        print(f"relation: {query.relation}")
        result = answer(query, entity_index, reach_index, opts.k)
        if result is None:
            print("no-answer")
            return 0
        fact = result.supporting_fact
        print(f"answer: {result.object}")
        print(f"fact: {fact.subject}\t{fact.relation}\t{fact.object}")
        print(f"score: {result.score!r}")
        print(f"degraded: {'yes' if result.degraded else 'no'}")
        return 0

    if verb == "gradcheck":
        reports = run_gradcheck_suite(opts.seed, opts.fd_step, opts.tolerance)
        all_pass = True
        for kind, report in reports:
            status = "PASS" if report.passed else "FAIL"
            print(
                f"{kind:12s} {status} max_rel_err {report.max_relative_error:.3e} "
                f"(worst {report.worst_param})"
            )
            all_pass &= report.passed
        return 0 if all_pass else 1

    if verb == "tune":
        _, split = _load_split(opts)
        if not split.valid:
            raise QAError("tuning needs a non-empty validation split")
        lexicon = _lexicon_of(opts)
        space = dict(opts.dim)

        def objective(cfg):
            desc = _descriptor_of(
                opts,
                hidden_ratio=cfg.get("hidden_ratio"),
                dropout=cfg.get("dropout"),
            )
            config = _train_config(opts, l1_override=cfg.get("l1_activity"))
            _, log = _build_and_train(
                opts,
                split,
                lexicon,
                descriptor=desc,
                config=config,
                learning_rate=cfg.get("learning_rate"),
            )
            return max((s.valid_accuracy for s in log), default=0.0)

        best, trace = basin_hop_tune(space, objective, opts.budget, opts.seed)
        for cfg, score in trace:
            pretty = " ".join(f"{k}={v}" for k, v in cfg.items())
            print(f"eval {pretty} -> {score:.4f}")
        print("best: " + " ".join(f"{k}={v}" for k, v in best.items()))
        return 0

    if verb == "benchmark":
        _, split = _load_split(opts)
        lexicon = _lexicon_of(opts)
        descriptors = [
            default_descriptor(
                opts.task or "RELATION",
                kind,
                desk_scale=opts.desk_scale,
                noun_filter=opts.noun_filter,
            )
            for kind in opts.kinds
        ]
        label_space = RelationLabelSpace.from_questions(split.train)
        embeddings = _embeddings_of(opts, split.train)
        report = benchmark_training(
            descriptors,
            split.train,
            _train_config(opts),
            embeddings,
            label_space,
            lambda: _optimizer(opts),
            lexicon=lexicon,
        )
        print(report.to_text(), end="")
        return 0

    raise UsageError(f"unknown verb {verb!r}")


def main(argv=None) -> int:
    try:
        command = parse_args(sys.argv[1:] if argv is None else argv)
        return run(command)
    except (UsageError, ValueError) as exc:
        # ValueErrors out of the domain modules all mean bad input values
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
