"""Command-line entry point.

Verbs: build-index, train, eval, ask, gradcheck, tune, benchmark.
Options may come from a flat key=value config file (--config); explicit
command-line flags always win.  Exit codes: 0 success, 1 domain error
(bad data, missing model file), 2 usage error.
"""

import argparse
import os
import sys
from dataclasses import dataclass

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

__all__ = ["Command", "main", "parse_args", "run"]

_SPLITS = ("train", "valid", "test", "all")


def _choice(options):
    """Config parser for a value that must be one of options."""

    def parse(value: str) -> str:
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}")
        return value

    return parse


def _at_least_one(value: str) -> int:
    """Parser for a count that must be >= 1, such as k."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _flag(value: str) -> bool:
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected 1/true/yes or 0/false/no")
    return value in ("1", "true", "yes")


# typed schema for config-file keys; parsers raise ValueError or
# ArgumentTypeError on bad input
_SCHEMA = {
    "seed": int,
    "max_len": int,
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "l1_activity": float,
    "weight_decay": float,
    "optimizer": _choice(OPTIMIZER_KINDS),
    "hidden": str,
    "dropout": str,
    "ratios": str,
    "k": _at_least_one,
    "desk_scale": int,
    "embedding_dim": int,
    "alpha": float,
    "kind": str,
    "task": _choice(TASKS),
    "noun_filter": _flag,
    "freeze_embeddings": _flag,
    "skip_unmatched": _flag,
    "budget": int,
    "tolerance": float,
    "fd_step": float,
    "split": _choice(_SPLITS),
}

_DEFAULTS = {
    "seed": 13,
    "max_len": 36,
    "epochs": 5,
    "batch_size": 16,
    "learning_rate": 0.0007,
    "l1_activity": 0.0,
    "weight_decay": 0.0,
    "optimizer": "ADAM_COUPLED",
    "ratios": "0.7,0.1,0.2",
    "k": 50,
    "desk_scale": 1,
    "embedding_dim": 50,
    "alpha": 1.0,
    "noun_filter": None,
    "freeze_embeddings": True,
    "skip_unmatched": False,
    "budget": 25,
    "tolerance": 1e-4,
    "fd_step": 1e-5,
    "split": "test",
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
            if key not in _SCHEMA:
                raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            try:
                values[key] = _SCHEMA[key](value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(
                    f"{path}:{line_no}: bad value {value!r} for key {key!r}: {exc}"
                ) from None
    except ParseError as exc:  # bytes that are not UTF-8
        raise UsageError(str(exc)) from None
    return values


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int)


def _add_data(parser, questions=True):
    parser.add_argument("--facts", required=True)
    parser.add_argument("--aliases", required=True)
    if questions:
        parser.add_argument("--questions", required=True)
        parser.add_argument("--ratios", help="train,valid,test split ratios")
        parser.add_argument("--skip-unmatched", action=argparse.BooleanOptionalAction)


def _add_model_options(parser):
    parser.add_argument("--task", choices=TASKS)
    parser.add_argument("--kind")
    parser.add_argument("--hidden", help="comma-separated layer sizes")
    parser.add_argument("--dropout", help="comma-separated dropout rates")
    parser.add_argument("--desk-scale", type=int)
    parser.add_argument("--noun-filter", action=argparse.BooleanOptionalAction)
    parser.add_argument("--max-len", type=int)
    parser.add_argument("--embeddings", help="pretrained embedding file")
    parser.add_argument("--embedding-dim", type=int)
    parser.add_argument("--lexicon", help="token<TAB>TAG POS lexicon file")


def _add_train_options(parser):
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--learning-rate", type=float)
    parser.add_argument("--optimizer", choices=OPTIMIZER_KINDS)
    parser.add_argument("--weight-decay", type=float)
    parser.add_argument("--l1-activity", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--freeze-embeddings", action=argparse.BooleanOptionalAction)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qa", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build-index", help="build and save the retrieval indexes")
    _add_common(p)
    _add_data(p, questions=False)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model and save it")
    _add_common(p)
    _add_data(p)
    _add_model_options(p)
    _add_train_options(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluate models and write an accuracy report")
    _add_common(p)
    _add_data(p)
    p.add_argument("--index", required=True)
    p.add_argument("--entity-model")
    p.add_argument("--relation-model")
    p.add_argument("--lexicon")
    p.add_argument("--split", choices=_SPLITS)
    p.add_argument("--k", type=_at_least_one)
    p.add_argument("--report-out", help="prefix for the .txt/.tsv report files")

    p = sub.add_parser("ask", help="answer one question")
    _add_common(p)
    p.add_argument("--question", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--entity-model", required=True)
    p.add_argument("--relation-model", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--k", type=_at_least_one)

    p = sub.add_parser("gradcheck", help="finite-difference check of every architecture")
    _add_common(p)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--fd-step", type=float)

    p = sub.add_parser("tune", help="basin-hopping hyper-parameter search")
    _add_common(p)
    _add_data(p)
    _add_model_options(p)
    _add_train_options(p)
    p.add_argument("--budget", type=int)
    p.add_argument(
        "--dim",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="tuning dimension (learning_rate, l1_activity, dropout, hidden_ratio)",
    )

    p = sub.add_parser("benchmark", help="compare training cost across model kinds")
    _add_common(p)
    _add_data(p)
    _add_model_options(p)
    _add_train_options(p)
    p.add_argument("--kinds", required=True, help="comma-separated model kinds")
    return parser


def parse_args(argv) -> Command:
    """Parse argv, merge config-file values (flags win), apply defaults."""
    args = _build_parser().parse_args(argv)
    if getattr(args, "config", None):
        for key, value in read_config(args.config).items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, value)
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    return Command(args.verb, args)


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"ratios must be three comma-separated numbers, got {text!r}")
    try:
        ratios = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad ratios {text!r}") from None
    return ratios


def _load_split(opts):
    kb = load_facts(
        _require_file(opts.facts, "facts"), _require_file(opts.aliases, "aliases")
    )
    questions = load_questions(
        _require_file(opts.questions, "questions"), kb, skip_unmatched=opts.skip_unmatched
    )
    if not questions:
        raise QAError(f"no usable questions in {opts.questions}")
    split = split_dataset(questions, _parse_ratios(opts.ratios), opts.seed)
    return kb, split


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise QAError(f"{what} file not found: {path}")
    return path


def _lexicon_of(opts):
    lexicon_path = getattr(opts, "lexicon", None)
    if lexicon_path:
        return load_pos_lexicon(_require_file(lexicon_path, "lexicon"))
    return None


def _embeddings_of(opts, train_questions):
    if getattr(opts, "embeddings", None):
        return load_embeddings(
            _require_file(opts.embeddings, "embeddings"), opts.embedding_dim, opts.seed
        )
    tokens = [tok for q in train_questions for tok in q.tokens]
    return random_embedding_table(tokens, opts.embedding_dim, opts.seed)


def _descriptor_of(opts, hidden_ratio=None, dropout_scalar=None):
    if not opts.task or not opts.kind:
        raise UsageError("--task and --kind are required (flag or config)")
    hidden = None
    if opts.hidden:
        try:
            hidden = tuple(int(h) for h in opts.hidden.split(","))
        except ValueError:
            raise UsageError(f"bad --hidden {opts.hidden!r}") from None
    dropout = None
    if opts.dropout:
        try:
            dropout = tuple(float(r) for r in opts.dropout.split(","))
        except ValueError:
            raise UsageError(f"bad --dropout {opts.dropout!r}") from None
    desc = default_descriptor(
        opts.task,
        opts.kind.upper(),
        desk_scale=opts.desk_scale,
        noun_filter=opts.noun_filter,
        hidden_sizes=hidden,
        dropout_rates=dropout,
    )
    if hidden_ratio is not None and len(desc.hidden_sizes) == 2:
        base = desc.hidden_sizes[1]
        desc = default_descriptor(
            opts.task,
            opts.kind.upper(),
            noun_filter=opts.noun_filter,
            hidden_sizes=(max(1, round(hidden_ratio * base)), base),
            dropout_rates=desc.dropout_rates,
        )
    if dropout_scalar is not None:
        desc = default_descriptor(
            opts.task,
            opts.kind.upper(),
            noun_filter=opts.noun_filter,
            hidden_sizes=desc.hidden_sizes,
            dropout_rates=tuple(dropout_scalar for _ in desc.dropout_rates),
        )
    return desc


def _train_config(opts, l1_override=None) -> TrainConfig:
    return TrainConfig(
        epochs=opts.epochs,
        batch_size=opts.batch_size,
        max_len=opts.max_len,
        l1_activity=opts.l1_activity if l1_override is None else l1_override,
        seed=opts.seed,
        freeze_embeddings=opts.freeze_embeddings,
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
    optimizer = make_optimizer(
        opts.optimizer,
        learning_rate if learning_rate is not None else opts.learning_rate,
        **({} if opts.optimizer == "SGD" else {"weight_decay": opts.weight_decay}),
    )
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
              f"{sum(len(v) for v in reach_index.edges.values())} facts -> {opts.out}")
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
        if not entity_models and not relation_models:
            raise UsageError("eval needs --entity-model and/or --relation-model")
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
        space = {}
        for dim in opts.dim:
            key, sep, values = dim.partition("=")
            if not sep:
                raise UsageError(f"bad --dim {dim!r}, expected KEY=V1,V2,...")
            if key not in ("learning_rate", "l1_activity", "dropout", "hidden_ratio"):
                raise UsageError(f"unknown tuning dimension {key!r}")
            try:
                space[key] = [float(v) for v in values.split(",")]
            except ValueError:
                raise UsageError(f"bad values in --dim {dim!r}") from None
        if not space:
            raise UsageError("tune needs at least one --dim")

        def objective(cfg):
            desc = _descriptor_of(
                opts,
                hidden_ratio=cfg.get("hidden_ratio"),
                dropout_scalar=cfg.get("dropout"),
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
        kinds = [k.strip().upper() for k in opts.kinds.split(",") if k.strip()]
        if len(kinds) < 2:
            raise UsageError("benchmark needs at least 2 kinds")
        descriptors = [
            default_descriptor(
                opts.task or "RELATION",
                kind,
                desk_scale=opts.desk_scale,
                noun_filter=opts.noun_filter,
            )
            for kind in kinds
        ]
        label_space = RelationLabelSpace.from_questions(split.train)
        embeddings = _embeddings_of(opts, split.train)
        report = benchmark_training(
            descriptors,
            split.train,
            _train_config(opts),
            embeddings,
            label_space,
            lambda: make_optimizer(opts.optimizer, opts.learning_rate),
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
