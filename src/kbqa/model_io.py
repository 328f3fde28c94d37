"""Versioned plain-text model files.

Layout: a `QAMODEL 1` header line carrying the architecture descriptor
as key=value pairs, then VOCAB / LABELS sections where applicable, then
one PARAM block per named parameter with its shape and row-wise values.
Floats are written with repr so files round-trip bit-exactly and
identical runs produce identical bytes.
"""

import numpy as np

from .errors import ParseError
from .models import (
    ArchitectureDescriptor,
    MajorityModel,
    MultinomialNBModel,
    NaiveAllEntityModel,
    NeuralSequenceModel,
    RelationLabelSpace,
)

__all__ = ["load_model", "save_model"]


def _fmt(value: float) -> str:
    return repr(float(value))


def _descriptor_pairs(desc: ArchitectureDescriptor) -> list[tuple[str, str]]:
    return [
        ("task", desc.task),
        ("kind", desc.kind),
        ("hidden", ",".join(str(h) for h in desc.hidden_sizes)),
        ("dropout", ",".join(_fmt(r) for r in desc.dropout_rates)),
        ("conv_filters", str(desc.conv_filters)),
        ("conv_width", str(desc.conv_width)),
        ("noun_filter", "1" if desc.noun_filter else "0"),
    ]


def _parse_descriptor(pairs: dict[str, str]) -> ArchitectureDescriptor:
    hidden = tuple(int(h) for h in pairs["hidden"].split(",") if h)
    dropout = tuple(float(r) for r in pairs["dropout"].split(",") if r)
    return ArchitectureDescriptor(
        task=pairs["task"],
        kind=pairs["kind"],
        hidden_sizes=hidden,
        dropout_rates=dropout,
        conv_filters=int(pairs["conv_filters"]),
        conv_width=int(pairs["conv_width"]),
        noun_filter=pairs["noun_filter"] == "1",
    )


def _param_lines(name: str, array: np.ndarray) -> list[str]:
    array = np.asarray(array, dtype=np.float64)
    shape = array.shape if array.ndim else (1,)
    lines = [f"PARAM {name} {len(shape)} {' '.join(str(s) for s in shape)}"]
    rows = array.reshape(-1, shape[-1]) if array.ndim > 1 else array.reshape(1, -1)
    for row in rows:
        lines.append(" ".join(_fmt(v) for v in row))
    return lines


def save_model(model, path: str) -> None:
    desc = model.descriptor
    pairs = _descriptor_pairs(desc)
    params: dict[str, np.ndarray] = {}
    vocab: dict[str, int] | None = None
    labels = None

    if isinstance(model, NeuralSequenceModel):
        pairs += [
            ("max_len", str(model.max_len)),
            ("seed", str(model.seed)),
            ("frozen", "0" if model.embedding.trainable else "1"),
            ("l1", _fmt(model.l1_activity)),
        ]
        vocab = model.vocab
        labels = model.label_space
        params = model.all_params()
    elif isinstance(model, MajorityModel):
        labels = model.label_space
        params = {"counts": model.counts}
    elif isinstance(model, MultinomialNBModel):
        pairs.append(("alpha", _fmt(model.alpha)))
        labels = model.label_space
        vocab = model.vocab
        params = {
            "class_counts": model.class_counts,
            "token_counts": model.token_counts,
            "total_tokens": model.total_tokens,
        }
    elif not isinstance(model, NaiveAllEntityModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")

    lines = ["QAMODEL 1 " + " ".join(f"{k}={v}" for k, v in pairs)]
    if vocab is not None:
        lines.append(f"VOCAB {len(vocab)}")
        lines.extend(vocab)
    if labels is not None:
        lines.append(f"LABELS {len(labels.labels)}")
        lines.extend(labels.labels)
    for name, array in params.items():
        lines.extend(_param_lines(name, array))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _counts(path: str, line_no: int, fields: list[str]) -> list[int]:
    """Non-negative integers of a section header, or ParseError."""
    if not all(f.isascii() and f.isdigit() for f in fields):
        raise ParseError(path, line_no, f"bad count in header {' '.join(fields)!r}")
    return [int(f) for f in fields]


def load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines[0].startswith("QAMODEL 1 "):
        raise ParseError(path, 1, "not a QAMODEL 1 file")
    if lines.pop() != "":
        raise ParseError(path, len(lines) + 1, "truncated file: no final newline")
    pairs: dict[str, str] = {}
    for item in lines[0].split(" ")[2:]:
        key, _, value = item.partition("=")
        pairs[key] = value
    try:
        desc = _parse_descriptor(pairs)
    except (KeyError, ValueError) as exc:
        raise ParseError(path, 1, f"bad model header: {exc!r}") from None

    pos = 1
    vocab_tokens: list[str] = []
    labels: list[str] = []
    params: dict[str, np.ndarray] = {}
    while pos < len(lines):
        header = lines[pos].split(" ")
        if header[0] in ("VOCAB", "LABELS") and len(header) == 2:
            (count,) = _counts(path, pos + 1, header[1:])
            if pos + 1 + count > len(lines):
                raise ParseError(path, pos + 1, f"truncated {header[0]} section")
            section = lines[pos + 1 : pos + 1 + count]
            if header[0] == "VOCAB":
                vocab_tokens = section
            else:
                labels = section
            pos += 1 + count
        elif header[0] == "PARAM" and len(header) >= 4:
            name = header[1]
            ndim, *shape = _counts(path, pos + 1, header[2:])
            if ndim != len(shape):
                raise ParseError(path, pos + 1, f"PARAM {name}: {ndim} dims, {len(shape)} sizes")
            n_rows = 1 if ndim == 1 else int(np.prod(shape[:-1]))
            if pos + 1 + n_rows > len(lines):
                raise ParseError(path, pos + 1, f"truncated PARAM {name} block")
            rows = []
            for line_no in range(pos + 2, pos + 2 + n_rows):
                values = lines[line_no - 1].split(" ")
                if len(values) != shape[-1]:
                    raise ParseError(
                        path, line_no, f"expected {shape[-1]} values, got {len(values)}"
                    )
                try:
                    rows.append([float(v) for v in values])
                except ValueError:
                    raise ParseError(path, line_no, "non-numeric parameter value") from None
            params[name] = np.array(rows, dtype=np.float64).reshape(shape)
            pos += 1 + n_rows
        else:
            raise ParseError(path, pos + 1, f"unexpected section {lines[pos]!r}")
    try:
        return _model_of(path, desc, pairs, vocab_tokens, labels, params)
    except (KeyError, ValueError) as exc:
        raise ParseError(path, 1, f"bad model: {exc!r}") from None


def _model_of(path, desc, pairs, vocab_tokens, labels, params):
    label_space = RelationLabelSpace(tuple(labels)) if labels else None

    if desc.kind == "NAIVE_ALL_ENTITY":
        return NaiveAllEntityModel(desc)
    if desc.kind == "MAJORITY":
        model = MajorityModel(desc, label_space)
        model.counts = params["counts"]
        return model
    if desc.kind == "NB_MULTINOMIAL":
        model = MultinomialNBModel(desc, label_space, float(pairs["alpha"]))
        model.vocab = {tok: i for i, tok in enumerate(vocab_tokens)}
        model.class_counts = params["class_counts"]
        model.token_counts = params["token_counts"]
        model.total_tokens = params["total_tokens"]
        return model

    vocab = {tok: i + 2 for i, tok in enumerate(vocab_tokens)}
    model = NeuralSequenceModel(
        descriptor=desc,
        vocab=vocab,
        embedding_matrix=params["embedding.E"],
        label_space=label_space,
        max_len=int(pairs["max_len"]),
        seed=int(pairs["seed"]),
        freeze_embeddings=pairs["frozen"] == "1",
    )
    model.l1_activity = float(pairs["l1"])
    for name, arr in model.all_params().items():
        if name not in params:
            raise ParseError(path, 1, f"missing parameter block {name!r}")
        if params[name].shape != arr.shape:
            raise ParseError(
                path, 1, f"parameter {name!r} has shape {params[name].shape}, expected {arr.shape}"
            )
        arr[...] = params[name]
    return model
