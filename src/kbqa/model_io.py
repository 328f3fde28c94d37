"""Versioned plain-text model files.

Layout: a `QAMODEL 1` header line carrying the architecture descriptor
as key=value pairs, then VOCAB / LABELS sections where applicable, then
one PARAM block per named parameter with its shape and row-wise values.
Floats are written with repr so files round-trip bit-exactly and
identical runs produce identical bytes.
"""

import math

import numpy as np

from .artifact import Artifact
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

# the arrays each baseline kind stores; neural kinds store all_params()
_BASELINE_ARRAYS = {
    "MAJORITY": ("counts",),
    "NB_MULTINOMIAL": ("class_counts", "token_counts", "total_tokens"),
    "NAIVE_ALL_ENTITY": (),
}


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
    lines = [f"PARAM {name} {array.ndim} {' '.join(str(s) for s in array.shape)}"]
    for row in array.reshape(-1, array.shape[-1]):
        lines.append(" ".join(_fmt(v) for v in row))
    return lines


def _stored_arrays(model) -> dict[str, np.ndarray]:
    """The arrays a model file stores, by name, in file order."""
    if isinstance(model, NeuralSequenceModel):
        return model.all_params()
    return {name: getattr(model, name) for name in _BASELINE_ARRAYS[model.descriptor.kind]}


def save_model(model, path: str) -> None:
    pairs = _descriptor_pairs(model.descriptor)
    if isinstance(model, NeuralSequenceModel):
        pairs += [
            ("max_len", str(model.max_len)),
            ("seed", str(model.seed)),
            ("frozen", "0" if model.embedding.trainable else "1"),
            ("l1", _fmt(model.l1_activity)),
        ]
    elif isinstance(model, MultinomialNBModel):
        pairs.append(("alpha", _fmt(model.alpha)))
    lines = ["QAMODEL 1 " + " ".join(f"{k}={v}" for k, v in pairs)]
    vocab = getattr(model, "vocab", None)
    if vocab is not None:
        lines.append(f"VOCAB {len(vocab)}")
        lines.extend(vocab)
    labels = getattr(model, "label_space", None)
    if labels is not None:
        lines.append(f"LABELS {len(labels.labels)}")
        lines.extend(labels.labels)
    for name, array in _stored_arrays(model).items():
        lines.extend(_param_lines(name, array))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str):
    src = Artifact(path, "QAMODEL 1 ")
    pairs = dict(item.partition("=")[::2] for item in src.lines[0].split(" ")[2:])
    try:
        desc = _parse_descriptor(pairs)
    except (KeyError, ValueError) as exc:
        raise ParseError(path, 1, f"bad model header: {exc!r}") from None

    sections: dict[str, list[str]] = {"VOCAB": [], "LABELS": []}
    blocks: dict[str, tuple[int, np.ndarray]] = {}  # name -> (header line, array)
    while not src.done():
        kind, *fields = src.header()
        if kind in sections and len(fields) == 1:
            sections[kind] = src.take(src.counts(fields)[0])
        elif kind == "PARAM" and len(fields) >= 3:
            name, line_no = fields[0], src.pos
            ndim, *shape = src.counts(fields[1:])
            if ndim != len(shape):
                raise src.error(f"PARAM {name}: {ndim} dims, {len(shape)} sizes")
            rows = []
            for row in src.take(math.prod(shape[:-1])):
                values = row.split(" ")
                if len(values) != shape[-1]:
                    raise src.bad(row, f"expected {shape[-1]} values, got {len(values)}")
                try:
                    rows.append([float(v) for v in values])
                except ValueError:
                    raise src.bad(row, "non-numeric parameter value") from None
            blocks[name] = line_no, np.array(rows, dtype=np.float64).reshape(shape)
        else:
            raise src.error(f"unexpected section {src.lines[src.pos - 1]!r}")
    try:
        model = _empty_model(desc, pairs, sections["VOCAB"], sections["LABELS"], blocks)
    except (KeyError, ValueError) as exc:
        raise ParseError(path, 1, f"bad model: {exc!r}") from None
    for name, array in _stored_arrays(model).items():
        if name not in blocks:
            raise ParseError(path, 1, f"missing parameter block {name!r}")
        line_no, block = blocks.pop(name)
        if block.shape != array.shape:
            raise ParseError(
                path, line_no, f"PARAM {name} has shape {block.shape}, expected {array.shape}"
            )
        array[...] = block
    for name, (line_no, _) in blocks.items():
        raise ParseError(path, line_no, f"unexpected parameter block {name!r}")
    return model


def _empty_model(desc, pairs, vocab_tokens, labels, blocks):
    """A model of the descriptor whose arrays are zeros sized from the
    file's VOCAB and LABELS; a neural embedding has a pad and an OOV row
    before the vocabulary's, and the width of the file's embedding.E."""
    label_space = RelationLabelSpace(tuple(labels)) if labels else None
    if desc.kind == "NAIVE_ALL_ENTITY":
        return NaiveAllEntityModel(desc)
    if desc.kind == "MAJORITY":
        return MajorityModel(desc, label_space)
    if desc.kind == "NB_MULTINOMIAL":
        return MultinomialNBModel(desc, label_space, float(pairs["alpha"]), vocab_tokens)
    vocab = {tok: i + 2 for i, tok in enumerate(vocab_tokens)}
    dim = blocks["embedding.E"][1].shape[-1] if "embedding.E" in blocks else 0
    model = NeuralSequenceModel(
        descriptor=desc,
        vocab=vocab,
        embedding_matrix=np.zeros((len(vocab) + 2, dim)),
        label_space=label_space,
        max_len=int(pairs["max_len"]),
        seed=int(pairs["seed"]),
        freeze_embeddings=pairs["frozen"] == "1",
    )
    model.l1_activity = float(pairs["l1"])
    return model
