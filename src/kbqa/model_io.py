"""Versioned model files, `QAMODEL 2`: a UTF-8 text header, then a raw
float64 payload, framed by `artifact`.

The first line is `QAMODEL 2 payload=N` and the architecture descriptor
as key=value pairs.  VOCAB and LABELS sections follow where the kind has
them, then one `PARAM name ndim size ...` line per stored array (a neural
model's param_layout).  The payload holds those arrays' values as N
bytes of little-endian float64, in the same order (a neural model's
theta), so files round-trip bit-exactly and identical runs write
identical bytes.  The all-text `QAMODEL 1` files are not read: such a
model must be trained again.
"""

import math

import numpy as np

from .artifact import Artifact, write_artifact
from .errors import ParseError
from .models import (
    NEURAL_KINDS,
    ArchitectureDescriptor,
    MajorityModel,
    MultinomialNBModel,
    NaiveAllEntityModel,
    NeuralSequenceModel,
    RelationLabelSpace,
    param_layout,
)
from .neural.layers import layout_size

__all__ = ["load_model", "save_model"]

# the arrays each baseline kind stores; neural kinds store their param_layout
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


def _stored(model) -> tuple[list[tuple[str, tuple[int, ...]]], list[np.ndarray]]:
    """The (name, shape) of each array a model file stores, in file order,
    and arrays holding their values in that order."""
    if isinstance(model, NeuralSequenceModel):
        return model.layout, [model.theta]
    names = _BASELINE_ARRAYS[model.descriptor.kind]
    arrays = [getattr(model, name) for name in names]
    return [(name, a.shape) for name, a in zip(names, arrays)], arrays


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
    lines = [" ".join(f"{k}={v}" for k, v in pairs)]
    vocab = getattr(model, "vocab", None)
    if vocab is not None:
        lines.append(f"VOCAB {len(vocab)}")
        lines.extend(vocab)
    labels = getattr(model, "label_space", None)
    if labels is not None:
        lines.append(f"LABELS {len(labels.labels)}")
        lines.extend(labels.labels)
    layout, arrays = _stored(model)
    for name, shape in layout:
        lines.append(f"PARAM {name} {len(shape)} {' '.join(str(s) for s in shape)}")
    write_artifact(path, "QAMODEL 2 ", lines, arrays)


def load_model(path: str):
    src = Artifact(path, "QAMODEL 2 ")
    try:
        desc = _parse_descriptor(src.fields)
    except (KeyError, ValueError) as exc:
        raise ParseError(path, 1, f"bad model header: {exc!r}") from None

    sections: dict[str, list[str]] = {"VOCAB": [], "LABELS": []}
    first_row = {}  # section -> line of its first row
    blocks: dict[str, tuple[int, tuple[int, ...]]] = {}  # name -> (header line, shape)
    while not src.done():
        kind, *fields = src.header()
        if kind in sections and len(fields) == 1:
            sections[kind] = src.take(src.counts(fields)[0])
            first_row[kind] = src.start + 1
        elif kind == "PARAM" and len(fields) >= 3 and fields[0] not in blocks:
            blocks[fields[0]] = src.pos, src.shape(fields[1:])
        else:
            raise src.error(f"unexpected section {src.lines[src.pos - 1]!r}")
    values = dict(zip(blocks, src.arrays()))
    vocab, labels = sections["VOCAB"], sections["LABELS"]
    if len(set(vocab)) < len(vocab):
        first: dict[str, int] = {}  # token -> its first row
        j = next(j for j, tok in enumerate(vocab) if first.setdefault(tok, j) != j)
        raise ParseError(path, first_row["VOCAB"] + j, f"VOCAB token {vocab[j]!r} "
                         f"repeats line {first_row['VOCAB'] + first[vocab[j]]}")
    label_space = RelationLabelSpace(tuple(labels)) if labels else None
    if desc.kind in NEURAL_KINDS:
        ids = {tok: i + 2 for i, tok in enumerate(vocab)}
        layout = _neural_layout(path, desc, len(ids), len(labels), blocks)
        _check_blocks(path, layout, blocks)
    try:
        if desc.kind in NEURAL_KINDS:
            max_len = int(src.fields["max_len"])
            if max_len < 1:
                raise ParseError(path, 1, f"max_len must be >= 1, got {max_len}")
            theta = np.concatenate([values[name].reshape(-1) for name, _ in layout])
            model = NeuralSequenceModel(
                desc, ids, label_space, max_len, int(src.fields["seed"]), theta,
                dim=layout[0][1][1], freeze_embeddings=src.fields["frozen"] == "1")
            model.l1_activity = float(src.fields["l1"])
            return model
        if desc.kind == "NAIVE_ALL_ENTITY":
            model = NaiveAllEntityModel(desc)
        elif desc.kind == "MAJORITY":
            model = MajorityModel(desc, label_space)
        else:
            model = MultinomialNBModel(desc, label_space, float(src.fields["alpha"]), vocab)
    except (KeyError, ValueError) as exc:
        raise ParseError(path, 1, f"bad model: {exc!r}") from None
    layout, arrays = _stored(model)
    _check_blocks(path, layout, blocks)
    for (name, _), array in zip(layout, arrays):
        array[...] = values[name]
    return model


def _neural_layout(path, desc, n_vocab: int, n_labels: int, blocks):
    """param_layout at the width of the embedding.E line, which must give a
    pad and an OOV row before the vocabulary's.  The header must imply as
    many values as the PARAM lines declare, so the payload bounds theta."""
    line_no, shape = blocks.get("embedding.E", (1, ()))
    if len(shape) != 2 or shape[0] != n_vocab + 2:
        raise ParseError(path, line_no, f"PARAM embedding.E has shape {shape}, "
                         f"expected {n_vocab + 2} rows")
    layout = param_layout(desc, n_vocab, shape[1], n_labels)
    declared = sum(math.prod(s) for _, s in blocks.values())
    if layout_size(layout) != declared:
        raise ParseError(path, 1, f"the header implies {layout_size(layout)} values, "
                         f"but the PARAM lines declare {declared}")
    return layout


def _check_blocks(path, layout, blocks) -> None:
    """Each array of the layout has a PARAM line of its shape, and no other does."""
    expected = dict(layout)
    for name, shape in layout:
        if name not in blocks:
            raise ParseError(path, 1, f"missing parameter block {name!r}")
        if blocks[name][1] != shape:
            raise ParseError(path, blocks[name][0],
                             f"PARAM {name} has shape {blocks[name][1]}, expected {shape}")
    for name, (line_no, _) in blocks.items():
        if name not in expected:
            raise ParseError(path, line_no, f"unexpected parameter block {name!r}")
