"""Versioned model files, `QAMODEL 2`: a UTF-8 text header, then a raw
float64 payload, framed by `artifact`.

The first line is `QAMODEL 2 payload=N` and the architecture descriptor
as key=value pairs.  VOCAB and LABELS sections follow where the kind has
them, then one `PARAM name ndim size ...` line per stored array, in
`_stored_arrays` order.  The payload holds those arrays' values as N
bytes of little-endian float64, in the same order, so files round-trip
bit-exactly and identical runs write identical bytes.  The all-text
`QAMODEL 1` files are not read: such a model must be trained again.
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
    lines = [" ".join(f"{k}={v}" for k, v in pairs)]
    vocab = getattr(model, "vocab", None)
    if vocab is not None:
        lines.append(f"VOCAB {len(vocab)}")
        lines.extend(vocab)
    labels = getattr(model, "label_space", None)
    if labels is not None:
        lines.append(f"LABELS {len(labels.labels)}")
        lines.extend(labels.labels)
    arrays = _stored_arrays(model)
    for name, array in arrays.items():
        lines.append(f"PARAM {name} {array.ndim} {' '.join(str(s) for s in array.shape)}")
    write_artifact(path, "QAMODEL 2 ", lines, list(arrays.values()))


def load_model(path: str):
    src = Artifact(path, "QAMODEL 2 ")
    try:
        desc = _parse_descriptor(src.fields)
    except (KeyError, ValueError) as exc:
        raise ParseError(path, 1, f"bad model header: {exc!r}") from None

    sections: dict[str, list[str]] = {"VOCAB": [], "LABELS": []}
    blocks: dict[str, tuple[int, tuple[int, ...]]] = {}  # name -> (header line, shape)
    while not src.done():
        kind, *fields = src.header()
        if kind in sections and len(fields) == 1:
            sections[kind] = src.take(src.counts(fields)[0])
        elif kind == "PARAM" and len(fields) >= 3 and fields[0] not in blocks:
            blocks[fields[0]] = src.pos, src.shape(fields[1:])
        else:
            raise src.error(f"unexpected section {src.lines[src.pos - 1]!r}")
    values = dict(zip(blocks, src.arrays()))
    dim = 0
    if desc.kind in NEURAL_KINDS:
        dim = _checked_width(path, desc, len(sections["VOCAB"]), len(sections["LABELS"]), blocks)
    try:
        model = _empty_model(desc, src.fields, sections["VOCAB"], sections["LABELS"], dim)
    except (KeyError, ValueError) as exc:
        raise ParseError(path, 1, f"bad model: {exc!r}") from None
    for name, array in _stored_arrays(model).items():
        if name not in blocks:
            raise ParseError(path, 1, f"missing parameter block {name!r}")
        line_no, shape = blocks.pop(name)
        if shape != array.shape:
            raise ParseError(
                path, line_no, f"PARAM {name} has shape {shape}, expected {array.shape}"
            )
        array[...] = values[name]
    for name, (line_no, _) in blocks.items():
        raise ParseError(path, line_no, f"unexpected parameter block {name!r}")
    return model


def _checked_width(path, desc, n_vocab: int, n_labels: int, blocks) -> int:
    """The width of a neural model's embedding.E.  Its PARAM line must
    give it a pad and an OOV row before the vocabulary's, and the other
    PARAM lines must declare as many values as the descriptor implies,
    so the payload's length bounds every array the load then makes."""
    line_no, shape = blocks.get("embedding.E", (1, (n_vocab + 2, 0)))
    if len(shape) != 2 or shape[0] != n_vocab + 2:
        raise ParseError(path, line_no, f"PARAM embedding.E has shape {shape}, "
                         f"expected {n_vocab + 2} rows")
    size, feed = 0, shape[1]
    if desc.kind == "CONV_GRU":
        size, feed = desc.conv_filters * (desc.conv_width * feed + 1), desc.conv_filters
    gates = 4 if desc.kind in ("BILSTM2", "NT_BILSTM1") else 3
    for hidden in desc.hidden_sizes:
        size += 2 * gates * hidden * (feed + hidden + 1)
        feed = 2 * hidden
    size += (2 if desc.task == "ENTITY" else n_labels) * (feed + 1)
    declared = sum(math.prod(s) for name, (_, s) in blocks.items() if name != "embedding.E")
    if size != declared:
        raise ParseError(path, 1, f"the header implies {size} values besides embedding.E, "
                         f"but the PARAM lines declare {declared}")
    return shape[1]


def _empty_model(desc, pairs, vocab_tokens, labels, dim):
    """A model of the descriptor whose arrays are zeros sized from the
    file's VOCAB and LABELS; a neural embedding has a pad and an OOV row
    before the vocabulary's, and is dim wide."""
    label_space = RelationLabelSpace(tuple(labels)) if labels else None
    if desc.kind == "NAIVE_ALL_ENTITY":
        return NaiveAllEntityModel(desc)
    if desc.kind == "MAJORITY":
        return MajorityModel(desc, label_space)
    if desc.kind == "NB_MULTINOMIAL":
        return MultinomialNBModel(desc, label_space, float(pairs["alpha"]), vocab_tokens)
    vocab = {tok: i + 2 for i, tok in enumerate(vocab_tokens)}
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
