import numpy as np
import pytest

from kbqa.neural import BidirectionalLayer, RecurrentDirection
from kbqa.neural.layers import layout_size

TOY_FACTS = (
    "e1\tbornOn\t1956\n"
    "e1\tstarredIn\tm1\n"
    "e2\tbornOn\t1962\n"
    "e3\tstarredIn\tm2\n"
)
TOY_ALIASES = (
    "e1\tTom Hanks\n"
    "e1\tHanks\n"
    "e2\tTom Cruise\n"
    "e3\tJane Hanks\n"
)
TOY_QUESTIONS = (
    "e1\tbornOn\t1956\tHow old is Tom Hanks?\n"
    "e1\tstarredIn\tm1\tWhat movie did Hanks star in?\n"
    "e2\tbornOn\t1962\tWhen was Tom Cruise born?\n"
    "e3\tbornOn\t1970\tWhen was Jane Hanks born?\n"
)


@pytest.fixture
def toy_files(tmp_path):
    """facts/aliases/questions files for a 3-entity toy KB."""
    facts = tmp_path / "facts.tsv"
    aliases = tmp_path / "aliases.tsv"
    questions = tmp_path / "questions.tsv"
    facts.write_text(TOY_FACTS)
    aliases.write_text(TOY_ALIASES)
    questions.write_text(TOY_QUESTIONS)
    return facts, aliases, questions


@pytest.fixture
def toy_kb(toy_files):
    from kbqa.corpus import load_facts

    facts, aliases, _ = toy_files
    return load_facts(str(facts), str(aliases))


def split_artifact(path) -> tuple[str, bytes]:
    """An artifact file's text and its payload, the last N bytes, where
    its first line declares payload=N."""
    data = path.read_bytes()
    fields = data.split(b"\n", 1)[0].split(b" ")
    n = next((int(f[8:]) for f in fields if f.startswith(b"payload=")), 0)
    return data[: len(data) - n].decode("utf-8"), data[len(data) - n :]


def edit_text(path, edit) -> None:
    """Replace an artifact's text by edit(text), keeping its payload."""
    text, payload = split_artifact(path)
    path.write_bytes(edit(text).encode("utf-8") + payload)


def first_line(path, prefix) -> int:
    """1-based number of the first line of path's text that starts with prefix."""
    lines = split_artifact(path)[0].split("\n")
    return next(i for i, line in enumerate(lines) if line.startswith(prefix)) + 1


def replace_line(path, line_no, edit):
    """Replace a line of path's text by edit(line), keeping any payload."""
    def change(text):
        lines = text.split("\n")
        lines[line_no - 1] = edit(lines[line_no - 1])
        return "\n".join(lines)

    edit_text(path, change)


def replace_payload(path, payload: bytes) -> None:
    """Give an artifact a new payload, and declare its length in line 1."""
    head, rest = split_artifact(path)[0].split("\n", 1)
    fields = [f if not f.startswith("payload=") else f"payload={len(payload)}"
              for f in head.split(" ")]
    path.write_bytes(f"{' '.join(fields)}\n{rest}".encode("utf-8") + payload)


def fix_tagger(model, tag: int) -> None:
    """Make a neural tagger predict `tag` at every position it reads: the
    dense head ignores its input and its bias favours `tag`."""
    model.dense.params["W"][:] = 0.0
    model.dense.params["b"][:] = np.eye(2)[tag]


def standalone(layer_cls, *args, rng=None, init_scale=0.08):
    """layer_cls(*args) over a parameter block of its own: zeros, or one
    rng.uniform(-init_scale, init_scale, n) draw per recurrent direction
    (the forward direction first) or for the whole layer."""
    if layer_cls in (RecurrentDirection, BidirectionalLayer):
        sizes = [layout_size(RecurrentDirection.shapes(*args[:3]))]
        sizes *= 2 if layer_cls is BidirectionalLayer else 1
    else:
        sizes = [layout_size(layer_cls.shapes(*args))]
    block = np.concatenate([np.zeros(n) if rng is None else rng.uniform(-init_scale, init_scale, n)
                            for n in sizes])
    return layer_cls(*args, block)
