"""Model and index files: byte-stable round trips, committed files that
pin the QAMODEL 2 and QAIDX 3 layouts, and any damage to a file either
leaves a usable artifact or raises ParseError."""

import errno
import io
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kbqa import artifact, cli
from kbqa.corpus import load_facts, load_questions, random_embedding_table
from kbqa.errors import ParseError
from kbqa.index import (
    MAX_NGRAM,
    build_entity_index,
    build_reach_index,
    load_indexes,
    query_entity_index,
    query_reach,
    save_indexes,
)
from kbqa.model_io import load_model, save_model
from kbqa.models import (
    BASELINE_KINDS,
    NEURAL_KINDS,
    RelationLabelSpace,
    build_model,
    default_descriptor,
    predict_relation,
    predict_relation_batch,
    predict_tags,
    predict_tags_batch,
    train,
)
from kbqa.neural.config import TrainConfig
from kbqa.neural.optim import make_optimizer
from kbqa.textproc import ngrams

from oracles import named_candidates

QUESTION = ["how", "old", "is", "tom", "hanks"]


def toy_model(kind, questions, seed=5):
    task = "ENTITY" if kind in ("NAIVE_ALL_ENTITY", "BILSTM2", "NT_BILSTM1") else "RELATION"
    desc = default_descriptor(task, kind, desk_scale=100)
    tokens = [t for q in questions for t in q.tokens]
    labels = RelationLabelSpace.from_questions(questions) if task == "RELATION" else None
    embeddings = random_embedding_table(tokens, 6, seed) if kind in NEURAL_KINDS else None
    model = build_model(desc, embeddings, labels, vocab_tokens=tokens, seed=seed)
    train(model, questions, TrainConfig(epochs=1, batch_size=2, seed=seed),
          make_optimizer("ADAM_COUPLED", 0.01))
    return model


@pytest.fixture(scope="module")
def models_and_artifacts(tmp_path_factory):
    """(kind -> toy model of every kind, name -> bytes of the toy index and
    of each model's file)."""
    from conftest import TOY_ALIASES, TOY_FACTS, TOY_QUESTIONS

    root = tmp_path_factory.mktemp("artifacts")
    for name, text in (("f", TOY_FACTS), ("a", TOY_ALIASES), ("q", TOY_QUESTIONS)):
        (root / name).write_text(text)
    kb = load_facts(str(root / "f"), str(root / "a"))
    questions = load_questions(str(root / "q"), kb)
    save_indexes(build_entity_index(kb), build_reach_index(kb), str(root / "toy.qaidx"))
    models = {kind: toy_model(kind, questions) for kind in NEURAL_KINDS + BASELINE_KINDS}
    for kind, model in models.items():
        save_model(model, str(root / f"{kind}.qam"))
    return models, {path.name: path.read_bytes() for path in root.iterdir() if path.suffix}


@pytest.fixture(scope="module")
def artifacts(models_and_artifacts):
    return models_and_artifacts[1]


@pytest.mark.parametrize("kind", NEURAL_KINDS + BASELINE_KINDS)
def test_model_file_roundtrip_is_byte_identical(artifacts, tmp_path, kind):
    path = tmp_path / "again.qam"
    (tmp_path / "m.qam").write_bytes(artifacts[f"{kind}.qam"])
    save_model(load_model(str(tmp_path / "m.qam")), str(path))
    assert path.read_bytes() == artifacts[f"{kind}.qam"]


@pytest.mark.parametrize("kind", NEURAL_KINDS + BASELINE_KINDS)
def test_reloaded_model_predicts_identically(models_and_artifacts, tmp_path, kind):
    models, artifacts = models_and_artifacts
    path = tmp_path / "m.qam"
    path.write_bytes(artifacts[f"{kind}.qam"])
    seqs = [QUESTION, ["tom", "zzz"]]
    assert np.array_equal(load_model(str(path)).predict_probs(seqs),
                          models[kind].predict_probs(seqs))


# An NT_BILSTM1 with hidden size 3 over a 4-wide random embedding of
# QUESTION's tokens (random_embedding_table(QUESTION, 4, seed=3), built
# with seed=3), written by save_model when QAMODEL 2 was introduced.
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "nt_bilstm1.qam")
GOLDEN_PROBS = [  # P(tag 0), P(tag 1) for QUESTION + ["zzz"]
    [0.4895075002172118, 0.5104924997827882],
    [0.48939951925437236, 0.5106004807456277],
    [0.4893126876112097, 0.5106873123887903],
    [0.4892974848668051, 0.5107025151331949],
    [0.48928976936946966, 0.5107102306305303],
    [0.48929640450357337, 0.5107035954964267],
]


def test_golden_model_predicts_known_probabilities():
    probs = load_model(GOLDEN).predict_probs([QUESTION + ["zzz"]])
    np.testing.assert_allclose(probs, [GOLDEN_PROBS], rtol=0, atol=1e-12)


def test_golden_model_saves_to_the_same_bytes(tmp_path):
    path = tmp_path / "again.qam"
    save_model(load_model(GOLDEN), str(path))
    with open(GOLDEN, "rb") as fh:
        assert path.read_bytes() == fh.read()


# One model of each baseline kind, trained on data/toy by `qa train ...
# --ratios 1.0,0.0,0.0`, and what they predicted when they were written.
GOLDEN_SEQS = [QUESTION, ["what", "movie", "did", "hanks", "star", "in"], ["tom", "zzz"], ["zzz"]]
GOLDEN_BASELINES = {
    "majority.qam": [("bornOn", 0.75)] * 4,
    "nb_multinomial.qam": [("bornOn", 0.9477849324023734), ("starredIn", 0.9837248714590535),
                           ("bornOn", 0.8151571164510165), ("bornOn", 0.6774193548387096)],
    "naive_all_entity.qam": [(1,) * len(seq) for seq in GOLDEN_SEQS],
}


@pytest.mark.parametrize("name", GOLDEN_BASELINES)
def test_golden_baseline_predicts_known_outputs(name):
    model = load_model(os.path.join(os.path.dirname(GOLDEN), name))
    if model.descriptor.task == "ENTITY":
        got = [(p.mapped_tags, p.degraded) for p in predict_tags_batch(model, GOLDEN_SEQS)]
        assert got == [(tags, False) for tags in GOLDEN_BASELINES[name]]
    else:
        assert predict_relation_batch(model, GOLDEN_SEQS) == GOLDEN_BASELINES[name]
        assert [predict_relation(model, seq) for seq in GOLDEN_SEQS] == GOLDEN_BASELINES[name]


@pytest.mark.parametrize("name", GOLDEN_BASELINES)
def test_golden_baseline_saves_to_the_same_bytes(tmp_path, name):
    golden = os.path.join(os.path.dirname(GOLDEN), name)
    path = tmp_path / "again.qam"
    save_model(load_model(golden), str(path))
    with open(golden, "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_golden_baselines_are_what_data_toy_trains(tmp_path):
    """`qa train` on data/toy writes the golden baseline files."""
    toy = os.path.join(os.path.dirname(__file__), os.pardir, "data", "toy")
    files = [f"--{name}={os.path.join(toy, name)}.tsv"
             for name in ("facts", "aliases", "questions")]
    for name in GOLDEN_BASELINES:
        kind = name.removesuffix(".qam").upper()
        task = "ENTITY" if kind == "NAIVE_ALL_ENTITY" else "RELATION"
        out = tmp_path / name
        assert cli.main(["train", *files, "--task", task, "--kind", kind,
                         "--ratios", "1.0,0.0,0.0", "--out", str(out)]) == 0
        with open(os.path.join(os.path.dirname(GOLDEN), name), "rb") as fh:
            assert out.read_bytes() == fh.read()


# Both indexes of data/toy, written by `qa build-index` when QAIDX 3 was
# introduced.
GOLDEN_INDEX = os.path.join(os.path.dirname(__file__), "golden", "toy.qaidx")


def test_golden_index_gives_known_candidates():
    entity_index, reach_index = load_indexes(GOLDEN_INDEX)
    candidates = query_entity_index(entity_index, ["tom", "hanks"], 5)
    assert named_candidates(entity_index, candidates) == [
        ("e1", 2.3655156698609248), ("e2", 0.5036085412553302), ("e3", 0.40771451710473655)
    ]
    assert [a.object for a in query_reach(reach_index, candidates, "bornOn")] == [
        "1956", "1962", "1970"
    ]


def test_golden_index_saves_to_the_same_bytes(tmp_path):
    path = tmp_path / "again.qaidx"
    save_indexes(*load_indexes(GOLDEN_INDEX), str(path))
    with open(GOLDEN_INDEX, "rb") as fh:
        assert path.read_bytes() == fh.read()


def test_golden_index_is_what_data_toy_builds(tmp_path):
    toy = os.path.join(os.path.dirname(__file__), os.pardir, "data", "toy")
    kb = load_facts(os.path.join(toy, "facts.tsv"), os.path.join(toy, "aliases.tsv"))
    path = tmp_path / "built.qaidx"
    save_indexes(build_entity_index(kb), build_reach_index(kb), str(path))
    with open(GOLDEN_INDEX, "rb") as fh:
        assert path.read_bytes() == fh.read()


class _FullDisk(io.FileIO):
    """A file whose second write stores half its bytes, then fails as a
    full disk does."""

    writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            super().write(bytes(data)[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "m.qam"
    save_model(load_model(GOLDEN), str(path))
    before = path.read_bytes()
    indexes = load_indexes(GOLDEN_INDEX)
    monkeypatch.setattr(artifact, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left on device") as raised:
        save_indexes(*indexes, str(path))
    assert raised.value.filename == str(path)  # the error named no file
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.qam"]


def test_a_write_replaces_a_regular_file_and_writes_others_in_place(tmp_path):
    """A regular file is replaced by a new one, with the mode the umask
    gives a new file (not a tempfile's 0600).  A named pipe, written
    through a symbolic link as /dev/stdout is, stays a pipe, and its reader
    gets the artifact; a symbolic link to a regular file stays a link to
    it."""
    path = tmp_path / "m.qam"
    path.write_bytes(b"old")
    path.chmod(0o600)
    umask = os.umask(0o027)
    try:
        save_model(load_model(GOLDEN), str(path))
    finally:
        os.umask(umask)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    (tmp_path / "pipe_link").symlink_to(fifo)
    save_indexes(*load_indexes(GOLDEN_INDEX), str(tmp_path / "pipe_link"))
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and (tmp_path / "pipe_link").is_symlink()
    link = tmp_path / "link.qaidx"
    link.symlink_to(tmp_path / "target.qaidx")
    save_indexes(*load_indexes(GOLDEN_INDEX), str(link))
    assert link.is_symlink()
    with open(GOLDEN_INDEX, "rb") as fh:
        assert got == [fh.read()] and (tmp_path / "target.qaidx").read_bytes() == got[0]


# every n-gram of the toy aliases, and one that no alias has
TOY_GRAMS = sorted({gram for alias in ("tom hanks", "hanks", "tom cruise", "jane hanks")
                    for gram in ngrams(alias.split(" "), MAX_NGRAM)}) + ["zzz"]


def use(path: str) -> None:
    """Load an artifact and run it: an index answers every toy n-gram."""
    if path.endswith(".qaidx"):
        entity_index, reach_index = load_indexes(path)
        for phrase in [["tom", "hanks"]] + [gram.split(" ") for gram in TOY_GRAMS]:
            candidates = query_entity_index(entity_index, phrase, 5)
            for relation in ("bornOn", "starredIn", "wrote"):
                query_reach(reach_index, candidates, relation)
        return
    model = load_model(path)
    if model.descriptor.task == "ENTITY":
        predict_tags(model, QUESTION)
    else:
        predict_relation(model, QUESTION)


FUZZED = ("NT_BILSTM1.qam", "CONV_GRU.qam", "MAJORITY.qam", "NB_MULTINOMIAL.qam",
          "NAIVE_ALL_ENTITY.qam", "toy.qaidx")


@st.composite
def damaged(draw, artifacts):
    """(name, damaged bytes, whether the damage is a truncation)."""
    name = draw(st.sampled_from(FUZZED))
    data = artifacts[name]
    how = draw(st.sampled_from(["truncate", "set", "insert", "delete", "line"]))
    if how == "line":
        starts = [0] + [i + 1 for i, b in enumerate(data) if b == ord("\n")][:-1]
        at = draw(st.sampled_from(starts))
        line = draw(st.sampled_from(["", "VOCAB 0", "LABELS 0", "LABELS 1", "PARAM counts 1 2",
                                     "1.0 2.0", "x\ty", "x\ty\tz", "x\ty\tz\t1.0"])
                    | st.text(max_size=12))
        return name, data[:at] + line.encode("utf-8") + b"\n" + data[at:], False
    at = draw(st.integers(0, len(data) - 1))
    if how == "truncate":
        return name, data[:at], True
    byte = bytes([draw(st.integers(0, 255))])
    if how == "set":
        return name, data[:at] + byte + data[at + 1 :], False
    if how == "insert":
        return name, data[:at] + byte + data[at:], False
    return name, data[:at] + data[at + 1 :], False


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_artifact_loads_or_raises_parse_error(artifacts, tmp_path, data):
    name, damaged_bytes, truncated = data.draw(damaged(artifacts))
    path = tmp_path / name
    path.write_bytes(damaged_bytes)
    if truncated:
        with pytest.raises(ParseError):
            use(str(path))
        return
    try:
        use(str(path))
    except ParseError:
        pass


@pytest.mark.parametrize(
    "data, line_no",
    [(b"a\n\xff\n", 2), (b"a\r\nb\r\xff", 3), (b"\xc3\xa9\n\xc3", 2), (b"\x80", 1)],
)
def test_undecodable_names_the_line(tmp_path, data, line_no):
    from kbqa.artifact import undecodable

    path = tmp_path / "f"
    path.write_bytes(data)
    error = undecodable(str(path))
    assert (error.path, error.line_no) == (str(path), line_no)


# a value whose implied allocation stays far under 50 MB, or one far too
# large to allocate, so a load that allocates before it checks fails fast
HEADER_VALUES = st.integers(-2, 300) | st.integers(10**12, 10**15)


def header_sites(text: str) -> dict[str, list[tuple[int, int]]]:
    """(line index, field index) of every numeric header field of a neural
    model file, by what it holds: line 1's hidden sizes, conv_filters,
    conv_width and max_len, the VOCAB and LABELS counts and the PARAM
    sizes."""
    sites: dict[str, list[tuple[int, int]]] = {}
    for i, line in enumerate(text.split("\n")):
        fields = line.split(" ")
        if i == 0:
            for j, f in enumerate(fields):
                key = f.partition("=")[0]
                if key in ("hidden", "conv_filters", "conv_width", "max_len"):
                    sites.setdefault(key, []).append((i, j))
        elif fields[0] in ("VOCAB", "LABELS"):
            sites.setdefault(fields[0], []).append((i, 1))
        elif fields[0] == "PARAM":
            sites.setdefault("PARAM", []).extend((i, j) for j in range(3, len(fields)))
    return sites


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_header_field_edit_loads_or_raises_parse_error(artifacts, tmp_path, data):
    """Any value in any numeric header field of a model file loads or raises
    ParseError; a value of 10^12 or more, where it sizes an array, raises
    ParseError without allocating it."""
    name = data.draw(st.sampled_from([f"{kind}.qam" for kind in NEURAL_KINDS]))
    n = int(artifacts[name].split(b" ", 3)[2].partition(b"=")[2])
    text, payload = artifacts[name][:-n].decode("utf-8"), artifacts[name][-n:]
    sites = header_sites(text)
    what = data.draw(st.sampled_from(sorted(sites)))
    line_no, field_no = data.draw(st.sampled_from(sites[what]))
    value = data.draw(HEADER_VALUES)
    lines = [line.split(" ") for line in text.split("\n")]
    field = lines[line_no][field_no]
    if what == "hidden":
        sizes = field.partition("=")[2].split(",")
        sizes[data.draw(st.integers(0, len(sizes) - 1))] = str(value)
        lines[line_no][field_no] = "hidden=" + ",".join(sizes)
    else:
        lines[line_no][field_no] = (f"{what}={value}" if line_no == 0 else str(value))
    path = tmp_path / name
    path.write_bytes("\n".join(" ".join(f) for f in lines).encode("utf-8") + payload)
    sizes_an_array = what != "max_len" and (name == "CONV_GRU.qam" or not what.startswith("conv"))
    if value >= 10**12 and sizes_an_array:
        with pytest.raises(ParseError):
            load_model(str(path))
        return
    try:
        use(str(path))
    except ParseError:
        pass
