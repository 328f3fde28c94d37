import errno
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kbqa import cli
from kbqa.cli import main, parse_args, read_config

from conftest import edit_text, first_line, replace_line, replace_payload, split_artifact


GOLDEN = Path(__file__).parent / "golden" / "nt_bilstm1.qam"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def indexed(toy_files, tmp_path):
    facts, aliases, questions = toy_files
    index = tmp_path / "toy.qaidx"
    code = run_cli(
        "build-index",
        "--facts", str(facts),
        "--aliases", str(aliases),
        "--out", str(index),
    )
    assert code == 0
    return facts, aliases, questions, index


def train_toy_models(toy, tmp_path, seed="13", relation_kind="MAJORITY"):
    facts, aliases, questions, index = toy
    em = tmp_path / "entity.qam"
    rm = tmp_path / "relation.qam"
    assert run_cli(
        "train",
        "--facts", str(facts), "--aliases", str(aliases),
        "--questions", str(questions),
        "--task", "ENTITY", "--kind", "NAIVE_ALL_ENTITY",
        "--ratios", "1.0,0.0,0.0", "--seed", seed,
        "--out", str(em),
    ) == 0
    assert run_cli(
        "train",
        "--facts", str(facts), "--aliases", str(aliases),
        "--questions", str(questions),
        "--task", "RELATION", "--kind", relation_kind,
        "--ratios", "1.0,0.0,0.0", "--seed", seed,
        "--out", str(rm),
    ) == 0
    return em, rm


class TestParse:
    def test_ask_grammar(self):
        cmd = parse_args(
            [
                "ask",
                "--question", "How old is Tom Hanks?",
                "--index", "idx",
                "--entity-model", "em",
                "--relation-model", "rm",
            ]
        )
        assert cmd.verb == "ask"
        assert cmd.options.question == "How old is Tom Hanks?"
        assert cmd.options.k == 50  # default applied

    def test_unknown_verb_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["gradcheck", "--bogus", "1"])
        assert err.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["build-index", "--facts", "f"])
        assert err.value.code == 2

    def test_config_merge_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# toy config\nseed=99\nk=7\n")
        cmd = parse_args(
            [
                "ask",
                "--config", str(cfg),
                "--question", "q",
                "--index", "i",
                "--entity-model", "e",
                "--relation-model", "r",
                "--seed", "5",
            ]
        )
        assert cmd.options.seed == 5      # explicit flag wins
        assert cmd.options.k == 7         # config fills the gap

    def test_config_unknown_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnication_level=9\n")
        code = run_cli(
            "ask", "--config", str(cfg),
            "--question", "q", "--index", "i",
            "--entity-model", "e", "--relation-model", "r",
        )
        assert code == 2

    def test_config_bad_value_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed=banana\n")
        assert run_cli("gradcheck", "--config", str(cfg)) == 2

    @pytest.mark.parametrize(
        "line", ["split=bogus", "task=entity", "optimizer=ADAM", "noun_filter=ture"]
    )
    def test_config_value_outside_choices_is_usage_error(self, indexed, tmp_path, capsys, line):
        facts, aliases, questions, index = indexed
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# checked like the flags\n{line}\n")
        code = run_cli(
            "eval", "--config", str(cfg),
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions), "--index", str(index),
            "--entity-model", str(tmp_path / "missing.qam"),
        )
        assert code == 2
        assert f"{cfg}:2: bad value" in capsys.readouterr().err

    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed=3\nk=\xff\n")
        assert run_cli("gradcheck", "--config", str(cfg)) == 2
        assert f"{cfg}:2: " in capsys.readouterr().err

    def test_read_config_parses_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "seed=3\nlearning_rate=0.5  # inline comment\nnoun_filter=true\nskip_unmatched=no\n"
        )
        values = read_config(str(cfg))
        assert values == {
            "seed": 3, "learning_rate": 0.5, "noun_filter": True, "skip_unmatched": False
        }

    def test_bad_kind_exits_2(self, toy_files, tmp_path):
        facts, aliases, questions = toy_files
        code = run_cli(
            "train",
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions),
            "--task", "RELATION", "--kind", "TRANSFORMER",
            "--out", str(tmp_path / "m.qam"),
        )
        assert code == 2

    def test_bad_ratio_sum_exits_2(self, toy_files, tmp_path):
        facts, aliases, questions = toy_files
        code = run_cli(
            "train",
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions),
            "--task", "RELATION", "--kind", "MAJORITY",
            "--ratios", "0.5,0.2,0.2",
            "--out", str(tmp_path / "m.qam"),
        )
        assert code == 2


class TestEndToEnd:
    def test_ask_prints_answer(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        code = run_cli(
            "ask",
            "--question", "How old is Tom Hanks?",
            "--index", str(indexed[3]),
            "--entity-model", str(em),
            "--relation-model", str(rm),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "answer: 1956" in out
        assert "e1\tbornOn\t1956" in out
        assert "degraded: no" in out

    def test_ask_no_answer(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        code = run_cli(
            "ask",
            "--question", "zzz yyy xxx",
            "--index", str(indexed[3]),
            "--entity-model", str(em),
            "--relation-model", str(rm),
        )
        assert code == 0
        assert "no-answer" in capsys.readouterr().out

    def test_eval_writes_reports(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        prefix = tmp_path / "report"
        code = run_cli(
            "eval",
            "--facts", str(indexed[0]), "--aliases", str(indexed[1]),
            "--questions", str(indexed[2]), "--index", str(indexed[3]),
            "--entity-model", str(em), "--relation-model", str(rm),
            "--ratios", "1.0,0.0,0.0", "--split", "train",
            "--report-out", str(prefix),
        )
        assert code == 0
        text = (tmp_path / "report.txt").read_text()
        tsv = (tmp_path / "report.tsv").read_text()
        assert "NAIVE_ALL_ENTITY" in text and "MAJORITY" in text and "pipeline" in text
        assert tsv.splitlines()[0].startswith("classifier\t")

    def test_eval_missing_model_file_exits_1(self, indexed, tmp_path):
        code = run_cli(
            "eval",
            "--facts", str(indexed[0]), "--aliases", str(indexed[1]),
            "--questions", str(indexed[2]), "--index", str(indexed[3]),
            "--entity-model", str(tmp_path / "missing.qam"),
            "--ratios", "1.0,0.0,0.0", "--split", "train",
        )
        assert code == 1

    def test_gradcheck_verb_passes(self, capsys):
        assert run_cli("gradcheck") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_train_nb_via_cli_and_eval_with_lexicon(self, indexed, tmp_path, capsys):
        facts, aliases, questions, index = indexed
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("hanks\tPROPN\ntom\tPROPN\n")
        nb = tmp_path / "nb.qam"
        assert run_cli(
            "train",
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions),
            "--task", "RELATION", "--kind", "NB_MULTINOMIAL",
            "--alpha", "1.0", "--ratios", "1.0,0.0,0.0",
            "--out", str(nb),
        ) == 0
        code = run_cli(
            "eval",
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions), "--index", str(index),
            "--relation-model", str(nb), "--lexicon", str(lexicon),
            "--ratios", "1.0,0.0,0.0", "--split", "train",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "NB_MULTINOMIAL" in out



def insert_bytes(path, line_no, data):
    """Put data at the start of line line_no."""
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] = data + lines[line_no - 1]
    path.write_bytes(b"\n".join(lines))


def add_vocab_line(path):
    """One more VOCAB token than the model's arrays were made for."""
    line_no = first_line(path, "VOCAB ")
    replace_line(path, line_no, lambda line: f"VOCAB {int(line.split(' ')[1]) + 1}\nzzz")


def train_nt_bilstm1(toy, tmp_path):
    facts, aliases, questions, _ = toy
    path = tmp_path / "nt_bilstm1.qam"
    assert run_cli(
        "train",
        "--facts", str(facts), "--aliases", str(aliases),
        "--questions", str(questions),
        "--task", "ENTITY", "--kind", "NT_BILSTM1", "--hidden", "3",
        "--embedding-dim", "4", "--epochs", "1",
        "--ratios", "1.0,0.0,0.0", "--out", str(path),
    ) == 0
    return path


def edit_array(path, name, edit):
    """Replace the index array `name` by edit(a copy of it), and declare
    its new size; the number of its PARAM line."""
    text, payload = split_artifact(path)
    lines, arrays, at = text.split("\n"), [], 0
    for i, line in enumerate(lines):
        if line.startswith("PARAM "):
            param, size = line.split(" ")[1], int(line.split(" ")[3])
            dtype = "<f8" if param == "weights" else "<i4"
            array = np.frombuffer(payload, dtype, size, at).copy()
            at += array.nbytes
            if param == name:
                array, line_no = np.asarray(edit(array), dtype), i + 1
                lines[i] = f"PARAM {name} 1 {len(array)}"
            arrays.append(array)
    data = b"".join(a.tobytes() for a in arrays)
    lines[0] = " ".join(f"payload={len(data)}" if f.startswith("payload=") else f
                        for f in lines[0].split(" "))
    path.write_bytes("\n".join(lines).encode("utf-8") + data)
    return line_no


def set_values(name, values):
    """A corruption that sets array `name` to values {place: value}."""
    def corrupt(path):
        def edit(a):
            a[list(values)] = list(values.values())
            return a
        return edit_array(path, name, edit)

    corrupt.__name__ = f"{name}_" + "_".join(f"{at}_{v}" for at, v in values.items())
    return corrupt


def edit_rows(section, edit):
    """A corruption that replaces a section's rows by edit(rows)."""
    def corrupt(path):
        line_no = first_line(path, f"{section} ")
        n = int(split_artifact(path)[0].split("\n")[line_no - 1].split(" ")[1])
        def change(text):
            lines = text.split("\n")
            lines[line_no : line_no + n] = edit(lines[line_no : line_no + n])
            return "\n".join(lines)
        edit_text(path, change)
        return line_no

    return corrupt


def keep_header_only(path):
    path.write_text("QAIDX 3 payload=0 aliases=4\n")
    return 2


def cut_posting(path):
    """A posting row with its n-gram but no entity: the one posting of
    "jane", row 2, is dropped."""
    line_no = edit_array(path, "offsets", lambda o: np.concatenate([o[:3], o[3:] - 1]))
    for name in ("entities", "weights"):
        edit_array(path, name, lambda a: np.delete(a, 3))
    return line_no


def bad_weight(path):
    """One weight fewer than the postings hold, in PARAM and payload alike."""
    return edit_array(path, "weights", lambda weights: weights[:-1])


def param_without_shape(path):
    line_no = first_line(path, "PARAM weights ")
    replace_line(path, line_no, lambda line: "PARAM weights")
    return line_no


def bad_alias_count(path):
    replace_line(path, 1, lambda line: line.replace(" aliases=", " aliases=x"))
    return 1


def qaidx_1(path):
    path.write_text("QAIDX 1\nALIASES 4\nDF 0\nPOSTINGS 0\nEDGES 0\n")
    return 1


def qaidx_2(path):
    path.write_text("QAIDX 2 payload=0 aliases=4\nPARAM weight 1 0\nPOSTINGS 0\nEDGES 0\n")
    return 1


def payload_short(path):
    replace_payload(path, split_artifact(path)[1][:-1])
    return 1


def payload_long(path):
    replace_payload(path, split_artifact(path)[1] + b"\0")
    return 1


def swap_first_two(rows):
    return [rows[1], rows[0], *rows[2:]]


def repeat_first(rows):
    return [rows[0], rows[0], *rows[2:]]


def unsorted_names(path):
    return edit_rows("NAMES", swap_first_two)(path)


def duplicate_names(path):
    return edit_rows("NAMES", repeat_first)(path)


def unsorted_grams(path):
    return edit_rows("POSTINGS", swap_first_two)(path)


def duplicate_grams(path):
    return edit_rows("POSTINGS", repeat_first)(path)


def unsorted_relations(path):
    return edit_rows("RELATIONS", swap_first_two)(path)


# (what is wrong) -> corruption, each found at its array's PARAM line
ARRAY_DEFECTS = [
    set_values("offsets", {0: 1}),  # does not start at 0
    set_values("offsets", {7: 10}),  # ends past the entities
    set_values("offsets", {7: 8}),  # ends before them
    set_values("offsets", {2: 0}),  # falls
    set_values("offsets", {2: 1}),  # an empty row
    set_values("entities", {0: 3}),  # rank out of range
    set_values("entities", {0: -1}),
    set_values("entities", {1: 2, 2: 0}),  # the row of "hanks", e1 e3, falls
    set_values("weights", {0: float("nan")}),
    set_values("weights", {0: float("inf")}),
    set_values("weights", {0: 0.0}),
    set_values("weights", {0: -1.0}),
    set_values("edge_offsets", {0: 1}),
    set_values("edge_offsets", {3: 5}),
    set_values("edge_offsets", {2: 1}),  # falls
    set_values("relations", {0: 2}),  # id out of range
    set_values("relations", {0: -1}),
]


class TestCandidateCapBelowOne:
    """k < 1 is a usage error raised while the options are parsed, before
    any file is read or anything is printed."""

    def ask(self, indexed, tmp_path, *extra):
        em, rm = train_toy_models(indexed, tmp_path)
        return ("ask", "--question", "How old is Tom Hanks?", "--index", str(indexed[3]),
                "--entity-model", str(em), "--relation-model", str(rm), *extra)

    def eval(self, indexed, tmp_path, *extra, relation_model=True):
        em, rm = train_toy_models(indexed, tmp_path)
        models = ("--entity-model", str(em))
        if relation_model:
            models += ("--relation-model", str(rm))
        return ("eval", "--facts", str(indexed[0]), "--aliases", str(indexed[1]),
                "--questions", str(indexed[2]), "--index", str(indexed[3]), *models,
                "--ratios", "1.0,0.0,0.0", "--split", "train", *extra)

    def rejected(self, capsys, argv):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert "--k: must be >= 1, got 0" in captured.err

    def test_ask(self, indexed, tmp_path, capsys):
        self.rejected(capsys, self.ask(indexed, tmp_path, "--k", "0"))

    def test_eval_with_entity_model_only(self, indexed, tmp_path, capsys):
        self.rejected(capsys, self.eval(indexed, tmp_path, "--k", "0", relation_model=False))

    def test_eval_with_both_models(self, indexed, tmp_path, capsys):
        self.rejected(capsys, self.eval(indexed, tmp_path, "--k", "0"))

    @pytest.mark.parametrize("verb", ["ask", "eval"])
    def test_config_key(self, indexed, tmp_path, capsys, verb):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=-3\n")
        argv = getattr(self, verb)(indexed, tmp_path, "--config", str(cfg))
        capsys.readouterr()
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{cfg}:1: bad value '-3' for key 'k': must be >= 1" in captured.err

    def test_non_integer(self, indexed, tmp_path, capsys):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            run_cli(*self.ask(indexed, tmp_path, "--k", "many"))
        assert err.value.code == 2
        assert "expected an integer, got 'many'" in capsys.readouterr().err

class TestArtifactErrors:
    """A malformed index or model file exits 1 and names the bad line."""

    def ask(self, index, em, rm):
        return run_cli(
            "ask", "--question", "How old is Tom Hanks?", "--index", str(index),
            "--entity-model", str(em), "--relation-model", str(rm),
        )

    @pytest.mark.parametrize(
        "corrupt", [keep_header_only, cut_posting, bad_weight, param_without_shape,
                    bad_alias_count, qaidx_1, qaidx_2, payload_short, payload_long,
                    unsorted_names, duplicate_names, unsorted_grams, duplicate_grams,
                    unsorted_relations, *ARRAY_DEFECTS]
    )
    def test_bad_index(self, indexed, tmp_path, capsys, corrupt):
        em, rm = train_toy_models(indexed, tmp_path)
        index = indexed[3]
        line_no = corrupt(index)
        capsys.readouterr()
        assert self.ask(index, em, rm) == 1
        assert f"{index}:{line_no}: " in capsys.readouterr().err

    def test_old_index_names_its_version(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        qaidx_2(indexed[3])
        capsys.readouterr()
        assert self.ask(indexed[3], em, rm) == 1
        err = capsys.readouterr().err
        assert f"{indexed[3]}:1: QAIDX 2 files are not read" in err
        assert "rebuild the index" in err

    def test_truncated_model(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        n_lines = split_artifact(rm)[0].count("\n")
        rm.write_bytes(rm.read_bytes()[:-5])
        capsys.readouterr()
        assert self.ask(indexed[3], em, rm) == 1
        assert f"{rm}:{n_lines}: " in capsys.readouterr().err

    def rejects(self, capsys, index, em, rm, path, line_no):
        """ask exits 1 and names path:line_no, and nothing else goes wrong;
        returns the error text."""
        capsys.readouterr()
        assert self.ask(index, em, rm) == 1
        err = capsys.readouterr().err
        assert f"{path}:{line_no}: " in err
        return err

    def test_non_utf8_index(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        index = indexed[3]
        line_no = first_line(index, "POSTINGS ") + 1
        insert_bytes(index, line_no, b"\xff")
        self.rejects(capsys, index, em, rm, index, line_no)

    def test_huge_hidden_size_rejected_before_allocating(self, indexed, tmp_path, capsys):
        """A header that implies far more values than the payload holds."""
        _, rm = train_toy_models(indexed, tmp_path)
        em = tmp_path / "golden.qam"
        em.write_bytes(GOLDEN.read_bytes())
        replace_line(em, 1, lambda line: line.replace(" hidden=3 ", " hidden=300000000000 "))
        self.rejects(capsys, indexed[3], em, rm, em, 1)

    def test_non_utf8_model(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        insert_bytes(rm, 3, b"\xfe")
        self.rejects(capsys, indexed[3], em, rm, rm, 3)

    def test_vocab_longer_than_embedding(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        em = train_nt_bilstm1(indexed, tmp_path)
        add_vocab_line(em)
        self.rejects(capsys, indexed[3], em, rm, em, first_line(em, "PARAM embedding.E "))

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one(self, indexed, tmp_path, capsys, max_len):
        """A tagger that reads no token would tag every one as entity."""
        _, rm = train_toy_models(indexed, tmp_path)
        em = train_nt_bilstm1(indexed, tmp_path)
        replace_line(em, 1, lambda line: " ".join(
            f"max_len={max_len}" if f.startswith("max_len=") else f for f in line.split(" ")))
        err = self.rejects(capsys, indexed[3], em, rm, em, 1)
        assert f"max_len must be >= 1, got {max_len}" in err

    @pytest.mark.parametrize("side", ["entity", "relation"])
    def test_repeated_vocab_token(self, indexed, tmp_path, capsys, side):
        """Two VOCAB rows of an NT_BILSTM1 or a Naive Bayes model read
        `hanks`: the later one is named."""
        _, rm = train_toy_models(indexed, tmp_path, relation_kind="NB_MULTINOMIAL")
        em = train_nt_bilstm1(indexed, tmp_path)
        path = em if side == "entity" else rm
        first = first_line(path, "VOCAB ") + 1
        rows = split_artifact(path)[0].split("\n")[first - 1 :]
        at = rows.index("hanks")
        other = 1 if at == 0 else 0
        replace_line(path, first + other, lambda line: "hanks")
        err = self.rejects(capsys, indexed[3], em, rm, path, first + max(at, other))
        assert f"VOCAB token 'hanks' repeats line {first + min(at, other)}" in err

    @pytest.mark.parametrize("counts", ["1.0 1.0 3.0", "3.0"])
    def test_majority_counts_do_not_match_labels(self, indexed, tmp_path, capsys, counts):
        em, rm = train_toy_models(indexed, tmp_path)
        values = np.array(counts.split(), dtype="<f8")
        line_no = first_line(rm, "PARAM counts ")
        replace_line(rm, line_no, lambda line: f"PARAM counts 1 {len(values)}")
        replace_payload(rm, values.tobytes())
        self.rejects(capsys, indexed[3], em, rm, rm, line_no)

    def test_nb_vocab_longer_than_token_counts(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path, relation_kind="NB_MULTINOMIAL")
        add_vocab_line(rm)
        self.rejects(capsys, indexed[3], em, rm, rm, first_line(rm, "PARAM token_counts "))

    def test_majority_without_labels(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        start = first_line(rm, "LABELS ") - 1

        def drop_labels(text):
            lines = text.split("\n")
            del lines[start : start + 1 + int(lines[start].split(" ")[1])]
            return "\n".join(lines)

        edit_text(rm, drop_labels)
        self.rejects(capsys, indexed[3], em, rm, rm, 1)

    def test_unexpected_parameter_block(self, indexed, tmp_path, capsys):
        em, rm = train_toy_models(indexed, tmp_path)
        payload = split_artifact(rm)[1]
        edit_text(rm, lambda text: text + "PARAM extra 1 1\n")
        replace_payload(rm, payload + bytes(8))
        line_no = first_line(rm, "PARAM extra ")
        self.rejects(capsys, indexed[3], em, rm, rm, line_no)


class TestDataFileErrors:
    """A data file that is not UTF-8 exits 1 and names the bad line."""

    @pytest.mark.parametrize("which", ["facts", "aliases", "questions", "embeddings", "lexicon"])
    def test_train_inputs(self, toy_files, tmp_path, capsys, which):
        facts, aliases, questions = toy_files
        embeddings = tmp_path / "emb.txt"
        embeddings.write_text("tom 0.1 0.2\nhanks 0.3 0.4\nhow 0.5 0.6\n")
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("tom\tPROPN\nhanks\tPROPN\nold\tADJ\n")
        bad = {"facts": facts, "aliases": aliases, "questions": questions,
               "embeddings": embeddings, "lexicon": lexicon}[which]
        insert_bytes(bad, 2, "\u00e9".encode("utf-8") + b"\xe9")
        code = run_cli(
            "train",
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions),
            "--embeddings", str(embeddings), "--embedding-dim", "2",
            "--lexicon", str(lexicon),
            "--task", "ENTITY", "--kind", "NT_BILSTM1", "--hidden", "2", "--epochs", "1",
            "--ratios", "1.0,0.0,0.0", "--out", str(tmp_path / "m.qam"),
        )
        assert code == 1
        assert f"{bad}:2: " in capsys.readouterr().err


    def test_lexicon_row_with_an_empty_token(self, indexed, tmp_path):
        """`qa ask` exits 1 naming the lexicon's line, where a row with no
        token was once stored under the empty token."""
        em, rm = train_toy_models(indexed, tmp_path)
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("tom\tPROPN\n\tNOUN\n")
        code, err = qa("ask", "--question", "How old is Tom Hanks?", "--index", indexed[3],
                       "--entity-model", em, "--relation-model", rm, "--lexicon", lexicon)
        assert code == 1, err
        assert "Traceback" not in err
        assert f"{lexicon}:2: empty field" in err

    def test_fact_subject_without_alias(self, toy_files, tmp_path, capsys):
        facts, aliases, _ = toy_files
        facts.write_text(facts.read_text() + "e9\tbornOn\t1900\n")
        code = run_cli("build-index", "--facts", str(facts), "--aliases", str(aliases),
                       "--out", str(tmp_path / "kb.qaidx"))
        assert code == 1
        assert f"{facts}:5: fact subject 'e9'" in capsys.readouterr().err


class TestNotARegularFile:
    """A directory where a file is read exits 1 with an error naming the
    flag's file kind and the path, not a traceback."""

    @pytest.mark.parametrize("argv, message", [
        (("build-index", "--facts", "{dir}", "--aliases", "{dir}/aliases.tsv",
          "--out", "{dir}/kb.qaidx"), "facts file is not a regular file: {dir}"),
        (("ask", "--question", "how old is tom hanks", "--index", "{dir}",
          "--entity-model", "{dir}/e.qam", "--relation-model", "{dir}/r.qam"),
         "index file is not a regular file: {dir}"),
    ])
    def test_directory(self, toy_files, argv, message):
        folder = str(toy_files[0].parent)
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "kbqa.cli", *(a.format(dir=folder) for a in argv)],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        assert message.format(dir=folder) in result.stderr


class TestDeterminism:
    def test_train_and_eval_byte_identical(self, indexed, tmp_path, capsys):
        facts, aliases, questions, index = indexed
        outputs = []
        for tag in ("a", "b"):
            model = tmp_path / f"model_{tag}.qam"
            code = run_cli(
                "train",
                "--facts", str(facts), "--aliases", str(aliases),
                "--questions", str(questions),
                "--task", "ENTITY", "--kind", "NT_BILSTM1",
                "--hidden", "6", "--desk-scale", "1",
                "--epochs", "2", "--batch-size", "2",
                "--ratios", "0.7,0.1,0.2", "--seed", "13",
                "--embedding-dim", "8",
                "--out", str(model),
            )
            assert code == 0
            prefix = tmp_path / f"report_{tag}"
            code = run_cli(
                "eval",
                "--facts", str(facts), "--aliases", str(aliases),
                "--questions", str(questions), "--index", str(index),
                "--entity-model", str(model),
                "--ratios", "0.7,0.1,0.2", "--split", "all", "--seed", "13",
                "--report-out", str(prefix),
            )
            assert code == 0
            outputs.append(
                (
                    model.read_bytes(),
                    (tmp_path / f"report_{tag}.txt").read_bytes(),
                    (tmp_path / f"report_{tag}.tsv").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]


class TestTuneAndBenchmark:
    def test_tune_toy(self, indexed, capsys):
        facts, aliases, questions, index = indexed
        code = run_cli(
            "tune",
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions),
            "--task", "RELATION", "--kind", "CONV_GRU",
            "--hidden", "4", "--embedding-dim", "6",
            "--epochs", "1", "--batch-size", "2",
            "--ratios", "0.5,0.5,0.0",
            "--budget", "3", "--seed", "3",
            "--dim", "learning_rate=0.001,0.01",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "best: learning_rate=" in out

    def test_benchmark_toy(self, indexed, capsys):
        facts, aliases, questions, index = indexed
        code = run_cli(
            "benchmark",
            "--facts", str(facts), "--aliases", str(aliases),
            "--questions", str(questions),
            "--task", "RELATION", "--kinds", "CONV_GRU,BIGRU2",
            "--desk-scale", "50", "--embedding-dim", "6",
            "--epochs", "1", "--batch-size", "2",
            "--ratios", "1.0,0.0,0.0",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CONV_GRU" in out and "BIGRU2" in out
        assert "about 40%" in out


def exit_code(*argv):
    """main's exit code; argparse reports a bad flag by raising SystemExit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


MISSING = ("--facts", "missing/facts.tsv", "--aliases", "missing/aliases.tsv",
           "--questions", "missing/questions.tsv")
VERB_ARGS = {
    "train": ("train", *MISSING, "--task", "RELATION", "--kind", "BIGRU2", "--out", "m.qam"),
    "tune": ("tune", *MISSING, "--task", "RELATION", "--kind", "BIGRU2",
             "--dim", "learning_rate=0.01"),
    "benchmark": ("benchmark", *MISSING, "--kinds", "CONV_GRU,BIGRU2"),
    "gradcheck": ("gradcheck",),
}


class TestBadValueBeforeAnyFile:
    """Every bad value exits 2 while the command line is parsed: the data
    files named here do not exist, and reading one would exit 1."""

    # (verb, flag, value, config line or None, what stderr says)
    DEFECTS = [
        ("train", "--desk-scale", "0", "desk_scale=0", "must be >= 1, got 0"),
        ("benchmark", "--desk-scale", "0", "desk_scale=0", "must be >= 1, got 0"),
        ("tune", "--desk-scale", "0", "desk_scale=0", "must be >= 1, got 0"),
        ("gradcheck", "--fd-step", "0", "fd_step=0", "must be > 0, got 0.0"),
        ("train", "--desk-scale", "-3", "desk_scale=-3", "must be >= 1, got -3"),
        ("train", "--hidden", "0,3", "hidden=0,3", "must be >= 1, got 0"),
        ("gradcheck", "--fd-step", "-1", "fd_step=-1", "must be > 0, got -1.0"),
        ("gradcheck", "--tolerance", "-1", "tolerance=-1", "must be > 0, got -1.0"),
        ("train", "--embedding-dim", "0", "embedding_dim=0", "must be >= 1, got 0"),
        ("train", "--epochs", "-1", "epochs=-1", "must be >= 0, got -1"),
        ("train", "--kind", "bogus", "kind=bogus", "unknown model kind 'bogus'"),
        ("tune", "--dim", "foo=1", None, "unknown tuning dimension 'foo'"),
        ("tune", "--dim", "learning_rate=0", None, "must be > 0, got 0.0"),
        ("tune", "--dim", "learning_rate=0.1,0.10", None, "learning_rate repeats the value 0.1"),
        ("tune", "--dim", "dropout=0.2,0,0.2", None, "dropout repeats the value 0.2"),
        ("tune", "--dim", "learning_rate=0.001,0.1", None,
         "--dim learning_rate is given more than once"),
        ("train", "--dropout", "0.1,1", "dropout=0.1,1", "must be < 1, got 1.0"),
        ("train", "--ratios", "0.5,0.2,0.2", "ratios=0.5,0.2,0.2", "must sum to 1"),
        ("benchmark", "--kinds", "CONV_GRU,TRANSFORMER", None, "unknown model kind 'TRANSFORMER'"),
    ]

    def check(self, capsys, argv, reason):
        capsys.readouterr()
        assert exit_code(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert reason in captured.err
        return captured.err

    @pytest.mark.parametrize("verb, flag, value, line, reason", DEFECTS)
    def test_flag(self, capsys, verb, flag, value, line, reason):
        err = self.check(capsys, VERB_ARGS[verb] + (flag, value), reason)
        assert flag in err

    @pytest.mark.parametrize("verb, flag, value, line, reason",
                             [d for d in DEFECTS if d[3] is not None])
    def test_config_key(self, capsys, tmp_path, verb, flag, value, line, reason):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# one bad value\n{line}\n")
        argv = VERB_ARGS[verb] + ("--config", str(cfg))
        self.check(capsys, argv, f"{cfg}:2: bad value {value!r} for key ")

    @pytest.mark.parametrize("flag, value", [("--kind", "BIGRU2"), ("--hidden", "4"),
                                             ("--dropout", "0.1"), ("--alpha", "2")])
    def test_benchmark_drops_flags_it_ignored(self, capsys, flag, value):
        self.check(capsys, VERB_ARGS["benchmark"] + (flag, value), f"unrecognized arguments: {flag}")

    @pytest.mark.parametrize("verb", ["train", "tune", "benchmark"])
    def test_valid_values_reach_the_files(self, capsys, verb):
        """The same command lines with good values read the data and exit 1."""
        capsys.readouterr()
        assert exit_code(*VERB_ARGS[verb]) == 1
        assert "facts file not found: missing/facts.tsv" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, reason", [
        (("train", *MISSING, "--kind", "BIGRU2", "--out", "m.qam"), "--task is required"),
        (("train", *MISSING, "--task", "RELATION", "--out", "m.qam"), "--kind is required"),
        (("tune", *MISSING, "--task", "RELATION", "--kind", "BIGRU2"), "required: --dim"),
        (("benchmark", *MISSING), "--kinds is required"),
    ])
    def test_missing_value(self, capsys, argv, reason):
        self.check(capsys, argv, reason)

    @pytest.mark.parametrize("data", ["missing", "data/toy"])
    def test_eval_without_models(self, capsys, monkeypatch, data):
        """Neither model: exit 2 before the data files (which exist in
        data/toy, but give an empty test split) or the index are read."""
        monkeypatch.chdir(Path(__file__).parents[1])
        argv = ("eval", "--facts", f"{data}/facts.tsv", "--aliases", f"{data}/aliases.tsv",
                "--questions", f"{data}/questions.tsv", "--index", "missing/toy.qaidx")
        self.check(capsys, argv, "eval needs --entity-model and/or --relation-model")


def qa(*argv, stdout=subprocess.PIPE):
    """`qa argv` run as a subprocess: its exit code and stderr."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-m", "kbqa.cli", *map(str, argv)], stdout=stdout,
                            stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    return result.returncode, result.stderr


class TestKindOrTaskThatCannotServe:
    """A model kind or task that cannot serve the command exits with a named
    error, never a traceback or a run that changes nothing.  Each case runs
    `qa` as a subprocess; MISSING names data files that do not exist, so a
    2 there means the command stopped before reading any."""

    def check(self, argv, code, reason):
        got, err = qa(*argv)
        assert got == code, err
        assert "Traceback" not in err
        assert reason in err

    @pytest.mark.parametrize("task, kind, serves", [("RELATION", "NAIVE_ALL_ENTITY", "ENTITY"),
                                                    ("ENTITY", "MAJORITY", "RELATION"),
                                                    ("ENTITY", "NB_MULTINOMIAL", "RELATION")])
    def test_train_baseline_for_the_other_task(self, task, kind, serves):
        self.check(("train", *MISSING, "--task", task, "--kind", kind, "--out", "m.qam"), 2,
                   f"{kind} serves the {serves} task, not {task}")

    @pytest.mark.parametrize("argv, reason", [
        (("--task", "RELATION", "--kind", "NAIVE_ALL_ENTITY", "--dim", "learning_rate=0.1"),
         "NAIVE_ALL_ENTITY serves the ENTITY task, not RELATION"),
        (("--task", "RELATION", "--kind", "MAJORITY", "--dim", "learning_rate=0.1,0.2"),
         "tune searches how neural kinds train, and MAJORITY is not one"),
        (("--task", "RELATION", "--kind", "CONV_GRU", "--dim", "hidden_ratio=1,4"),
         "--dim hidden_ratio needs two recurrent layers, but this CONV_GRU has 1"),
        (("--task", "ENTITY", "--kind", "BILSTM2", "--hidden", "6", "--dim", "hidden_ratio=2"),
         "--dim hidden_ratio needs two recurrent layers, but this BILSTM2 has 1"),
    ])
    def test_tune_that_cannot_change_the_model(self, argv, reason):
        self.check(("tune", *MISSING, *argv), 2, reason)

    def test_benchmark_baseline_kind(self):
        self.check(("benchmark", *MISSING, "--kinds", "MAJORITY,BIGRU2"), 2,
                   "argument --kinds: benchmark compares neural kinds, and MAJORITY is not one")

    def test_model_in_the_wrong_slot(self, indexed, tmp_path):
        em, rm = train_toy_models(indexed, tmp_path)
        facts, aliases, questions, index = indexed
        ask = ("ask", "--question", "How old is Tom Hanks?", "--index", index)
        data = ("eval", "--facts", facts, "--aliases", aliases, "--questions", questions,
                "--index", index, "--split", "all")
        wrong_relation = f"{em} holds a model for the ENTITY task, not RELATION"
        wrong_entity = f"{rm} holds a model for the RELATION task, not ENTITY"
        self.check((*ask, "--entity-model", em, "--relation-model", em), 1, wrong_relation)
        self.check((*ask, "--entity-model", rm, "--relation-model", rm), 1, wrong_entity)
        self.check((*data, "--relation-model", em), 1, wrong_relation)
        self.check((*data, "--entity-model", rm), 1, wrong_entity)

    def test_saved_baseline_for_the_other_task(self, indexed, tmp_path):
        """A model file that pairs a baseline kind with the other task (older
        versions trained and saved them) is rejected at line 1."""
        em, _ = train_toy_models(indexed, tmp_path)
        bad = tmp_path / "bad.qam"
        bad.write_bytes(em.read_bytes())
        edit_text(bad, lambda text: text.replace("task=ENTITY", "task=RELATION", 1))
        self.check(("ask", "--question", "How old is Tom Hanks?", "--index", indexed[3],
                    "--entity-model", em, "--relation-model", bad), 1,
                   f"{bad}:1: bad model header: ValueError('NAIVE_ALL_ENTITY serves the ENTITY task")


class TestPathErrors:
    """A path that cannot be read or written, or a closed stdout, exits 1
    with one line on stderr, never a traceback, and an output that is not
    a regular file is written in place.  Each case runs `qa` as a
    subprocess; MISSING names data files that do not exist, so an error
    about the output shows that it was checked before any data file was
    read."""

    def check(self, argv, reason, stdout=subprocess.PIPE):
        code, err = qa(*argv, stdout=stdout)
        assert code == 1, err
        assert "Traceback" not in err
        assert err == f"error: {reason}\n"

    def test_output_in_a_missing_directory(self, toy_files, tmp_path):
        facts, aliases, questions = toy_files
        out = tmp_path / "missing" / "x"
        not_there = f"{tmp_path / 'missing'} is not a writable directory"
        self.check(("build-index", "--facts", facts, "--aliases", aliases,
                    "--out", f"{out}.qaidx"), f"{out}.qaidx: {not_there}")
        self.check(("train", *MISSING, "--task", "RELATION", "--kind", "MAJORITY",
                    "--out", f"{out}.qam"), f"{out}.qam: {not_there}")
        self.check(("eval", *MISSING, "--index", "missing/toy.qaidx",
                    "--relation-model", "missing/r.qam", "--report-out", out),
                   f"{out}.txt: {not_there}")

    def test_output_that_is_a_directory(self, toy_files, tmp_path):
        facts, aliases, _ = toy_files
        self.check(("build-index", "--facts", facts, "--aliases", aliases, "--out", tmp_path),
                   f"{tmp_path}: Is a directory")
        self.check(("build-index", *MISSING[:4], "--out", tmp_path), f"{tmp_path}: Is a directory")
        self.check(("train", *MISSING, "--task", "RELATION", "--kind", "MAJORITY",
                    "--out", tmp_path), f"{tmp_path}: Is a directory")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_output_on_a_full_device(self, toy_files):
        """A write that fails for want of space names the output."""
        facts, aliases, _ = toy_files
        self.check(("build-index", "--facts", facts, "--aliases", aliases, "--out", "/dev/full"),
                   f"/dev/full: {os.strerror(errno.ENOSPC)}")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_stdout_on_a_full_device(self, toy_files, tmp_path, monkeypatch):
        """stdout block-buffered, as Python makes it for a file, so the
        write fails at main's last flush: the error names stdout, and the
        flush at exit adds nothing."""
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        facts, aliases, _ = toy_files
        with open("/dev/full", "wb") as full:
            self.check(("build-index", "--facts", facts, "--aliases", aliases,
                        "--out", tmp_path / "toy.qaidx"),
                       f"stdout: {os.strerror(errno.ENOSPC)}", stdout=full)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_stdout_on_a_full_device_unbuffered(self, toy_files, tmp_path, monkeypatch):
        """stdout unbuffered, so the write fails in the print itself: the
        error names stdout all the same."""
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        facts, aliases, _ = toy_files
        with open("/dev/full", "wb") as full:
            self.check(("build-index", "--facts", facts, "--aliases", aliases,
                        "--out", tmp_path / "toy.qaidx"),
                       f"stdout: {os.strerror(errno.ENOSPC)}", stdout=full)

    def test_output_to_a_pipe(self, toy_files):
        """`--out /dev/stdout` with stdout a pipe, which no path in the file
        system names, is written in place."""
        facts, aliases, _ = toy_files
        read, write = os.pipe()
        try:
            result = qa("build-index", "--facts", facts, "--aliases", aliases,
                        "--out", "/dev/stdout", stdout=write)
        finally:
            os.close(write)
        with os.fdopen(read, "rb") as fh:
            assert fh.read().startswith(b"QAIDX 3 payload=")
        assert result == (0, "")

    def test_closed_stdout(self, indexed, tmp_path):
        """stdout is a pipe whose reader has gone: exit 1 and nothing on
        stderr, not even an "Exception ignored" line at shutdown."""
        em, rm = train_toy_models(indexed, tmp_path)
        read, write = os.pipe()
        os.close(read)
        try:
            result = qa("ask", "--question", "How old is Tom Hanks?", "--index", indexed[3],
                        "--entity-model", em, "--relation-model", rm, stdout=write)
        finally:
            os.close(write)
        assert result == (1, "")


def test_tune_trains_the_descriptor_of_each_config(indexed, capsys, monkeypatch):
    """Through `qa tune`: hidden_ratio sets the first of two recurrent
    layers to that multiple of the second, and dropout sets every rate."""
    trained = []
    build = cli.build_model

    def recording(desc, *args, **kwargs):
        trained.append(desc)
        return build(desc, *args, **kwargs)

    monkeypatch.setattr(cli, "build_model", recording)
    facts, aliases, questions, _ = indexed
    assert run_cli("tune", "--facts", str(facts), "--aliases", str(aliases),
                   "--questions", str(questions), "--task", "RELATION", "--kind", "BIGRU2",
                   "--hidden", "8,4", "--embedding-dim", "6", "--epochs", "1",
                   "--batch-size", "2", "--ratios", "0.5,0.5,0.0", "--budget", "4",
                   "--dim", "hidden_ratio=0.5,3", "--dim", "dropout=0,0.4") == 0
    assert sorted((d.hidden_sizes, d.dropout_rates) for d in trained) == [
        ((2, 4), (0.0, 0.0)), ((2, 4), (0.4, 0.4)), ((12, 4), (0.0, 0.0)), ((12, 4), (0.4, 0.4))]
    assert "best: hidden_ratio=" in capsys.readouterr().out


def test_tune_trains_with_the_options_of_each_config(indexed, monkeypatch):
    """Through `qa tune`: a config's learning_rate reaches the optimizer and
    its l1_activity the TrainConfig; every other training value is the
    run's."""
    optimizers, configs = [], []
    make_optimizer, train = cli.make_optimizer, cli.train

    def making(kind, learning_rate, **kwargs):
        optimizers.append((kind, learning_rate, kwargs))
        return make_optimizer(kind, learning_rate, **kwargs)

    def training(model, train_set, config, optimizer, **kwargs):
        configs.append(config)
        return train(model, train_set, config, optimizer, **kwargs)

    monkeypatch.setattr(cli, "make_optimizer", making)
    monkeypatch.setattr(cli, "train", training)
    facts, aliases, questions, _ = indexed
    assert run_cli("tune", "--facts", str(facts), "--aliases", str(aliases),
                   "--questions", str(questions), "--task", "RELATION", "--kind", "CONV_GRU",
                   "--hidden", "4", "--embedding-dim", "6", "--epochs", "2", "--batch-size", "3",
                   "--max-len", "12", "--seed", "7", "--ratios", "0.5,0.5,0.0",
                   "--optimizer", "ADAM_DECOUPLED", "--weight-decay", "0.25",
                   "--learning-rate", "0.5", "--l1-activity", "0.5", "--budget", "4",
                   "--dim", "learning_rate=0.001,0.01", "--dim", "l1_activity=0,0.002") == 0
    assert sorted((lr, c.l1_activity) for (_, lr, _), c in zip(optimizers, configs)) == [
        (0.001, 0.0), (0.001, 0.002), (0.01, 0.0), (0.01, 0.002)]
    assert {(kind, kwargs["weight_decay"]) for kind, _, kwargs in optimizers} == {
        ("ADAM_DECOUPLED", 0.25)}
    assert {(c.epochs, c.batch_size, c.max_len, c.seed) for c in configs} == {(2, 3, 12, 7)}


def test_tune_reads_the_embeddings_once(indexed, tmp_path, capsys, monkeypatch):
    """All trials of a `qa tune` run share one embedding table."""
    calls = []
    load_embeddings = cli.load_embeddings

    def loading(*args):
        calls.append(args)
        return load_embeddings(*args)

    monkeypatch.setattr(cli, "load_embeddings", loading)
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{token} {i} 0.5 -0.5\n"
                               for i, token in enumerate(["how", "old", "is", "tom", "hanks"])))
    facts, aliases, questions, _ = indexed
    assert run_cli("tune", "--facts", str(facts), "--aliases", str(aliases),
                   "--questions", str(questions), "--task", "ENTITY", "--kind", "NT_BILSTM1",
                   "--hidden", "4", "--embeddings", str(vectors), "--embedding-dim", "3",
                   "--no-freeze-embeddings", "--epochs", "1", "--batch-size", "2",
                   "--ratios", "0.5,0.5,0.0", "--budget", "3",
                   "--dim", "learning_rate=0.001,0.01,0.1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["eval", "eval", "eval", "best:"]
    assert len(calls) == 1


def test_benchmark_weight_decay_reaches_the_optimizer(toy_files, monkeypatch):
    def benchmark_training(*args, **kwargs):
        optimizers.append(args[5]())
        return SimpleNamespace(to_text=lambda: "")

    optimizers = []
    monkeypatch.setattr(cli, "benchmark_training", benchmark_training)
    facts, aliases, questions = toy_files
    assert main(["benchmark", "--facts", str(facts), "--aliases", str(aliases),
                 "--questions", str(questions), "--kinds", "CONV_GRU,BIGRU2",
                 "--optimizer", "ADAM_DECOUPLED", "--weight-decay", "0.25"]) == 0
    assert optimizers[0].kind == "ADAM_DECOUPLED"
    assert optimizers[0].weight_decay == 0.25


def readme_walkthrough():
    """The README's data/toy commands, and the output it says the last prints."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## CLI walkthrough", 1)[1]
    script = section.split("```sh\n", 1)[1].split("```", 1)[0]
    printed = section.split("prints\n\n```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(c) for c in script.replace("\\\n", " ").split("\n\n")]
    return commands, printed


def test_readme_walkthrough(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).parents[1])
    commands, printed = readme_walkthrough()
    assert [c[:2] for c in commands] == [["qa", "build-index"], ["qa", "train"],
                                         ["qa", "train"], ["qa", "ask"]]
    for argv in commands:
        capsys.readouterr()
        assert main([a.replace("/tmp/", f"{tmp_path}/") for a in argv[1:]]) == 0
    assert capsys.readouterr().out == printed
    assert "score: 2.3655156698609248\n" in printed
