import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kbqa import corpus
from kbqa.corpus import (
    derive_gold_tags,
    load_embeddings,
    load_facts,
    load_questions,
    split_dataset,
)
from kbqa.errors import IntegrityError, ParseError, TaggingError

from corpora import save_kb
from oracles import load_facts_reference

TOY = os.path.join(os.path.dirname(__file__), os.pardir, "data", "toy")


class TestLoadFacts:
    def test_single_fact(self, tmp_path):
        facts = tmp_path / "f.tsv"
        aliases = tmp_path / "a.tsv"
        facts.write_text("e1\tbornOn\t1956\n")
        aliases.write_text("e1\tTom Hanks\n")
        kb = load_facts(str(facts), str(aliases))
        assert len(kb.facts) == 1
        assert kb.facts[0].subject == "e1"
        assert kb.aliases["e1"] == ("tom hanks",)

    def test_empty_files(self, tmp_path):
        facts = tmp_path / "f.tsv"
        aliases = tmp_path / "a.tsv"
        facts.write_text("")
        aliases.write_text("")
        kb = load_facts(str(facts), str(aliases))
        assert kb.facts == ()
        assert kb.aliases == {}

    def test_two_field_line_is_parse_error(self, tmp_path):
        facts = tmp_path / "f.tsv"
        aliases = tmp_path / "a.tsv"
        facts.write_text("e1\tbornOn\n")
        aliases.write_text("e1\tTom\n")
        with pytest.raises(ParseError) as err:
            load_facts(str(facts), str(aliases))
        assert err.value.line_no == 1

    @pytest.mark.parametrize("facts_text,aliases_text,bad,line_no", [
        ("\tbornOn\t1956\n", "e1\tTom\n", "f.tsv", 1),
        ("e1\t\t1956\n", "e1\tTom\n", "f.tsv", 1),
        ("e1\tbornOn\t\n", "e1\tTom\n", "f.tsv", 1),
        ("e1\tbornOn\t1956\n", "e1\tTom\n\tTom\n", "a.tsv", 2),
        ("e1\tbornOn\t1956\n", "e1\t\n", "a.tsv", 1),
    ])
    def test_empty_field_is_parse_error(self, tmp_path, facts_text, aliases_text, bad, line_no):
        (tmp_path / "f.tsv").write_text(facts_text)
        (tmp_path / "a.tsv").write_text(aliases_text)
        with pytest.raises(ParseError, match="empty field") as err:
            load_facts(str(tmp_path / "f.tsv"), str(tmp_path / "a.tsv"))
        assert (err.value.path, err.value.line_no) == (str(tmp_path / bad), line_no)

    @pytest.mark.parametrize("facts_text, aliases_text, bad, line_no", [
        ("e1\tbornOn\t1956\tx\ne1\tbornOn\n", "e1\tTom\n", "f.tsv", 1),
        ("e1\tbornOn\t1956\n", "e1\tTom\n\ne1\ne1\tTim\tTom\n", "a.tsv", 3),
    ])
    def test_field_counts_that_cancel_out(self, tmp_path, facts_text, aliases_text, bad, line_no):
        """One row too long and one too short hold as many fields as two
        good rows; the first of them is still named."""
        (tmp_path / "f.tsv").write_text(facts_text)
        (tmp_path / "a.tsv").write_text(aliases_text)
        for load in (load_facts, load_facts_reference):
            with pytest.raises(ParseError, match="tab-separated fields") as err:
                load(str(tmp_path / "f.tsv"), str(tmp_path / "a.tsv"))
            assert (err.value.path, err.value.line_no) == (str(tmp_path / bad), line_no)

    def test_subject_without_alias(self, tmp_path):
        facts = tmp_path / "f.tsv"
        aliases = tmp_path / "a.tsv"
        facts.write_text("e9\tbornOn\t1956\n")
        aliases.write_text("e1\tTom\n")
        with pytest.raises(IntegrityError, match="e9"):
            load_facts(str(facts), str(aliases))

    def test_alias_normalization_and_dedup(self, tmp_path):
        facts = tmp_path / "f.tsv"
        aliases = tmp_path / "a.tsv"
        facts.write_text("e1\tbornOn\t1956\n")
        aliases.write_text("e1\tTom  Hanks!\ne1\ttom hanks\ne1\tHanks\n")
        kb = load_facts(str(facts), str(aliases))
        assert kb.aliases["e1"] == ("tom hanks", "hanks")

    def test_punctuation_only_alias_rejected(self, tmp_path):
        facts = tmp_path / "f.tsv"
        aliases = tmp_path / "a.tsv"
        facts.write_text("e1\tbornOn\t1956\n")
        aliases.write_text("e1\t???\n")
        with pytest.raises(ParseError):
            load_facts(str(facts), str(aliases))

    def test_roundtrip(self, toy_kb, tmp_path):
        facts_out = tmp_path / "f2.tsv"
        aliases_out = tmp_path / "a2.tsv"
        save_kb(toy_kb, str(facts_out), str(aliases_out))
        reloaded = load_facts(str(facts_out), str(aliases_out))
        assert set(reloaded.facts) == set(toy_kb.facts)
        assert {e: set(a) for e, a in reloaded.aliases.items()} == {
            e: set(a) for e, a in toy_kb.aliases.items()
        }


READER_FACTS = "e1\tbornOn\t1956\ne1\tstarredIn\tm1\ne2\tbornOn\t1962\ne3\tbornOn\t1970\n"
READER_ALIASES = ("e1\tTom  Hanks!\ne1\t\"Tom\"   Hanks\ne1\tO'Brien, Jr.\ne2\tİstanbul\n"
                  "e2\tΟΔΥΣΣΕΥΣ\ne3\t(Spider-Man)\ne3\tspider man 2\ne3\tSpider\u2028Man\x0c3\n")
# how each case rewrites both files, and the line that a bad row inserted
# after the first row lands on
READER_CASES = {
    "lf": (lambda text: text, 2),
    "crlf": (lambda text: text.replace("\n", "\r\n"), 2),
    "lone_cr": (lambda text: text.replace("\n", "\r"), 2),
    "no_final_newline": (lambda text: text[:-1], 2),
    "blank_lines": (lambda text: "\n" + text.replace("\n", "\n\n\n"), 5),
    "bom": (lambda text: "\ufeff" + text, 2),
}


@pytest.mark.parametrize("case", READER_CASES)
def test_whole_file_reader_agrees_with_the_line_reader(tmp_path, monkeypatch, case):
    """load_facts gives the reference loader's facts and aliases across line
    ends, blank lines, a BOM and alias text that takes tokenize's slow
    path, without reading a file line by line; a bad row inserted after
    the first row sends that file to the line by line reader, whose
    ParseError names the row's line."""
    rewrite, bad_line = READER_CASES[case]
    line_reads = []
    read_fields = corpus._read_fields
    monkeypatch.setattr(corpus, "_read_fields",
                        lambda path, *args: line_reads.append(path) or read_fields(path, *args))
    paths = {name: tmp_path / name for name in ("facts.tsv", "aliases.tsv")}

    def write(facts_text, aliases_text):
        for path, text in zip(paths.values(), (facts_text, aliases_text)):
            path.write_bytes(rewrite(text).encode("utf-8"))
        return str(paths["facts.tsv"]), str(paths["aliases.tsv"])

    kb = load_facts(*write(READER_FACTS, READER_ALIASES))
    assert line_reads == []
    want = load_facts_reference(*write(READER_FACTS, READER_ALIASES))
    assert list(zip(kb.subjects, kb.relations, kb.objects)) == [
        (f.subject, f.relation, f.object) for f in want.facts]
    assert list(kb.aliases.items()) == list(want.aliases.items())
    # İ lowercases to i and a combining dot; a word-final sigma to ς
    assert len(kb.subjects) == 4 and kb.aliases["e2"] == ("i\u0307stanbul", "οδυσσευς")
    assert kb.subjects[0] == "e1" and list(kb.aliases)[0] == "e1"  # no BOM in the first field

    for name, bad_row in (("facts.tsv", "e4\tbornOn\n"), ("aliases.tsv", "e4\tx\ty\n")):
        texts = {"facts.tsv": READER_FACTS, "aliases.tsv": READER_ALIASES}
        first, rest = texts[name].split("\n", 1)
        texts[name] = f"{first}\n{bad_row}{rest}"
        for load in (load_facts, load_facts_reference):
            with pytest.raises(ParseError, match="tab-separated fields") as err:
                load(*write(texts["facts.tsv"], texts["aliases.tsv"]))
            assert (err.value.path, err.value.line_no) == (str(paths[name]), bad_line)
        assert line_reads == [str(paths[name])]
        line_reads.clear()


@pytest.mark.parametrize("bom_file", [0, 1, 2], ids=["facts", "aliases", "questions"])
def test_a_bom_on_one_file_is_not_part_of_its_first_field(toy_files, bom_file):
    """A file saved with a leading UTF-8 BOM (here only the facts, only the
    aliases or only the questions) names the same first entity as files
    saved without one."""
    path = toy_files[bom_file]
    path.write_bytes("\ufeff".encode("utf-8") + path.read_bytes())
    facts, aliases, questions = map(str, toy_files)
    kb = load_facts(facts, aliases)
    assert kb.subjects[0] == "e1" and sorted(kb.aliases) == ["e1", "e2", "e3"]
    assert load_questions(questions, kb)[0].gold_subject == "e1"


@pytest.mark.parametrize("aliases_text, line_no, message", [
    ("e1\tTom\ne1\t?!\ne1\tx\ty\n", 2, "empty after normalization"),
    ("e1\tTom\ne1\tx\ty\ne1\t?!\n", 2, "tab-separated fields"),
    ("e1\tTom\n\ne1\t...\ne1\tTim\n", 3, "empty after normalization"),
])
def test_first_defect_in_the_aliases_is_the_one_named(tmp_path, aliases_text, line_no, message):
    """An alias empty after normalization and a bad row: whichever comes
    first is reported, as the line by line reference does."""
    (tmp_path / "f.tsv").write_text("e1\tbornOn\t1956\n")
    (tmp_path / "a.tsv").write_text(aliases_text)
    for load in (load_facts, load_facts_reference):
        with pytest.raises(ParseError, match=message) as err:
            load(str(tmp_path / "f.tsv"), str(tmp_path / "a.tsv"))
        assert err.value.line_no == line_no


def test_undecodable_byte_is_named_before_an_earlier_field_defect(tmp_path):
    """load_facts decodes a file whole before it splits any row, so in a
    file longer than one read chunk a byte that is not UTF-8 near the end
    is named at its own line ahead of a wrong field count on line 2; the
    reference streams the file and names line 2."""
    rows = [f"e{i}\tbornOn\t{1900 + i % 100}\n" for i in range(1000)]
    rows[1] = "e1\tbornOn\n"
    rows[-1] = "e999\tbornOn\t\xff\n"
    data = "".join(rows).encode("utf-8").replace("\xff".encode("utf-8"), b"\xff")
    assert len(data) > 8192
    (tmp_path / "f.tsv").write_bytes(data)
    (tmp_path / "a.tsv").write_text("".join(f"e{i}\tE{i}\n" for i in range(1000)))
    paths = str(tmp_path / "f.tsv"), str(tmp_path / "a.tsv")
    with pytest.raises(ParseError, match="UTF-8") as err:
        load_facts(*paths)
    assert (err.value.path, err.value.line_no) == (paths[0], 1000)
    with pytest.raises(ParseError, match="tab-separated fields") as err:
        load_facts_reference(*paths)
    assert (err.value.path, err.value.line_no) == (paths[0], 2)


def damaged(data: bytes, values=b"\t\n\r x-\x00\xff"):
    """(kind, first damaged line, bytes) for every single-byte set, insert
    and delete of data, with each of values, and every truncation."""
    for i in range(len(data) + 1):
        line = data.count(b"\n", 0, i) + 1
        if i < len(data):
            yield from (("set", line, data[:i] + bytes([v]) + data[i + 1 :])
                        for v in values if v != data[i])
            yield "delete", line, data[:i] + data[i + 1 :]
        yield from (("insert", line, data[:i] + bytes([v]) + data[i:]) for v in values)
        yield "truncate", line, data[:i]


def load_outcome(load, facts, aliases):
    """The KB a loader returns, or the ParseError or IntegrityError it raises."""
    try:
        kb = load(facts, aliases)
    except (ParseError, IntegrityError) as exc:
        return exc
    return kb.facts, list(kb.aliases.items())


@pytest.mark.parametrize("target", ["facts.tsv", "aliases.tsv"])
def test_damaged_toy_file_loads_as_before_or_names_its_line(tmp_path, target):
    """Each damaged copy of a toy data file loads to the KB the reference
    loader returns, or raises the reference's ParseError at or after the
    first damaged line, or (a fact subject left with no alias) its
    IntegrityError; no other exception escapes."""
    paths = {name: str(tmp_path / name) for name in ("facts.tsv", "aliases.tsv")}
    for name, path in paths.items():
        with open(os.path.join(TOY, name), "rb") as src, open(path, "wb") as dst:
            dst.write(src.read())
    with open(paths[target], "rb") as fh:
        original = fh.read()
    seen = Counter()
    for kind, line, data in damaged(original):
        with open(paths[target], "wb") as fh:
            fh.write(data)
        got = load_outcome(load_facts, paths["facts.tsv"], paths["aliases.tsv"])
        want = load_outcome(load_facts_reference, paths["facts.tsv"], paths["aliases.tsv"])
        case = (kind, line, data)
        if isinstance(got, ParseError):
            assert got.path == paths[target] and got.line_no >= line, case
        elif isinstance(got, IntegrityError):
            assert "has no alias" in str(got), case
        assert type(got) is type(want) and repr(got) == repr(want), case
        seen[kind, type(got).__name__] += 1
    assert sum(seen.values()) > 800
    for kind in ("set", "insert", "delete", "truncate"):
        assert seen[kind, "tuple"] and seen[kind, "ParseError"], seen
    assert seen["set", "IntegrityError"], seen


class TestDeriveGoldTags:
    def test_longest_match_wins(self):
        tags = derive_gold_tags(
            ["where", "was", "tom", "hanks", "born"], {"tom hanks", "hanks"}
        )
        assert tags == [0, 0, 1, 1, 0]

    def test_single_token(self):
        assert derive_gold_tags(["hanks"], {"hanks"}) == [1]

    def test_no_match(self):
        with pytest.raises(TaggingError):
            derive_gold_tags(["a", "b"], {"c"})

    def test_tie_earliest_start(self):
        assert derive_gold_tags(["bob", "x", "bob"], {"bob"}) == [1, 0, 0]

    def test_tie_lexicographic_alias(self):
        # both aliases match a length-1 span at position 0
        assert derive_gold_tags(["ann", "bob"], {"bob", "ann"}) == [1, 0]

    def test_empty_tokens(self):
        with pytest.raises(TaggingError):
            derive_gold_tags([], {"a"})


class TestLoadQuestions:
    def test_annotation(self, toy_files, toy_kb):
        _, _, questions_path = toy_files
        questions = load_questions(str(questions_path), toy_kb)
        assert len(questions) == 4
        first = questions[0]
        assert first.tokens == ("how", "old", "is", "tom", "hanks")
        assert first.gold_tags == (0, 0, 0, 1, 1)
        assert first.gold_subject == "e1"
        assert first.gold_relation == "bornOn"

    def test_full_span_alias(self, tmp_path):
        facts = tmp_path / "f.tsv"
        aliases = tmp_path / "a.tsv"
        questions = tmp_path / "q.tsv"
        facts.write_text("e1\tbornOn\t1956\n")
        aliases.write_text("e1\tTom Hanks\n")
        questions.write_text("e1\tbornOn\t1956\tTom Hanks\n")
        kb = load_facts(str(facts), str(aliases))
        qs = load_questions(str(questions), kb)
        assert qs[0].gold_tags == (1, 1)

    def test_unmatched_subject_raises(self, tmp_path, toy_kb):
        questions = tmp_path / "q.tsv"
        questions.write_text("e1\tbornOn\t1956\tWho wrote this book?\n")
        with pytest.raises(TaggingError):
            load_questions(str(questions), toy_kb)

    def test_skip_flag(self, tmp_path, toy_kb):
        questions = tmp_path / "q.tsv"
        questions.write_text(
            "e1\tbornOn\t1956\tWho wrote this book?\n"
            "e1\tbornOn\t1956\tHow old is Tom Hanks?\n"
        )
        qs = load_questions(str(questions), toy_kb, skip_unmatched=True)
        assert len(qs) == 1

    def test_selected_tokens_equal_an_alias(self, toy_files, toy_kb):
        _, _, questions_path = toy_files
        for q in load_questions(str(questions_path), toy_kb):
            span = " ".join(
                tok for tok, tag in zip(q.tokens, q.gold_tags) if tag == 1
            )
            assert span in toy_kb.aliases[q.gold_subject]


class _Q:
    """Tiny stand-in so split tests do not need full questions."""

    def __init__(self, i):
        self.i = i

    def __repr__(self):
        return f"Q{self.i}"


class TestSplitDataset:
    def test_exact_ratios(self):
        qs = [_Q(i) for i in range(100)]
        split = split_dataset(qs, (0.7, 0.1, 0.2), seed=7)
        assert (len(split.train), len(split.valid), len(split.test)) == (70, 10, 20)

    def test_floor_rule(self):
        qs = [_Q(i) for i in range(9)]
        split = split_dataset(qs, (0.7, 0.1, 0.2), seed=7)
        assert (len(split.train), len(split.valid), len(split.test)) == (8, 0, 1)

    def test_same_seed_same_membership(self):
        qs = [_Q(i) for i in range(50)]
        a = split_dataset(qs, (0.7, 0.1, 0.2), seed=3)
        b = split_dataset(qs, (0.7, 0.1, 0.2), seed=3)
        assert a.train == b.train and a.valid == b.valid and a.test == b.test

    def test_negative_ratio(self):
        with pytest.raises(ValueError):
            split_dataset([_Q(0)], (-0.1, 0.6, 0.5), seed=0)

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ValueError):
            split_dataset([_Q(0)], (0.5, 0.1, 0.2), seed=0)

    @given(st.integers(0, 60), st.integers(0, 2**31))
    def test_partition(self, n, seed):
        qs = [_Q(i) for i in range(n)]
        split = split_dataset(qs, (0.7, 0.1, 0.2), seed=seed)
        combined = list(split.train) + list(split.valid) + list(split.test)
        assert sorted(q.i for q in combined) == list(range(n))


class TestLoadEmbeddings:
    def test_parse(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.1 0.2\nb 0.3 0.4\n")
        table = load_embeddings(str(path), 2, seed=1)
        assert len(table) == 2
        assert table.lookup("a").tolist() == [0.1, 0.2]

    def test_unk_is_stable_and_bounded(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.1 0.2\n")
        t1 = load_embeddings(str(path), 2, seed=9)
        t2 = load_embeddings(str(path), 2, seed=9)
        assert np.array_equal(t1.lookup("zzz"), t2.lookup("zzz"))
        assert np.array_equal(t1.lookup("zzz"), t1.lookup("yyy"))
        assert np.all(np.abs(t1.unk_vector) <= 0.05)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.1 0.2 0.3\n")
        with pytest.raises(ParseError):
            load_embeddings(str(path), 2, seed=1)

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 0.1 0.2\na 0.3 0.4\n")
        with pytest.raises(ParseError):
            load_embeddings(str(path), 2, seed=1)

    @pytest.mark.parametrize("row, message", [
        ("c 0.5", "expected 2 values, got 1"),
        ("c", "expected 2 values, got 0"),
        ("c 0.5 x", "non-numeric embedding value"),
        ("a 0.5 0.6", "duplicate token 'a'"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        """A bad row after a blank line is named at its own line."""
        path = tmp_path / "emb.txt"
        path.write_text(f"a 0.1 0.2\n\n{row}\nb 0.3 0.4\n")
        with pytest.raises(ParseError) as err:
            load_embeddings(str(path), 2, seed=1)
        assert str(err.value) == f"{path}:3: {message}"
