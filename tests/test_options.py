"""The option table of `qa`: a flag and its config key accept the same
values, every value outside an option's range exits 2, and no value or
damaged config file ends in a traceback."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from kbqa.cli import OPTIONS, parse_args, read_config
from kbqa.errors import UsageError

# values for the other options a verb requires
REQUIRED_VALUES = {"task": "RELATION", "kind": "MAJORITY", "dim": "learning_rate=0.1",
                   "kinds": "CONV_GRU,BIGRU2"}

AT_LEAST_ONE = [("1", 1), ("36", 36), ("0", None), ("-1", None), ("2.0", None), ("x", None)]
AT_LEAST_ZERO = [("0", 0), ("5", 5), ("-1", None), ("0.5", None), ("x", None)]
NON_NEGATIVE = [("0", 0.0), ("0.5", 0.5), ("1e300", 1e300), ("-1e-9", None), ("-0.1", None),
                ("inf", None), ("nan", None), ("x", None)]
POSITIVE = [("5e-324", 5e-324), ("0.5", 0.5), ("0", None), ("-0.1", None), ("inf", None),
            ("nan", None), ("x", None)]
SWITCH = [("1", True), ("true", True), ("yes", True), ("0", False), ("false", False),
          ("no", False), ("ture", None), ("", None)]

# (text, parsed value, or None where the value must exit 2): a value in
# range, each boundary, one just outside, and one that is not a number
CASES = {
    "seed": [("0", 0), ("-7", -7), ("13", 13), ("1.5", None), ("x", None)],
    "max_len": AT_LEAST_ONE,
    "desk_scale": AT_LEAST_ONE,
    "embedding_dim": AT_LEAST_ONE,
    "batch_size": AT_LEAST_ONE,
    "k": AT_LEAST_ONE,
    "epochs": AT_LEAST_ZERO,
    "budget": AT_LEAST_ZERO,
    "weight_decay": NON_NEGATIVE,
    "l1_activity": NON_NEGATIVE,
    "learning_rate": POSITIVE,
    "alpha": POSITIVE,
    "fd_step": POSITIVE,
    "tolerance": POSITIVE,
    "noun_filter": SWITCH,
    "freeze_embeddings": SWITCH,
    "skip_unmatched": SWITCH,
    "hidden": [("1", (1,)), ("6,3", (6, 3)), ("0,3", None), ("3,", None), ("x", None)],
    "dropout": [("0", (0.0,)), ("0.2,0.1", (0.2, 0.1)), ("0.9999", (0.9999,)), ("1", None),
                ("0.1,-0.1", None), ("x", None)],
    "ratios": [("1,0,0", (1.0, 0.0, 0.0)), ("0.7,0.1,0.2", (0.7, 0.1, 0.2)),
               ("0.5,0.5", None), ("0.5,0.2,0.2", None), ("1.1,-0.1,0", None),
               ("a,b,c", None)],
    "kind": [("bigru2", "BIGRU2"), ("MAJORITY", "MAJORITY"), ("transformer", None),
             ("", None)],
    "kinds": [("CONV_GRU,bigru2", ("CONV_GRU", "BIGRU2")), ("CONV_GRU", None),
              ("CONV_GRU,x", None), ("1,2", None)],
    "task": [("ENTITY", "ENTITY"), ("RELATION", "RELATION"), ("entity", None), ("1", None)],
    "optimizer": [("SGD", "SGD"), ("ADAM_DECOUPLED", "ADAM_DECOUPLED"), ("ADAM", None),
                  ("1", None)],
    "split": [("all", "all"), ("valid", "valid"), ("dev", None), ("1", None)],
    "dim": [("learning_rate=0.1,0.2", [("learning_rate", [0.1, 0.2])]),
            ("hidden_ratio=2", [("hidden_ratio", [2.0])]),
            ("dropout=0,0.5", [("dropout", [0.0, 0.5])]),
            ("dropout=1", None), ("l1_activity=-1", None), ("learning_rate=0", None),
            ("foo=1", None), ("learning_rate", None), ("learning_rate=x", None)],
}


def flag(name):
    return "--" + name.replace("_", "-")


def command(name):
    """A verb that reads name, with every other option it requires."""
    verb = OPTIONS[name].verbs[0]
    argv = [verb]
    for other, option in OPTIONS.items():
        if other != name and verb in option.verbs and verb in option.required:
            argv += [flag(other), REQUIRED_VALUES.get(other, "x")]
    return argv


def outcome(argv):
    """The parsed options, or 2 where qa exits 2; anything else raised
    here would reach the user as a traceback."""
    try:
        options = vars(parse_args(argv).options)
    except SystemExit as exc:
        assert exc.code == 2
        return 2
    except UsageError:
        return 2
    options.pop("config")
    return options


def flag_form(name, text):
    if CASES[name] is SWITCH:
        switch = dict(SWITCH).get(text)
        if switch is not None:
            return [flag(name) if switch else "--no-" + flag(name)[2:]]
    return [f"{flag(name)}={text}"]


def config_form(tmp_path, name, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name}={text}\n", encoding="utf-8")
    return ["--config", str(cfg)]


def test_every_parsed_option_has_cases():
    assert set(CASES) == {name for name, option in OPTIONS.items() if option.parse}


@pytest.mark.parametrize("name", sorted(CASES))
def test_flag_and_config_key_agree(tmp_path, name):
    for text, expected in CASES[name]:
        by_flag = outcome(command(name) + flag_form(name, text))
        got = 2 if by_flag == 2 else by_flag[name]
        assert got == (2 if expected is None else expected), (name, text)
        if OPTIONS[name].key:
            assert outcome(command(name) + config_form(tmp_path, name, text)) == by_flag, text


@pytest.mark.parametrize("argv", [
    ["build-index", "--facts=--", "--aliases", "a", "--out", "o"],
    ["tune", "--facts", "f", "--aliases", "a", "--questions", "q", "--dim=--"],
    command("alpha") + ["--alpha=--"],
])
def test_double_dash_as_value_exits_2(argv):
    """argparse reads `--flag=--` as an empty list and calls no parser."""
    assert outcome(argv) == 2


KEYS = sorted(name for name, option in OPTIONS.items()
              if option.key and CASES[name] is not SWITCH)
TEXT = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    st.floats().map(repr),
    st.text(alphabet="0123456789.,-+eE_xinfaINF=BIGRU2 ", max_size=12),
).filter(lambda text: text == text.strip())


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cfg")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(KEYS), text=TEXT)
def test_any_text_gives_the_same_outcome_as_flag_and_key(cfg_dir, name, text):
    by_flag = outcome(command(name) + flag_form(name, text))
    assert outcome(command(name) + config_form(cfg_dir, name, text)) == by_flag


CONFIG = b"# toy\nseed=3\nk=7\nlearning_rate=0.5\nhidden=4,2\nnoun_filter=yes\n"
BYTES = [b"\xff", b"=", b"#", b"\n", b"\r", b"x", b"0", b"-", b",", b" "]


def damaged_configs():
    """(bytes, first damaged line): every single-byte set, insert and
    delete from BYTES, and every truncation, of CONFIG."""
    for at in range(len(CONFIG) + 1):
        line = CONFIG.count(b"\n", 0, at) + 1
        yield CONFIG[:at], line
        for byte in BYTES:
            yield CONFIG[:at] + byte + CONFIG[at:], line
        if at < len(CONFIG):
            yield CONFIG[:at] + CONFIG[at + 1 :], line
            for byte in BYTES:
                yield CONFIG[:at] + byte + CONFIG[at + 1 :], line


def test_damaged_config_parses_or_names_a_line_at_or_after_the_damage(tmp_path):
    cfg = tmp_path / "run.cfg"
    cited = re.compile(re.escape(str(cfg)) + r":(\d+): ")
    failures = 0
    for data, line in damaged_configs():
        cfg.write_bytes(data)
        try:
            read_config(str(cfg))
        except UsageError as exc:
            failures += 1
            match = cited.match(str(exc))
            assert match and int(match.group(1)) >= line, (data, str(exc))
    assert failures > 0
