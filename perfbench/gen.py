"""Seeded input generator: a synthetic KB and templated questions in kbqa's TSV formats.

    python3 perfbench/gen.py --seed N --out DIR

writes DIR/facts.tsv, DIR/aliases.tsv, DIR/train_questions.tsv and
DIR/test_questions.tsv.  The same seed gives byte-identical files.  This
module imports nothing from kbqa, so the inputs do not depend on the
commit under test.

Make-up (the README explains the choices):
  * 70k entities (200k for reference.py), each with a primary alias
    "<first> <surname>"; half of them carry a second alias
    "<first'> <surname>", so ~105k aliases (~300k).
  * First names follow a Zipf-like law (exponent FIRST_NAME_EXPONENT over
    FIRST_NAMES names), as in real alias tables; surnames are uniform.  The
    first-name skew sets the longest posting lists, hence retrieval cost.
  * ~140k facts (~400k): every entity has 1-3 facts over 20 relations.
  * Questions come from two templates per relation: the wording decides the
    relation, the name decides the entity span.
"""

import argparse
import bisect
import os
import random

N_ENTITIES = 70_000
SECOND_ALIAS_SHARE = 0.5
FIRST_NAMES = 4000
SURNAMES = 60_000
FIRST_NAME_EXPONENT = 0.9
N_TRAIN_QUESTIONS = 600
N_TEST_QUESTIONS = 2000

# Two templates per relation; every template has a word that no other
# relation's templates use, so the wording decides the relation.
TEMPLATES = {
    "bornIn": ("where was {n} born", "which town saw the birth of {n}"),
    "diedIn": ("where did {n} die", "what place did {n} pass away in"),
    "spouse": ("who did {n} marry", "who is the spouse of {n}"),
    "starredIn": ("what film did {n} star in", "which movie featured {n}"),
    "nationality": ("what nationality is {n}", "which passport does {n} hold"),
    "occupation": ("what job does {n} do", "what is the profession of {n}"),
    "employer": ("who employs {n}", "which company hired {n}"),
    "almaMater": ("where did {n} study", "which university did {n} attend"),
    "genre": ("what genre does {n} play", "which style of music is {n} known for"),
    "instrument": ("what instrument does {n} play", "which instrument suits {n}"),
    "team": ("what team does {n} support", "which club signed {n}"),
    "award": ("what award did {n} win", "which prize went to {n}"),
    "wrote": ("what book did {n} write", "which novel was authored by {n}"),
    "directed": ("what movie was directed by {n}", "which picture did {n} direct"),
    "parent": ("who is the mother of {n}", "who raised {n}"),
    "child": ("who is a child of {n}", "name a son or daughter of {n}"),
    "religion": ("what religion does {n} follow", "which faith has {n} adopted"),
    "language": ("what language does {n} speak", "which tongue is native to {n}"),
    "residence": ("where does {n} live", "what city is home to {n}"),
    "label": ("what label signed {n}", "which record company represents {n}"),
}
RELATIONS = tuple(TEMPLATES)

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "dr", "kr", "st", "tr", "ch", "sh", "gr", "pl", "th")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "", "n", "r", "s", "x", "m")
# Names must read as nouns: no English function word, no suffix the POS
# heuristics map to ADV or VERB.
_RESERVED_SUFFIXES = ("ly", "ed", "ing")
_FUNCTION_WORDS = frozenset("""
    a an the this that these those each every some any no both all another
    where when why how who whom whose what which i you he she it we they me
    him her us them my your his its our their mine yours hers ours theirs
    is are was were be been being am do does did done have has had can could
    will would shall should may might must of in on at by for with from to
    into over under about between through during before after above below up
    down off out near as and or but if because than so not
""".split())


def _template_words() -> set[str]:
    return {
        word
        for templates in TEMPLATES.values()
        for template in templates
        for word in template.replace("{n}", " ").split()
    }


def _names(rng: random.Random, count: int, syllables: tuple[int, ...], taken: set[str]) -> list[str]:
    """count distinct pronounceable lowercase names, none in taken."""
    out = []
    while len(out) < count:
        name = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.choice(syllables))
        ) + rng.choice(_CODAS)
        if name in taken or name.endswith(_RESERVED_SUFFIXES):
            continue
        taken.add(name)
        out.append(name)
    return out


def _zipf_sampler(rng: random.Random, n: int, exponent: float):
    cumulative = []
    total = 0.0
    for rank in range(1, n + 1):
        total += rank ** -exponent
        cumulative.append(total)
    return lambda: bisect.bisect_left(cumulative, rng.random() * total)


def _entity_id(i: int) -> str:
    return f"m.{i:06d}"


def generate(seed: int, out_dir: str, n_entities: int = N_ENTITIES) -> None:
    rng = random.Random(seed)
    taken = _template_words() | _FUNCTION_WORDS
    first_names = _names(rng, FIRST_NAMES, (1, 2), taken)
    surnames = _names(rng, SURNAMES, (2, 3), taken)
    pick_first = _zipf_sampler(rng, FIRST_NAMES, FIRST_NAME_EXPONENT)

    entity_names = []  # aliases of entity i, as written
    facts = []  # (entity number, relation, object)
    for i in range(n_entities):
        surname = rng.choice(surnames)
        names = [f"{first_names[pick_first()]} {surname}".title()]
        if rng.random() < SECOND_ALIAS_SHARE:
            names.append(f"{first_names[pick_first()]} {surname}".title())
        entity_names.append(names)
        for relation in rng.sample(RELATIONS, rng.choice((1, 2, 3))):
            facts.append((i, relation, f"o.{relation}.{rng.randrange(50_000):05d}"))

    def questions(count: int) -> list[str]:
        rows = []
        for _ in range(count):
            i, relation, obj = facts[rng.randrange(len(facts))]
            text = rng.choice(TEMPLATES[relation]).format(n=rng.choice(entity_names[i]))
            rows.append(f"{_entity_id(i)}\t{relation}\t{obj}\t{text[0].upper()}{text[1:]}?")
        return rows

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "facts.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{_entity_id(i)}\t{r}\t{o}\n" for i, r, o in facts)
    with open(os.path.join(out_dir, "aliases.tsv"), "w", encoding="utf-8") as fh:
        for i, names in enumerate(entity_names):
            fh.writelines(f"{_entity_id(i)}\t{name}\n" for name in names)
    for name, count in (("train_questions.tsv", N_TRAIN_QUESTIONS),
                        ("test_questions.tsv", N_TEST_QUESTIONS)):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(questions(count)) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.seed, args.out)


if __name__ == "__main__":
    main()
