"""Synthetic corpora for trainability tests.

trigger_relation_corpus: the relation class of each question is fully
determined by one trigger word, so a working classifier must reach 100%
train accuracy.

entity_template_corpus: name entities from a fixed lexicon embedded in
question templates, padded with decorative adverbs/verbs; the noun
filter strips the decorations, so a filtered tagger sees short,
low-vocabulary inputs while the unfiltered one must cope with rare
context words.

from_facts builds a KB from Fact objects; save_kb writes a KB back out in
the formats load_facts reads.
"""

import numpy as np

from kbqa.corpus import AnnotatedQuestion, Fact, KnowledgeBase, derive_gold_tags
from kbqa.textproc import tokenize

TRIGGERS = {
    "bornOn": "born",
    "starredIn": "movie",
    "marriedTo": "spouse",
    "livedIn": "city",
}

_FIRST_NAMES = [
    "anna", "marco", "priya", "kenji", "laila", "omar", "sofia", "ivan",
    "nadia", "pablo", "greta", "tarik", "mira", "oscar", "vera", "hugo",
    "irene", "boris", "carla", "dmitri", "elena", "felix", "gloria",
    "heinz", "iris", "jonas", "karim", "lucia", "matteo", "nora",
    "otto", "petra", "quinn", "rosa", "stefan", "tanya", "ursula",
    "viktor", "wanda", "xena", "yusuf", "zelda", "bruno", "clara",
    "dario", "edith", "frans", "gilda", "henrik", "ines", "jacob",
    "katya", "lars", "marta", "nils",
]
_SURNAMES = [
    "moreau", "tanaka", "silva", "novak", "haas", "okafor", "weiss",
    "rossi", "larsen", "dubois", "kova", "brandt", "costa", "meyer",
    "fontana", "bauer", "lindgren", "romero", "keller", "santos",
]

_FILLERS = ["where", "was", "when", "did", "what", "who", "is", "the"]

_ADVERB_POOL = [f"{stem}ly" for stem in (
    "quick", "sad", "odd", "plain", "grand", "neat", "bold", "calm",
    "warm", "cool", "firm", "soft", "loud", "faint", "brisk", "blunt",
    "crisp", "dense", "eager", "fond", "glad", "harsh", "keen", "mild",
    "proud", "rough", "sharp", "shy", "sleek", "stern", "swift", "tame",
    "tense", "vague", "vivid", "weird", "wry", "zest", "brave", "clever",
)]
_VERB_POOL = [f"{stem}ed" for stem in (
    "visit", "paint", "record", "direct", "produc", "perform", "toast",
    "praise", "sketch", "film", "quot", "salut", "greet", "cheer",
)]

# (template, relation): four templates per relation so wording determines
# the class
_ED_TEMPLATES = [
    ("where was {name} born", "bornIn"),
    ("when did {name} die", "diedOn"),
    ("what movies did {name} star in", "starredIn"),
    ("who did {name} marry", "marriedTo"),
    ("which city was {name} from", "bornIn"),
    ("what label did {name} record for", "recordedFor"),
    ("who {adv} {verb} {name} during the tour", "marriedTo"),
    ("when was {name} {adv} {verb}", "bornIn"),
    ("what team did {name} play for", "recordedFor"),
    ("which award did {name} {adv} win", "starredIn"),
    ("who {verb} {name} in the film", "starredIn"),
    ("where did {name} {adv} live", "bornIn"),
    ("what book did {name} write", "recordedFor"),
    ("which band did {name} join", "recordedFor"),
    ("who was {name} {adv} married to", "marriedTo"),
    ("what song did {name} {adv} release", "diedOn"),
    ("where did {name} study", "diedOn"),
    ("which country did {name} represent", "diedOn"),
    ("who {adv} {verb} the young {name}", "marriedTo"),
    ("what prize did {name} share", "starredIn"),
]


def trigger_relation_corpus(n: int = 200, seed: int = 7) -> list[AnnotatedQuestion]:
    """4-class corpus where one trigger word decides the relation."""
    rng = np.random.default_rng(seed)
    relations = list(TRIGGERS)
    questions = []
    for i in range(n):
        relation = relations[i % len(relations)]
        trigger = TRIGGERS[relation]
        name = str(rng.choice(_FIRST_NAMES))
        n_fill = int(rng.integers(2, 5))
        fillers = [str(rng.choice(_FILLERS)) for _ in range(n_fill)]
        tokens = fillers[: n_fill // 2 + 1] + [trigger] + fillers[n_fill // 2 + 1 :] + [name]
        tags = derive_gold_tags(tokens, {name})
        questions.append(
            AnnotatedQuestion(
                " ".join(tokens), tuple(tokens), f"ent_{name}", relation, tuple(tags)
            )
        )
    return questions


def _name_lexicon(rng: np.random.Generator, n_names: int):
    names = []
    for i in range(n_names):
        first = _FIRST_NAMES[i % len(_FIRST_NAMES)]
        if rng.random() < 0.4:
            names.append(f"{first} {_SURNAMES[i % len(_SURNAMES)]}")
        else:
            names.append(first)
    return list(dict.fromkeys(names))


def entity_template_corpus(
    n: int = 500, seed: int = 11, n_names: int = 50
) -> tuple[list[AnnotatedQuestion], KnowledgeBase]:
    """Template questions over a fixed name lexicon, with KB aliases."""
    rng = np.random.default_rng(seed)
    names = _name_lexicon(rng, n_names)
    aliases = {f"ent{i}": (name,) for i, name in enumerate(names)}
    relations = list(dict.fromkeys(rel for _, rel in _ED_TEMPLATES))
    facts = tuple(
        Fact(f"ent{i}", rel, f"{rel}_{i}")
        for i in range(len(names))
        for rel in relations
    )
    kb = from_facts(facts, aliases)

    questions = []
    for i in range(n):
        template, relation = _ED_TEMPLATES[int(rng.integers(0, len(_ED_TEMPLATES)))]
        name_idx = int(rng.integers(0, len(names)))
        name = names[name_idx]
        text = template.format(
            name=name.title(),
            adv=str(rng.choice(_ADVERB_POOL)),
            verb=str(rng.choice(_VERB_POOL)),
        ) + "?"
        tokens = tokenize(text)
        tags = derive_gold_tags(tokens, {name})
        questions.append(
            AnnotatedQuestion(
                text, tuple(tokens), f"ent{name_idx}", relation, tuple(tags)
            )
        )
    return questions, kb


def from_facts(facts, aliases: dict[str, tuple[str, ...]]) -> KnowledgeBase:
    """A KB of the given Facts, in order, and aliases."""
    facts = tuple(facts)
    return KnowledgeBase([f.subject for f in facts], [f.relation for f in facts],
                         [f.object for f in facts], aliases)


def save_kb(kb: KnowledgeBase, facts_path: str, aliases_path: str) -> None:
    """Write a KB back out in the load_facts formats (round-trip safe)."""
    with open(facts_path, "w", encoding="utf-8") as fh:
        for fact in kb.facts:
            fh.write(f"{fact.subject}\t{fact.relation}\t{fact.object}\n")
    with open(aliases_path, "w", encoding="utf-8") as fh:
        for entity in kb.aliases:
            for alias in kb.aliases[entity]:
                fh.write(f"{entity}\t{alias}\n")
