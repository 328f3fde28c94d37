"""Settings and helpers shared by the benchmark's processes.

The benchmark drives kbqa only through its public module functions, from
the `src/` tree of the checkout it runs in.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")

# Input files written by gen.py, and artifacts written by prepare.py.
FACTS = "facts.tsv"
ALIASES = "aliases.tsv"
TRAIN_QUESTIONS = "train_questions.tsv"
TEST_QUESTIONS = "test_questions.tsv"
INDEX = "index.qaidx"
ASK_ENTITY_MODEL = "ask_entity.qam"
ASK_RELATION_MODEL = "ask_relation.qam"
EVAL_ENTITY_MODEL = "eval_entity.qam"
EVAL_RELATION_MODEL = "eval_relation.qam"

# Model recipe: kind -> task.  Desk scale divides the paper's hidden sizes.
TASK_OF = {
    "BILSTM2": "ENTITY",
    "NT_BILSTM1": "ENTITY",
    "BIGRU2": "RELATION",
    "CONV_GRU": "RELATION",
}
DESK_SCALE = 25
EMBEDDING_DIM = 50  # the `qa` CLI default
BATCH_SIZE = 20
LEARNING_RATE = 0.003
VALID_SHARE = 1 / 6  # of train_questions.tsv; the rest trains
CANDIDATE_CAP = 50  # `qa ask`/`qa eval` default k


def use_checkout_sources() -> None:
    """Import kbqa from this checkout's src/, never from an installed copy."""
    if not os.path.isdir(os.path.join(SRC_DIR, "kbqa")):
        raise SystemExit(f"kbqa sources not found under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)


def train_split(kb, work_dir: str, seed: int):
    """The train/valid split of train_questions.tsv used by every workload."""
    from kbqa import corpus

    questions = corpus.load_questions(os.path.join(work_dir, TRAIN_QUESTIONS), kb)
    return corpus.split_dataset(questions, (1 - VALID_SHARE, VALID_SHARE, 0.0), seed)


def build_model(kind: str, split, seed: int, desk_scale: int):
    """A freshly initialised model of `kind`, embedding the training vocabulary."""
    from kbqa import corpus, models

    vocab = [tok for q in split.train for tok in q.tokens]
    embeddings = corpus.random_embedding_table(vocab, EMBEDDING_DIM, seed)
    task = TASK_OF[kind]
    labels = models.RelationLabelSpace.from_questions(split.train) if task == "RELATION" else None
    descriptor = models.default_descriptor(task, kind, desk_scale=desk_scale)
    return models.build_model(descriptor, embeddings, labels, vocab_tokens=vocab, seed=seed)

