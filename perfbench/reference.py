"""Re-measure the ROADMAP baseline table: s/epoch per kind and the index at ~300k aliases.

    python3 perfbench/reference.py [--seed N]

Not part of the benchmark's runs: it generates the 200k-entity KB (~300k
aliases, ~400k facts) that the benchmark's workloads scale down from, and
prints one JSON object.  It needs ~1 GB of memory and ~1 minute.
  * s/epoch per kind: kbqa.evaluation.benchmark_training (what `qa benchmark`
    runs) on the 500 generated training questions, desk scale 25, batch 20,
    each kind on its task in the train workload, median of 3 calls;
  * index: build (entity + reach), save, file size, load, and the median
    query time over the gold entity spans of the 2000 test questions.
"""

import argparse
import json
import os
import shutil
import time
from statistics import median, quantiles

import common
import gen

now = time.perf_counter
EPOCHS = 3


def measure(seed: int, work_dir: str) -> dict:
    from kbqa import corpus, evaluation, index, models
    from kbqa.neural.config import TrainConfig
    from kbqa.neural.optim import make_optimizer

    gen.generate(seed, work_dir, n_entities=200_000)
    out = {}
    kb = corpus.load_facts(os.path.join(work_dir, common.FACTS),
                           os.path.join(work_dir, common.ALIASES))
    out["aliases"] = sum(len(a) for a in kb.aliases.values())
    out["facts"] = len(kb.facts)

    split = common.train_split(kb, work_dir, seed)
    labels = models.RelationLabelSpace.from_questions(split.train)
    vocab = [tok for q in split.train for tok in q.tokens]
    embeddings = corpus.random_embedding_table(vocab, common.EMBEDDING_DIM, seed)
    config = TrainConfig(epochs=EPOCHS, batch_size=common.BATCH_SIZE, seed=seed)
    descriptors = [models.default_descriptor(task, kind, desk_scale=common.DESK_SCALE)
                   for kind, task in common.TASK_OF.items()]
    reports = [
        evaluation.benchmark_training(
            descriptors, split.train, config, embeddings, labels,
            lambda: make_optimizer("ADAM_COUPLED", common.LEARNING_RATE),
        )
        for _ in range(3)
    ]
    epoch_s = {row.name: median([r.rows[i].seconds_per_epoch for r in reports])
               for i, row in enumerate(reports[0].rows)}
    out["s_per_epoch"] = epoch_s
    out["conv_gru_vs_bigru2_epoch_ratio"] = epoch_s["CONV_GRU"] / epoch_s["BIGRU2"]

    path = os.path.join(work_dir, common.INDEX)
    start = now()
    entity_index, reach_index = index.build_entity_index(kb), index.build_reach_index(kb)
    out["index_build_s"] = now() - start
    start = now()
    index.save_indexes(entity_index, reach_index, path)
    out["index_save_s"] = now() - start
    out["index_file_mb"] = os.path.getsize(path) / 1e6
    del entity_index, reach_index
    start = now()
    entity_index, _ = index.load_indexes(path)
    out["index_load_s"] = now() - start
    questions = corpus.load_questions(os.path.join(work_dir, common.TEST_QUESTIONS), kb)
    times = []
    for q in questions:
        phrase = [tok for tok, tag in zip(q.tokens, q.gold_tags) if tag]
        start = now()
        index.query_entity_index(entity_index, phrase, common.CANDIDATE_CAP)
        times.append(now() - start)
    out["index_query_us_p50"] = median(times) * 1e6
    out["index_query_us_p90"] = quantiles(times, n=10, method="inclusive")[8] * 1e6
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    common.use_checkout_sources()
    work_dir = os.path.join(common.REPO_ROOT, ".bench_work", f"reference-{args.seed}")
    try:
        print(json.dumps(measure(args.seed, work_dir), indent=2))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
