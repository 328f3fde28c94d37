"""Untimed preparation: artifacts that `ask` and `eval` load, written by the program.

    python3 perfbench/prepare.py --workload ask|eval --seed N --dir DIR

Runs in its own process after gen.py and before measure.py, so the
measured process only reads files.  Every artifact is written by kbqa's own
save_indexes / save_model from the checkout under test.

  ask   builds and saves the index, and trains paper-size NT_BILSTM1
        (entity) and CONV_GRU (relation) models for 2 epochs (~2.6 s each),
        enough that the tagger marks name spans instead of falling back to
        whole questions and the classifier predicts many relations.
  eval  trains desk-scale BILSTM2 (entity) and BIGRU2 (relation) models for
        6 epochs; eval builds its own index.
"""

import argparse
import os

import common

# workload -> ((kind, file), ...), desk scale, training epochs
MODELS = {
    "ask": ((("NT_BILSTM1", common.ASK_ENTITY_MODEL), ("CONV_GRU", common.ASK_RELATION_MODEL)),
            1, 2),
    "eval": ((("BILSTM2", common.EVAL_ENTITY_MODEL), ("BIGRU2", common.EVAL_RELATION_MODEL)),
             common.DESK_SCALE, 6),
}


def prepare(workload: str, seed: int, work_dir: str) -> None:
    from kbqa import corpus, index, model_io, models
    from kbqa.neural.config import TrainConfig
    from kbqa.neural.optim import make_optimizer

    if workload not in MODELS:
        raise SystemExit(f"nothing to prepare for workload {workload!r}")
    kb = corpus.load_facts(
        os.path.join(work_dir, common.FACTS), os.path.join(work_dir, common.ALIASES)
    )
    split = common.train_split(kb, work_dir, seed)
    if workload == "ask":
        index.save_indexes(
            index.build_entity_index(kb), index.build_reach_index(kb),
            os.path.join(work_dir, common.INDEX),
        )
    kinds, desk_scale, epochs = MODELS[workload]
    for kind, name in kinds:
        model = common.build_model(kind, split, seed, desk_scale)
        models.train(
            model, split.train,
            TrainConfig(epochs=epochs, batch_size=common.BATCH_SIZE, seed=seed),
            make_optimizer("ADAM_COUPLED", common.LEARNING_RATE),
        )
        model_io.save_model(model, os.path.join(work_dir, name))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    common.use_checkout_sources()
    prepare(args.workload, args.seed, args.dir)


if __name__ == "__main__":
    main()
