"""The three benchmark workloads: inputs, timed operation and artifacts.

Each workload builds its inputs from the workload seed alone, with the
program's own generator, and hands the program only files. Sizes are
chosen so that one timed operation takes two to four seconds on a 2-core
machine, which gives eight or more operations per 30-second run.

``setup`` writes every input into the directory it is given. Operations run
with that directory's parent as the current directory and write their
artifacts to ``OUT_DIR`` in it. Paths inside input files are relative to
that parent, so the inputs' bytes do not depend on where the checkout is.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from dense import build_dense
from sentigraph import save_dataset
from sentigraph.synth import generate_corpus

# Shape of configs/synthetic.json, at a fifth of the ROADMAP's 2,400/600/600.
PIPELINE_TRAIN_SIZES = {"train": 480, "dev": 120, "test": 120}
# Models are trained once in set-up; only the test set is timed.
PREDICT_BULK_SIZES = {"train": 300, "test": 2000}
# Each dense sentence joins DENSE_K generated ones.
DENSE_K = 8
DENSE_SIZES = {"train": 70, "test": 50}

OUT_DIR = "out"
PIPELINE_ARTIFACTS = (
    "tagger_model.json", "relation_model.json", "predictions.conll", "graphs.json",
    "triples.jsonl", "instances.jsonl", "report.json", "report.txt",
)
DEV_ARTIFACTS = ("dev_predictions.conll", "dev_graphs.json", "dev_report.json")
PREDICT_ARTIFACTS = ("predictions.conll", "graphs.json", "triples.jsonl", "instances.jsonl",
                     "report.json")

# Runs the CLI in a child process with the given argv lists; raises on failure.
RunCli = Callable[[List[List[str]], str], None]


@dataclass(frozen=True)
class Inputs:
    datasets: Dict[str, str]  # role ("train", "dev", "test") -> dataset path
    files: Dict[str, str]  # other inputs: config, models


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[str, int, RunCli], Inputs]
    operation: Callable[[Inputs], List[List[str]]]  # CLI argv lists, run in order
    artifacts: Tuple[str, ...]


def _seeds(name: str, seed: int, roles) -> Dict[str, int]:
    rng = random.Random(f"{name}:{seed}")
    return {role: rng.randrange(2**31) for role in roles}


def _write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
    return path


def _pipeline_config(directory: str, datasets: Dict[str, str], tagger: dict) -> str:
    rel = {role: os.path.relpath(path, os.path.dirname(directory))
           for role, path in datasets.items()}
    config = {
        "train": rel["train"],
        "test": rel["test"],
        "output_dir": OUT_DIR,
        "overlap_policy": "DROP_SENTENCE",
        "tagger": tagger,
        "relation": {"kind": "LOGISTIC", "epochs": 25, "learning_rate": 0.5,
                     "threshold": 0.5, "seed": 2},
    }
    if "dev" in datasets:
        config.update(dev=rel["dev"], upsample=True, upsample_seed=3)
    return _write_json(os.path.join(directory, "config.json"), config)


def _save_all(directory: str, corpora: Dict[str, object]) -> Dict[str, str]:
    paths = {}
    for role, ds in corpora.items():
        paths[role] = os.path.join(directory, f"{role}.json")
        save_dataset(ds, paths[role])
    return paths


def _setup_pipeline_train(directory: str, seed: int, run_cli: RunCli) -> Inputs:
    seeds = _seeds("pipeline_train", seed, PIPELINE_TRAIN_SIZES)
    datasets = _save_all(directory, {
        role: generate_corpus(n, seeds[role], name=role)
        for role, n in PIPELINE_TRAIN_SIZES.items()
    })
    tagger = {"kind": "PERCEPTRON", "epochs": 10, "seed": 1}
    return Inputs(datasets, {"config": _pipeline_config(directory, datasets, tagger)})


def _setup_predict_bulk(directory: str, seed: int, run_cli: RunCli) -> Inputs:
    seeds = _seeds("predict_bulk", seed, PREDICT_BULK_SIZES)
    paths = _save_all(directory, {
        role: generate_corpus(n, seeds[role], name=role)
        for role, n in PREDICT_BULK_SIZES.items()
    })
    tagger = os.path.join(directory, "tagger_model.json")
    rel = os.path.join(directory, "relation_model.json")
    run_cli([
        ["train", "tagger", "--train", paths["train"], "--epochs", "10",
         "--train-seed", "1", "--out", tagger],
        ["train", "relation", "--train", paths["train"], "--epochs", "25",
         "--train-seed", "2", "--out", rel],
    ], directory)
    return Inputs({"test": paths["test"]}, {"tagger_model": tagger, "relation_model": rel})


def _setup_dense_pairs(directory: str, seed: int, run_cli: RunCli) -> Inputs:
    seeds = _seeds("dense_pairs", seed, DENSE_SIZES)
    datasets = _save_all(directory, {
        role: build_dense(seeds[role], DENSE_K, n, name=role)
        for role, n in DENSE_SIZES.items()
    })
    tagger = {"kind": "POS_CHUNK"}
    return Inputs(datasets, {"config": _pipeline_config(directory, datasets, tagger)})


def _pipeline_operation(inputs: Inputs) -> List[List[str]]:
    return [["pipeline", inputs.files["config"]]]


def _predict_operation(inputs: Inputs) -> List[List[str]]:
    test = inputs.datasets["test"]
    return [
        ["--output-dir", OUT_DIR, "predict", "--data", test,
         "--tagger-model", inputs.files["tagger_model"],
         "--relation-model", inputs.files["relation_model"]],
        ["evaluate", "--gold", test, "--pred-conll", os.path.join(OUT_DIR, "predictions.conll"),
         "--pred-graphs", os.path.join(OUT_DIR, "graphs.json"), "--strata",
         "--output", os.path.join(OUT_DIR, "report.json")],
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline_train", _setup_pipeline_train, _pipeline_operation,
                 PIPELINE_ARTIFACTS + DEV_ARTIFACTS),
        Workload("predict_bulk", _setup_predict_bulk, _predict_operation, PREDICT_ARTIFACTS),
        Workload("dense_pairs", _setup_dense_pairs, _pipeline_operation, PIPELINE_ARTIFACTS),
    )
}
