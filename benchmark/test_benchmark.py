"""Tests of the benchmark's own parts.

    PYTHONPATH=src python -m pytest -q benchmark
"""

import json
import statistics

from dense import build_dense, candidate_pairs
from sentigraph import cli, load_dataset, metrics, relation, save_dataset, span_codec, taggers
from sentigraph.synth import generate_corpus
from tracing import LAYERS, ROOT, TARGETS, Tracer, layer_metrics, summarize


def test_dense_corpus_round_trips_through_load_dataset(tmp_path):
    ds = build_dense(seed=5, k=8, n=40)
    path = str(tmp_path / "dense.json")
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded == ds
    assert loaded == build_dense(seed=5, k=8, n=40)
    assert len({s.id for s in loaded.sentences}) == 40
    for sentence in loaded.sentences:
        for tok in sentence.tokens:
            assert sentence.text[tok.char_start:tok.char_end] == tok.text


def test_dense_corpus_has_about_150_candidate_pairs_per_sentence():
    dense = statistics.fmean(candidate_pairs(s) for s in build_dense(3, 8, 200).sentences)
    default = statistics.fmean(candidate_pairs(s) for s in generate_corpus(1600, 3).sentences)
    assert 120 <= dense <= 200
    assert 2 <= default <= 5


def test_tracer_nests_spans_and_restores_the_program(tmp_path):
    for role, seed in (("train", 1), ("test", 2)):
        save_dataset(generate_corpus(40, seed, name=role), str(tmp_path / f"{role}.json"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "train": str(tmp_path / "train.json"),
        "test": str(tmp_path / "test.json"),
        "output_dir": str(tmp_path / "out"),
        "tagger": {"kind": "PERCEPTRON", "epochs": 2},
        "relation": {"kind": "LOGISTIC", "epochs": 2},
    }))
    before = (cli.decode, metrics.encode, taggers.encode, span_codec.encode, relation.featurize)

    tracer = Tracer()
    tracer.install()
    try:
        assert relation.featurize is not before[-1]
        assert tracer.wrap(cli.main, ROOT)(["pipeline", str(config)]) == 0
    finally:
        tracer.restore()

    assert (cli.decode, metrics.encode, taggers.encode, span_codec.encode,
            relation.featurize) == before
    summary = summarize(json.loads(json.dumps(
        {"names": tracer.names, "spans": tracer.spans, "counts": tracer.counts})))
    assert set(summary["relation.featurize"]["callers"]) == {
        "relation.train_logistic", "relation.classify"}
    assert set(summary["aggregator.gold_graph"]["callers"]) == {"metrics.stratified_report"}
    assert summary[ROOT]["calls"] == 1
    for entry in summary.values():
        assert 0 <= entry["self_ns"] <= entry["total_ns"]
    assert sum(e["self_ns"] for e in summary.values()) == summary[ROOT]["total_ns"]

    layer = layer_metrics(summary)
    assert layer["trace.exceptions"] == 0
    assert layer["metrics.gold_graph.calls_per_sentence"] > 1
    assert layer["taggers.train_perceptron.weight_rows"] > 0
    assert {name.split(".")[0] for name, _, _ in TARGETS} == set(LAYERS) - {"cli"}
