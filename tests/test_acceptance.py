"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The brute-force references here are written independently of the
library code they check: they re-derive role membership from label strings
and match graph tuples with naive used-flag loops.
"""

import itertools
import json
import os
import random
import time

import pytest

from helpers import opinion, sent, span
from sentigraph import (
    BIO_LABELS,
    Dataset,
    OpinionTuple,
    RelationKind,
    RelationModel,
    Role,
    SentimentGraph,
    Span,
    TaggerKind,
    TaggerModel,
    aggregate,
    compute_stats,
    decode,
    encode,
    end_to_end,
    gold_graph,
    graph_f1,
    load_dataset,
    relation_prf,
    save_dataset,
    stratified_report,
    tag,
    token_f1,
    train_logistic,
    train_perceptron,
)
from sentigraph.cli import main
from sentigraph.metrics import Stratum
from sentigraph.relation import classify, generate_instances
from sentigraph.synth import generate_corpus

from helpers import random_overlap_free_sentence

EXACT = 1e-12


def _passed(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# Criterion 1: metric oracle equivalence
# ---------------------------------------------------------------------------


def _brute_role(label):
    return None if label == "O" else label.split("-", 1)[1]


def _brute_token_counts(gold_seqs, pred_seqs, suffix, collapse):
    tp = fp = fn = 0
    for g_seq, p_seq in zip(gold_seqs, pred_seqs):
        for g, p in zip(g_seq, p_seq):
            hit = (
                _brute_role(g) == suffix
                and _brute_role(p) == suffix
                and (collapse or g == p)
            )
            if hit:
                tp += 1
            else:
                if _brute_role(p) == suffix:
                    fp += 1
                if _brute_role(g) == suffix:
                    fn += 1
    return tp, fp, fn


def _brute_prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def _brute_graph_counts(gold_graphs, pred_graphs):
    def plain(graph):
        out = []
        for t in graph.tuples:
            (e,) = t.expressions
            out.append(
                (
                    tuple(sorted((s.start, s.end) for s in t.holders)),
                    tuple(sorted((s.start, s.end) for s in t.targets)),
                    (e.start, e.end),
                )
            )
        return out

    gold_by_id = {g.sentence_id: plain(g) for g in gold_graphs}
    tp = fp = fn = 0
    for p_graph in pred_graphs:
        gold_tuples = gold_by_id[p_graph.sentence_id]
        used = [False] * len(gold_tuples)
        for p_tuple in plain(p_graph):
            matched = False
            for i, g_tuple in enumerate(gold_tuples):
                if not used[i] and g_tuple == p_tuple:
                    used[i] = True
                    matched = True
                    break
            if matched:
                tp += 1
            else:
                fp += 1
        fn += used.count(False)
    return tp, fp, fn


def _random_tag_pair(rng):
    n = rng.randint(1, 12)
    gold = [rng.choice(BIO_LABELS) for _ in range(n)]
    pred = [g if rng.random() < 0.4 else rng.choice(BIO_LABELS) for g in gold]
    return gold, pred


def _random_graph(rng, sent_id, n_tokens=12, max_tuples=3):
    starts = rng.sample(range(n_tokens), k=rng.randint(0, max_tuples))
    tuples = []
    for start in sorted(starts):
        expression = Span(Role.EXPRESSION, start, start + 1)
        holders = set()
        targets = set()
        for k in range(rng.randint(0, 2)):
            pos = rng.randrange(n_tokens)
            holders.add(Span(Role.HOLDER, pos, pos + 1))
        for k in range(rng.randint(0, 2)):
            pos = rng.randrange(n_tokens)
            targets.add(Span(Role.TARGET, pos, pos + 1))
        tuples.append(OpinionTuple(holders=holders, targets=targets, expressions={expression}))
    return SentimentGraph(sentence_id=sent_id, tuples=tuples)


def test_criterion_1_metric_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(123)
    suffix_of = {Role.HOLDER: "HOLDER", Role.TARGET: "TARG", Role.EXPRESSION: "EXP"}
    for trial in range(220):
        gold_seqs, pred_seqs = zip(*[_random_tag_pair(rng) for _ in range(rng.randint(1, 4))])
        for collapse in (False, True):
            ours = token_f1(gold_seqs, pred_seqs, collapse_bio=collapse)
            for role in Role:
                tp, fp, fn = _brute_token_counts(gold_seqs, pred_seqs, suffix_of[role], collapse)
                precision, recall, f1 = _brute_prf(tp, fp, fn)
                assert (ours[role].tp, ours[role].fp, ours[role].fn) == (tp, fp, fn)
                assert abs(ours[role].precision - precision) <= EXACT
                assert abs(ours[role].recall - recall) <= EXACT
                assert abs(ours[role].f1 - f1) <= EXACT
        n_sent = rng.randint(1, 3)
        gold_graphs = [_random_graph(rng, f"g{trial}-{k}") for k in range(n_sent)]
        pred_graphs = []
        for g in gold_graphs:
            if rng.random() < 0.5 and g.tuples:
                keep = g.tuples[: rng.randint(1, len(g.tuples))]
            else:
                keep = ()
            extra = _random_graph(rng, g.sentence_id).tuples
            merged = {}
            for t in keep + extra:
                (e,) = t.expressions
                merged.setdefault(e, t)
            pred_graphs.append(
                SentimentGraph(sentence_id=g.sentence_id, tuples=tuple(merged.values()))
            )
        ours = graph_f1(gold_graphs, pred_graphs)
        tp, fp, fn = _brute_graph_counts(gold_graphs, pred_graphs)
        precision, recall, f1 = _brute_prf(tp, fp, fn)
        assert (ours.tp, ours.fp, ours.fn) == (tp, fp, fn)
        assert abs(ours.precision - precision) <= EXACT
        assert abs(ours.recall - recall) <= EXACT
        assert abs(ours.f1 - f1) <= EXACT
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"metric oracle check took {elapsed:.2f}s"
    _passed(1, "metric oracle equivalence")


# ---------------------------------------------------------------------------
# Criterion 2: codec round-trip and decode totality
# ---------------------------------------------------------------------------


def test_criterion_2_codec_round_trip():
    started = time.monotonic()
    rng = random.Random(321)
    for k in range(1000):
        sentence = random_overlap_free_sentence(rng, f"rt{k}")
        assert decode(encode(sentence)) == sentence.spans()
    for k in range(1000):
        labels = [rng.choice(BIO_LABELS) for _ in range(rng.randint(0, 14))]
        spans = decode(labels)
        for sp in spans:
            assert 0 <= sp.start < sp.end <= len(labels)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"codec check took {elapsed:.2f}s"
    _passed(2, "codec round-trip and decode totality")


# ---------------------------------------------------------------------------
# Criterion 3: aggregator brute-force equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_aggregator_exhaustive():
    words = [f"w{i}" for i in range(10)]
    for n_ent, n_exp in itertools.product(range(4), range(3)):
        entities = [
            Span(Role.HOLDER if i % 2 == 0 else Role.TARGET, i, i + 1) for i in range(n_ent)
        ]
        expressions = [Span(Role.EXPRESSION, 4 + j, 5 + j) for j in range(n_exp)]
        sentence = sent(f"agg{n_ent}{n_exp}", words)
        pairs = [(e, x) for e in entities for x in expressions]
        for bits in itertools.product([False, True], repeat=len(pairs)):
            decisions = dict(zip(pairs, bits))
            linked = [pair for pair, bit in zip(pairs, bits) if bit]
            graph = aggregate(sentence, expressions, linked)
            # oracle: for each expression, enumerate entity subsets and keep
            # the one consistent with the decision map
            expected = []
            for x in sorted(expressions, key=lambda s: s.start):
                consistent = []
                for size in range(len(entities) + 1):
                    for subset in itertools.combinations(entities, size):
                        if all((e in subset) == decisions[(e, x)] for e in entities):
                            consistent.append(subset)
                assert len(consistent) == 1
                subset = consistent[0]
                expected.append(
                    OpinionTuple(
                        holders={e for e in subset if e.role is Role.HOLDER},
                        targets={e for e in subset if e.role is Role.TARGET},
                        expressions={x},
                    )
                )
            assert graph.sentence_id == sentence.id
            assert list(graph.tuples) == expected
    _passed(3, "aggregator brute-force equivalence")


# ---------------------------------------------------------------------------
# Criterion 4: perceptron learnability on the bundled synthetic corpus
# ---------------------------------------------------------------------------


def test_criterion_4_perceptron_learnability():
    started = time.monotonic()
    corpus = generate_corpus(650, seed=7, name="synthetic")
    assert len(corpus) >= 500
    train = Dataset(name="train", sentences=corpus.sentences[:520])
    held_out = Dataset(name="held-out", sentences=corpus.sentences[520:])
    model = train_perceptron(train, epochs=10, seed=3)
    gold = [encode(s) for s in held_out.sentences]
    pred = [tag(model, s) for s in held_out.sentences]
    scores = token_f1(gold, pred)
    for role in Role:
        assert scores[role].f1 >= 0.95, f"{role.value} F1 {scores[role].f1:.3f}"
    again = train_perceptron(train, epochs=10, seed=3)
    assert again.weights == model.weights
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"perceptron check took {elapsed:.2f}s"
    _passed(4, "perceptron learnability")


# ---------------------------------------------------------------------------
# Criterion 5: relation learnability
# ---------------------------------------------------------------------------


def _gold_instances(ds):
    out = []
    for sentence in ds.sentences:
        entities = sentence.spans(Role.HOLDER) | sentence.spans(Role.TARGET)
        expressions = sentence.spans(Role.EXPRESSION)
        out.extend(generate_instances(sentence, entities, expressions, gold=sentence.opinions))
    return out


def test_criterion_5_relation_learnability():
    train = generate_corpus(300, seed=201, name="rel-train")
    held_out = generate_corpus(120, seed=202, name="rel-test")
    train_instances = _gold_instances(train)
    test_instances = _gold_instances(held_out)
    assert any(i.label for i in test_instances) and any(not i.label for i in test_instances)

    model = train_logistic(train_instances, train, epochs=25, learning_rate=0.5, seed=5)
    by_id = held_out.by_id()
    decisions = [
        classify(model, by_id[i.sentence_id], i)[0]
        for i in test_instances
    ]
    scores = relation_prf(test_instances, decisions)
    assert scores["positive"].f1 >= 0.9, f"logistic F1 {scores['positive'].f1:.3f}"

    # the always-true baseline's positive precision equals the positive rate
    baseline = relation_prf(test_instances, [True] * len(test_instances))
    positive_rate = sum(1 for i in test_instances if i.label) / len(test_instances)
    assert abs(baseline["positive"].precision - positive_rate) <= EXACT
    assert baseline["positive"].recall == 1.0
    _passed(5, "relation learnability")


# ---------------------------------------------------------------------------
# Criterion 6: baseline identities
# ---------------------------------------------------------------------------


def test_criterion_6_baseline_identities():
    corpus = generate_corpus(100, seed=61)
    spanned = [s for s in corpus.sentences if s.opinions]
    assert spanned
    model = TaggerModel(TaggerKind.MOST_COMMON)
    pred = []
    for sentence in spanned:
        labels = tag(model, sentence)
        assert set(labels) == {"O"}
        pred.append(labels)
    scores = token_f1([encode(s) for s in spanned], pred)
    for role in Role:
        assert scores[role].f1 == 0.0
    instances = _gold_instances(corpus)
    baseline = relation_prf(instances, [True] * len(instances))
    assert baseline["positive"].recall == 1.0
    _passed(6, "baseline identities")


# ---------------------------------------------------------------------------
# Criterion 7: pipeline determinism
# ---------------------------------------------------------------------------


def test_criterion_7_pipeline_determinism(tmp_path):
    train_path = tmp_path / "train.json"
    test_path = tmp_path / "test.json"
    save_dataset(generate_corpus(200, seed=71, name="train"), str(train_path))
    save_dataset(generate_corpus(60, seed=72, name="test"), str(test_path))
    config = {
        "train": str(train_path),
        "test": str(test_path),
        "output_dir": str(tmp_path / "run"),
        "upsample": True,
        "upsample_seed": 4,
        "tagger": {"kind": "PERCEPTRON", "epochs": 4, "seed": 11},
        "relation": {"kind": "LOGISTIC", "epochs": 10, "learning_rate": 0.5, "seed": 12},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    artifacts = [
        "tagger_model.json", "relation_model.json", "predictions.conll",
        "graphs.json", "triples.jsonl", "instances.jsonl", "report.json", "report.txt",
    ]

    def run_and_capture():
        assert main(["pipeline", str(config_path)]) == 0
        return {
            name: (tmp_path / "run" / name).read_bytes() for name in artifacts
        }

    first = run_and_capture()
    second = run_and_capture()
    for name in artifacts:
        assert first[name] == second[name], f"{name} differs between runs"
    _passed(7, "pipeline determinism")


# ---------------------------------------------------------------------------
# Criterion 8: requires-data distribution checks
# ---------------------------------------------------------------------------

DATA_DIR = os.environ.get("SENTIGRAPH_DATA_DIR", "")


@pytest.mark.skipif(
    not (
        DATA_DIR
        and os.path.isfile(os.path.join(DATA_DIR, "MPQA.json"))
        and os.path.isfile(os.path.join(DATA_DIR, "OpeNER_en.json"))
    ),
    reason="set SENTIGRAPH_DATA_DIR to a directory with MPQA.json and OpeNER_en.json",
)
def test_criterion_8_reference_distributions():
    mpqa = compute_stats(load_dataset(os.path.join(DATA_DIR, "MPQA.json")))
    assert mpqa["total_sentence"] == 5628
    assert mpqa["source_count"] == 1048
    assert mpqa["source_avg_count"] == 0.19
    opener = compute_stats(load_dataset(os.path.join(DATA_DIR, "OpeNER_en.json")))
    assert opener["total_sentence"] == 1640
    assert opener["exp_count"] == 2455
    assert opener["exp_avg_count"] == 1.50
    _passed(8, "reference distribution checks")


# ---------------------------------------------------------------------------
# Criterion 9: stratified evaluation partition and recombination
# ---------------------------------------------------------------------------


def test_criterion_9_stratified_partition_and_merge():
    corpus = generate_corpus(260, seed=91)
    # every sentence needs a target for SINGLE/MULTI to partition ALL
    targeted = [s for s in corpus.sentences if s.spans(Role.TARGET)]
    ds = Dataset(name="strata", sentences=targeted)
    single_ids = {s.id for s in ds.sentences if len(s.spans(Role.TARGET)) == 1}
    multi_ids = {s.id for s in ds.sentences if len(s.spans(Role.TARGET)) >= 2}
    assert single_ids and multi_ids
    assert single_ids | multi_ids == {s.id for s in ds.sentences}

    # deliberately imperfect predictions from the chunking baseline
    tagger = TaggerModel(TaggerKind.POS_CHUNK)
    rel = RelationModel(RelationKind.ALWAYS_TRUE)
    tags = {s.id: tag(tagger, s) for s in ds.sentences}
    graphs = {s.id: end_to_end(s, tagger, rel)[1] for s in ds.sentences}

    full = stratified_report(ds, tags, graphs, stratum=Stratum.ALL)
    single = stratified_report(ds, tags, graphs, stratum=Stratum.SINGLE_TARGET)
    multi = stratified_report(ds, tags, graphs, stratum=Stratum.MULTI_TARGET)
    assert single.sentence_count == len(single_ids)
    assert multi.sentence_count == len(multi_ids)
    assert single.sentence_count + multi.sentence_count == full.sentence_count

    def counts(prf):
        return (prf.tp, prf.fp, prf.fn)

    def merged(a, b):
        return (a.tp + b.tp, a.fp + b.fp, a.fn + b.fn)

    for role in Role:
        assert counts(full.token[role]) == merged(single.token[role], multi.token[role])
        assert counts(full.token_collapsed[role]) == merged(
            single.token_collapsed[role], multi.token_collapsed[role]
        )
    assert counts(full.graph) == merged(single.graph, multi.graph)
    for cls in ("positive", "negative"):
        assert counts(full.relation[cls]) == merged(single.relation[cls], multi.relation[cls])
    _passed(9, "stratified evaluation partition and merge")
