import json
import math
import random

import pytest

from helpers import opinion, random_overlap_free_sentence, sent, span
from sentigraph import (
    Dataset,
    RelationInstance,
    RelationKind,
    RelationModel,
    Role,
    ValidationError,
    classify,
    featurize,
    generate_instances,
    train_logistic,
)
from sentigraph.relation import _sigmoid, candidate_spans, dump_instances, load_model, save_model
from sentigraph.synth import generate_corpus


def _pair_sentence():
    # two targets, one expression; gold tuple links only the first target
    return sent(
        "p",
        ["pizza", "rocks", "and", "bread", "too"],
        opinions=[opinion(targets=[span("t", 0, 1)], expressions=[span("e", 1, 2)])],
    )


def test_cross_product_count_and_order():
    s = _pair_sentence()
    entities = {span("t", 3, 4), span("t", 0, 1)}
    expressions = {span("e", 1, 2)}
    instances = generate_instances(s, entities, expressions)
    assert len(instances) == 2
    assert [inst.entity.start for inst in instances] == [0, 3]
    assert all(inst.label is None for inst in instances)


def test_gold_labels_from_tuples():
    s = _pair_sentence()
    instances = generate_instances(
        s, {span("t", 0, 1), span("t", 3, 4)}, {span("e", 1, 2)}, gold=s.opinions
    )
    by_entity = {inst.entity.start: inst.label for inst in instances}
    assert by_entity == {0: True, 3: False}


def test_single_pair_sentence_is_positive():
    # negatives require two or more pairs; a lone pair is labeled true
    s = _pair_sentence()
    instances = generate_instances(s, {span("t", 0, 1)}, {span("e", 1, 2)}, gold=s.opinions)
    assert [inst.label for inst in instances] == [True]


def test_gold_labeling_matches_brute_force():
    ds = generate_corpus(60, seed=3)
    for sentence in ds.sentences:
        entities = sentence.spans(Role.HOLDER) | sentence.spans(Role.TARGET)
        expressions = sentence.spans(Role.EXPRESSION)
        instances = generate_instances(sentence, entities, expressions, gold=sentence.opinions)
        assert len(instances) == len(entities) * len(expressions)
        for inst in instances:
            expected = False
            for t in sentence.opinions:
                if inst.expression in t.expressions and (
                    inst.entity in t.holders or inst.entity in t.targets
                ):
                    expected = True
            assert inst.label == expected


def test_candidate_spans_splits_entities_from_expressions():
    rng = random.Random(27)
    sentences = list(generate_corpus(80, seed=27).sentences) + [
        random_overlap_free_sentence(rng, f"r{k}") for k in range(200)]
    for sentence in sentences:
        assert candidate_spans(sentence.spans()) == (
            sentence.spans(Role.HOLDER) | sentence.spans(Role.TARGET),
            sentence.spans(Role.EXPRESSION),
        )


def test_entity_role_violation():
    s = _pair_sentence()
    with pytest.raises(ValidationError):
        generate_instances(s, {span("e", 1, 2)}, {span("e", 1, 2)})


def test_instance_rejects_non_expression():
    with pytest.raises(ValidationError):
        RelationInstance("s", entity=span("t", 0, 1), expression=span("t", 1, 2))


# ---------------------------------------------------------------------------
# featurize
# ---------------------------------------------------------------------------


def test_featurize_adjacent_distance_zero():
    s = _pair_sentence()
    inst = RelationInstance("p", entity=span("t", 0, 1), expression=span("e", 1, 2))
    # The whole tuple: a pair's features are these templates and no others.
    assert featurize(s, inst) == (
        "dist=0", "ent_len=1", "ent_w=pizza", "exp_len=1", "exp_w=rocks", "order=ent_first",
        "role=TARGET",
    )


def test_featurize_bucketed_distance_and_between_words():
    s = sent("d", [f"w{i}" for i in range(6)])
    inst = RelationInstance("d", entity=span("h", 0, 1), expression=span("e", 5, 6))
    feats = featurize(s, inst)
    # four tokens strictly between -> bucket 3-5
    assert "dist=3-5" in feats
    assert "order=ent_first" in feats
    assert {"btw_w=w1", "btw_w=w2", "btw_w=w3", "btw_w=w4"} <= set(feats)


def test_featurize_reversed_order():
    s = sent("r", [f"w{i}" for i in range(4)])
    inst = RelationInstance("r", entity=span("t", 3, 4), expression=span("e", 0, 1))
    assert featurize(s, inst) == (
        "btw_w=w1", "btw_w=w2", "dist=2", "ent_len=1", "ent_w=w3", "exp_len=1", "exp_w=w0",
        "order=exp_first", "role=TARGET",
    )


def test_featurize_between_word_cap():
    s = sent("long", [f"w{i}" for i in range(13)])
    inst = RelationInstance("long", entity=span("t", 0, 1), expression=span("e", 12, 13))
    feats = featurize(s, inst)
    assert "dist=>10" in feats
    assert "btw_w=w10" in feats
    assert "btw_w=w11" not in feats  # 11 tokens between, capped at 10


def test_featurize_deterministic():
    s = _pair_sentence()
    inst = RelationInstance("p", entity=span("t", 3, 4), expression=span("e", 1, 2))
    assert featurize(s, inst) == featurize(s, inst)


# ---------------------------------------------------------------------------
# Training and classification
# ---------------------------------------------------------------------------


def _gold_instances(ds):
    instances = []
    for sentence in ds.sentences:
        entities = sentence.spans(Role.HOLDER) | sentence.spans(Role.TARGET)
        expressions = sentence.spans(Role.EXPRESSION)
        instances.extend(generate_instances(sentence, entities, expressions, gold=sentence.opinions))
    return instances


def test_logistic_learns_distance_rule():
    train_ds = generate_corpus(260, seed=31, name="train")
    test_ds = generate_corpus(90, seed=32, name="test")
    model = train_logistic(
        _gold_instances(train_ds), train_ds, epochs=25, learning_rate=0.5, seed=7
    )
    by_id = test_ds.by_id()
    tp = fp = fn = 0
    for inst in _gold_instances(test_ds):
        sentence = by_id[inst.sentence_id]
        decision, _ = classify(model, sentence, inst)
        if decision and inst.label:
            tp += 1
        elif decision:
            fp += 1
        elif inst.label:
            fn += 1
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    f1 = 2 * precision * recall / (precision + recall)
    assert f1 >= 0.9


def test_logistic_single_class_errors():
    ds = Dataset(name="one", sentences=[_pair_sentence()])
    instances = generate_instances(
        ds.sentences[0], {span("t", 0, 1)}, {span("e", 1, 2)}, gold=ds.sentences[0].opinions
    )
    with pytest.raises(ValidationError):
        train_logistic(instances, ds, epochs=1, learning_rate=0.1, seed=0)


def test_logistic_deterministic():
    ds = generate_corpus(80, seed=41)
    instances = _gold_instances(ds)
    a = train_logistic(instances, ds, epochs=5, learning_rate=0.3, seed=11)
    b = train_logistic(instances, ds, epochs=5, learning_rate=0.3, seed=11)
    assert a.weights == b.weights and a.bias == b.bias


def test_logistic_hyperparameter_validation():
    ds = generate_corpus(40, seed=1)
    instances = _gold_instances(ds)
    with pytest.raises(ValidationError):
        train_logistic(instances, ds, epochs=0, learning_rate=0.1, seed=0)
    with pytest.raises(ValidationError):
        train_logistic(instances, ds, epochs=1, learning_rate=0.0, seed=0)


def test_logistic_rejects_unlabeled_instances():
    ds = Dataset(name="u", sentences=[_pair_sentence()])
    unlabeled = generate_instances(
        ds.sentences[0], {span("t", 0, 1), span("t", 3, 4)}, {span("e", 1, 2)}
    )
    with pytest.raises(ValidationError):
        train_logistic(unlabeled, ds, epochs=1, learning_rate=0.1, seed=0)


def test_logistic_rejects_an_instance_of_an_unknown_sentence():
    s = _pair_sentence()
    instances = generate_instances(
        s, {span("t", 0, 1), span("t", 3, 4)}, {span("e", 1, 2)}, gold=s.opinions
    )
    other = Dataset(name="o", sentences=[sent("q", ["x"])])
    with pytest.raises(ValidationError, match="instance references unknown sentence 'p'"):
        train_logistic(instances, other, epochs=1, learning_rate=0.1, seed=0)


def _mean_log_loss(model, ds, instances):
    by_id = ds.by_id()
    total = 0.0
    for inst in instances:
        sentence = by_id[inst.sentence_id]
        _, score = classify(model, sentence, inst)
        p = min(max(score, 1e-12), 1 - 1e-12)
        total += -(math.log(p) if inst.label else math.log(1 - p))
    return total / len(instances)


def test_logistic_training_loss_decreases():
    ds = generate_corpus(120, seed=51)
    instances = _gold_instances(ds)
    first = train_logistic(instances, ds, epochs=1, learning_rate=0.3, seed=5)
    final = train_logistic(instances, ds, epochs=10, learning_rate=0.3, seed=5)
    assert _mean_log_loss(final, ds, instances) <= _mean_log_loss(first, ds, instances)


def test_always_true_classify():
    s = _pair_sentence()
    inst = RelationInstance("p", entity=span("t", 0, 1), expression=span("e", 1, 2))
    model = RelationModel(RelationKind.ALWAYS_TRUE)
    assert classify(model, s, inst) == (True, 1.0)


def test_zero_weight_logistic_is_false_at_threshold():
    model = RelationModel(kind=RelationKind.LOGISTIC)
    s = _pair_sentence()
    inst = RelationInstance("p", entity=span("t", 0, 1), expression=span("e", 1, 2))
    decision, score = classify(model, s, inst)
    assert score == 0.5
    assert decision is False


def test_classify_adds_weights_left_to_right():
    # Left to right, 1e16 + 1.0 rounds back to 1e16 and the sum is exactly
    # 0.0; a compensated sum, such as sum() from Python 3.12 on, gives 1.0.
    s = _pair_sentence()
    inst = RelationInstance("p", entity=span("t", 0, 1), expression=span("e", 1, 2))
    a, b, *_, c = featurize(s, inst)
    bias = 0.25
    model = RelationModel(
        kind=RelationKind.LOGISTIC, weights={a: 1e16, b: 1.0, c: -1e16}, bias=bias
    )
    _, score = classify(model, s, inst)
    assert score == _sigmoid(bias + 0.0)


def test_trained_model_accepts_close_pair():
    ds = generate_corpus(200, seed=61)
    model = train_logistic(_gold_instances(ds), ds, epochs=20, learning_rate=0.5, seed=3)
    s = sent("probe", ["alice", "loves", "the", "pizza"])
    inst = RelationInstance("probe", entity=span("h", 0, 1), expression=span("e", 1, 2))
    decision, score = classify(model, s, inst)
    assert decision is True and score > 0.5


def test_relation_model_threshold_validation():
    with pytest.raises(ValidationError):
        RelationModel(kind=RelationKind.LOGISTIC, threshold=1.0)


def test_relation_model_rejects_a_non_finite_weight_or_bias():
    with pytest.raises(ValidationError, match="weight for 'f' must be a finite number, got inf"):
        RelationModel(kind=RelationKind.LOGISTIC, weights={"f": math.inf})
    with pytest.raises(ValidationError, match="'bias' must be a finite number, got nan"):
        RelationModel(kind=RelationKind.LOGISTIC, bias=math.nan)
    with pytest.raises(ValidationError, match="weight for 'a' must be a finite number, got 'x'"):
        RelationModel(kind=RelationKind.LOGISTIC, weights={"a": "x"})
    with pytest.raises(ValidationError, match="'bias' must be a finite number, got None"):
        RelationModel(kind=RelationKind.LOGISTIC, bias=None)
    with pytest.raises(ValidationError, match="'weights' must map features to numbers"):
        RelationModel(kind=RelationKind.LOGISTIC, weights=[("a", 1.0)])
    # An ALWAYS_TRUE model reads neither, so it may hold neither.
    with pytest.raises(ValidationError, match="'weights' applies only to kind LOGISTIC"):
        RelationModel(kind=RelationKind.ALWAYS_TRUE, weights={"a": 1.0})
    with pytest.raises(ValidationError, match="'bias' applies only to kind LOGISTIC"):
        RelationModel(kind=RelationKind.ALWAYS_TRUE, bias=0.5)


def test_relation_model_stores_its_numbers_as_floats():
    model = RelationModel(kind=RelationKind.LOGISTIC, weights={"a": 2}, bias=-1)
    assert [type(x) for x in (model.weights["a"], model.bias)] == [float, float]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_relation_model_round_trip(tmp_path):
    ds = generate_corpus(60, seed=71)
    model = train_logistic(_gold_instances(ds), ds, epochs=3, learning_rate=0.4, seed=2)
    path = tmp_path / "rel.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded == model


def test_load_model_rejects_weights_that_are_not_an_object(tmp_path):
    path = tmp_path / "rel.json"
    path.write_text('{"kind": "LOGISTIC", "weights": []}', encoding="utf-8")
    with pytest.raises(ValidationError, match="'weights' must map features to numbers"):
        load_model(str(path))


def test_instance_dump_round_trip(tmp_path):
    s = _pair_sentence()
    instances = generate_instances(
        s, {span("t", 0, 1), span("t", 3, 4)}, {span("e", 1, 2)}, gold=s.opinions
    )
    rows = [(inst, 0.25 * k) for k, inst in enumerate(instances)]
    path = tmp_path / "instances.jsonl"
    dump_instances(str(path), rows)
    assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] == [
        {
            "sentence_id": "p",
            "entity": [inst.entity.start, inst.entity.end, "TARGET"],
            "expression": [1, 2],
            "label": inst.label,
            "score": score,
        }
        for inst, score in rows
    ]
