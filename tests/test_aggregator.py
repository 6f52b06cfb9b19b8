import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import love_school, opinion, sent, span
from sentigraph import (
    OpinionTuple,
    RelationKind,
    RelationModel,
    Role,
    SentimentGraph,
    Span,
    TaggerKind,
    TaggerModel,
    ValidationError,
    aggregate,
    classify,
    decode,
    encode,
    end_to_end,
    generate_instances,
    gold_graph,
    gold_instances,
    graphs_to_dataset,
    tag,
    train_logistic,
    train_perceptron,
    write_triples,
)
from sentigraph.relation import linked_pairs
from sentigraph.synth import generate_corpus


def test_single_tuple_when_all_true():
    s = love_school()
    h, t, e = span("h", 0, 1), span("t", 2, 3), span("e", 1, 2)
    graph = aggregate(s, {e}, [(h, e), (t, e)])
    assert graph.tuples == (
        OpinionTuple(holders={h}, targets={t}, expressions={e}),
    )


def test_all_false_keeps_expression_only_tuples():
    s = sent("f", [f"w{i}" for i in range(6)])
    h, e1, e2 = span("h", 0, 1), span("e", 2, 3), span("e", 4, 5)
    graph = aggregate(s, {e1, e2}, [])
    assert graph.tuples == (
        OpinionTuple(expressions={e1}),
        OpinionTuple(expressions={e2}),
    )


def test_shared_target_split_decisions():
    s = sent("sh", [f"w{i}" for i in range(6)])
    t, e1, e2 = span("t", 0, 1), span("e", 2, 3), span("e", 4, 5)
    graph = aggregate(s, {e1, e2}, [(t, e1)])
    assert graph.tuples == (
        OpinionTuple(targets={t}, expressions={e1}),
        OpinionTuple(expressions={e2}),
    )


def test_unknown_expression_names_span():
    s = sent("m", [f"w{i}" for i in range(4)])
    t, e = span("t", 0, 1), span("e", 2, 3)
    with pytest.raises(ValidationError) as err:
        aggregate(s, set(), [(t, e)])
    assert "'m'" in str(err.value) and "[2, 3)" in str(err.value)


_ENTITIES = [span(role, i, i + 1) for role in "ht" for i in range(4)]
_EXPRESSIONS = [span("e", 4 + i, 5 + i) for i in range(4)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_aggregate_inverts_linked_pairs(data):
    expressions = data.draw(st.sets(st.sampled_from(_EXPRESSIONS)))
    ordered = sorted(expressions, key=Span.sort_key)
    candidates = [(e, x) for e in _ENTITIES for x in ordered]
    linked = data.draw(st.lists(st.sampled_from(candidates), max_size=12)) if candidates else []
    graph = aggregate(sent("p", [f"w{i}" for i in range(8)]), expressions, linked)
    assert linked_pairs(graph.tuples) == set(linked)
    assert [x for t in graph.tuples for x in t.expressions] == ordered


def test_gold_graph_links_the_gold_pairs():
    # "t" is a target of both expressions; "e" anchors two gold tuples
    t, e, other = span("t", 0, 1), span("e", 2, 3), span("e", 5, 6)
    s = sent(
        "share", [f"w{i}" for i in range(7)],
        opinions=[
            opinion(targets=[t], expressions=[e]),
            opinion(holders=[span("h", 3, 4)], expressions=[e]),
            opinion(holders=[span("h", 4, 5)], targets=[t], expressions=[other]),
        ],
    )
    sentences = [s, *generate_corpus(60, seed=83).sentences]
    for sentence in sentences:
        assert linked_pairs(gold_graph(sentence).tuples) == linked_pairs(sentence.opinions)


def test_tuples_ordered_by_expression_start():
    s = sent("o", [f"w{i}" for i in range(6)])
    e_late, e_early = span("e", 4, 5), span("e", 0, 1)
    graph = aggregate(s, {e_late, e_early}, [])
    starts = [next(iter(t.expressions)).start for t in graph.tuples]
    assert starts == [0, 4]


def test_graph_invariants_enforced():
    e = span("e", 0, 1)
    with pytest.raises(ValidationError):
        SentimentGraph(
            sentence_id="dup",
            tuples=[OpinionTuple(expressions={e}), OpinionTuple(expressions={e})],
        )
    with pytest.raises(ValidationError):
        SentimentGraph(
            sentence_id="two",
            tuples=[OpinionTuple(expressions={e, span("e", 2, 3)})],
        )
    with pytest.raises(ValidationError):
        SentimentGraph(
            sentence_id="pol",
            tuples=[OpinionTuple(expressions={e}, polarity="positive")],
        )


def test_gold_graph_of_simple_sentence():
    s = love_school()
    graph = gold_graph(s)
    assert graph.tuples == (
        OpinionTuple(
            holders={span("h", 0, 1)},
            targets={span("t", 2, 3)},
            expressions={span("e", 1, 2)},
        ),
    )


def test_gold_graph_merges_tuples_sharing_expression():
    shared = span("e", 2, 3)
    s = sent(
        "merge", [f"w{i}" for i in range(6)],
        opinions=[
            opinion(targets=[span("t", 0, 1)], expressions=[shared]),
            opinion(holders=[span("h", 4, 5)], expressions=[shared]),
        ],
    )
    graph = gold_graph(s)
    assert graph.tuples == (
        OpinionTuple(
            holders={span("h", 4, 5)}, targets={span("t", 0, 1)}, expressions={shared}
        ),
    )


def test_gold_echo_plus_always_true_equals_gold():
    # echo the gold tags through decode, classify with the always-true
    # baseline: on a one-entity/one-expression sentence the graph is gold
    s = sent(
        "echo", ["bread", "rules"],
        opinions=[opinion(targets=[span("t", 0, 1)], expressions=[span("e", 1, 2)])],
    )
    spans = decode(encode(s))
    entities = {x for x in spans if x.role is not Role.EXPRESSION}
    expressions = {x for x in spans if x.role is Role.EXPRESSION}
    model = RelationModel(RelationKind.ALWAYS_TRUE)
    linked = [
        (i.entity, i.expression)
        for i in generate_instances(s, entities, expressions)
        if classify(model, s, i)[0]
    ]
    assert aggregate(s, expressions, linked) == gold_graph(s)


def test_most_common_tagger_yields_empty_graph():
    labels, graph, scored = end_to_end(love_school(), TaggerModel(TaggerKind.MOST_COMMON),
                                       RelationModel(RelationKind.ALWAYS_TRUE))
    assert labels == ("O", "O", "O")
    assert graph.tuples == ()
    assert scored == []


def test_end_to_end_matches_manual_composition():
    ds = generate_corpus(40, seed=81)
    tagger = TaggerModel(TaggerKind.POS_CHUNK)
    rel = RelationModel(RelationKind.ALWAYS_TRUE)
    for sentence in ds.sentences:
        labels = tag(tagger, sentence)
        spans = decode(labels)
        entities = {s for s in spans if s.role is not Role.EXPRESSION}
        expressions = {s for s in spans if s.role is Role.EXPRESSION}
        linked = [
            (i.entity, i.expression)
            for i in generate_instances(sentence, entities, expressions)
            if classify(rel, sentence, i)[0]
        ]
        manual = aggregate(sentence, expressions, linked)
        assert end_to_end(sentence, tagger, rel)[:2] == (labels, manual)


def test_a_pair_scores_the_same_whatever_other_expressions_lie_between():
    s = sent("seam", ["alice", "hates", "and", "loves"])
    holder, loves = span("h", 0, 1), span("e", 3, 4)
    # No feature counts the expressions between two spans, so this weight does nothing.
    rel = RelationModel(RelationKind.LOGISTIC, weights={"n_exp_between=1": 5.0, "dist=2": 1.0})
    scores = []
    for labels in (("B-HOLDER", "O", "O", "B-EXP"), ("B-HOLDER", "B-EXP", "O", "B-EXP")):
        scored = end_to_end(s, None, rel, labels=labels)[2]
        scores.append([score for inst, score in scored
                       if (inst.entity, inst.expression) == (holder, loves)])
    assert scores[0] == scores[1] == [pytest.approx(0.7310585786300049)]


def test_end_to_end_with_trained_models():
    train = generate_corpus(150, seed=91, name="train")
    test = generate_corpus(30, seed=92, name="test")
    tagger = train_perceptron(train, epochs=5, seed=1)
    instances = [inst for s in train.sentences for inst in gold_instances(s)]
    rel = train_logistic(instances, train, epochs=10, learning_rate=0.5, seed=2)
    graphs = []
    for sentence in test.sentences:
        labels, graph, scored = end_to_end(sentence, tagger, rel)
        assert graph.sentence_id == sentence.id
        # external labels take the tagger's place
        assert end_to_end(sentence, None, rel, labels=list(labels)) == (labels, graph, scored)
        spans = decode(labels)
        assert [inst for inst, _ in scored] == generate_instances(
            sentence,
            {s for s in spans if s.role is not Role.EXPRESSION},
            {s for s in spans if s.role is Role.EXPRESSION},
        )
        assert all(0.0 <= score <= 1.0 for _, score in scored)
        graphs.append(graph)
    assert any(g.tuples for g in graphs)


def test_graphs_to_dataset_round_trip():
    ds = generate_corpus(20, seed=71)
    graphs = {s.id: gold_graph(s) for s in ds.sentences}
    converted = graphs_to_dataset(ds, graphs)
    assert [s.id for s in converted] == [s.id for s in ds]
    for sentence in converted.sentences:
        assert SentimentGraph(sentence.id, sentence.opinions) == graphs[sentence.id]


def test_graphs_to_dataset_missing_graph_names_sentence():
    ds = generate_corpus(2, seed=71)
    graphs = {ds.sentences[0].id: gold_graph(ds.sentences[0])}
    with pytest.raises(ValidationError, match=f"no graph for sentence '{ds.sentences[1].id}'"):
        graphs_to_dataset(ds, graphs)


def test_write_triples_format(tmp_path):
    s = love_school()
    path = tmp_path / "triples.jsonl"
    write_triples(str(path), [gold_graph(s)])
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert rows == [
        {
            "sentence_id": "s-love",
            "holders": [[0, 1]],
            "targets": [[2, 3]],
            "expression": [1, 2],
        }
    ]
