import random

import pytest

from helpers import love_school, opinion, sent, span
from sentigraph import (
    Dataset,
    OpinionTuple,
    Role,
    SentimentGraph,
    Stratum,
    ValidationError,
    encode,
    format_report_table,
    gold_graph,
    graph_f1,
    relation_prf,
    stratified_report,
    token_f1,
)
from sentigraph.relation import RelationInstance
from sentigraph.synth import generate_corpus


# ---------------------------------------------------------------------------
# token_f1
# ---------------------------------------------------------------------------


def test_token_f1_perfect_prediction():
    gold = [encode(love_school())]
    result = token_f1(gold, gold)
    for role in Role:
        assert result[role].precision == result[role].recall == result[role].f1 == 1.0


def test_token_f1_all_o_prediction_is_zero():
    gold = [encode(love_school())]
    pred = [("O", "O", "O")]
    result = token_f1(gold, pred)
    for role in Role:
        assert result[role].f1 == 0.0
        assert result[role].fn == 1


def test_token_f1_bio_granularity():
    gold = [("B-TARG", "I-TARG", "O")]
    pred = [("B-TARG", "B-TARG", "O")]
    exact = token_f1(gold, pred, collapse_bio=False)[Role.TARGET]
    assert (exact.tp, exact.fp, exact.fn) == (1, 1, 1)
    assert exact.f1 == 0.5
    collapsed = token_f1(gold, pred, collapse_bio=True)[Role.TARGET]
    assert (collapsed.tp, collapsed.fp, collapsed.fn) == (2, 0, 0)
    assert collapsed.f1 == 1.0


def test_token_f1_cross_role_confusion():
    gold = [("B-TARG",)]
    pred = [("B-EXP",)]
    result = token_f1(gold, pred)
    assert result[Role.TARGET].fn == 1
    assert result[Role.EXPRESSION].fp == 1


def test_token_f1_length_mismatch_names_sequence():
    with pytest.raises(ValidationError) as err:
        token_f1([("O",), ("O", "O")], [("O",), ("O",)])
    assert "sequence 1" in str(err.value)


def test_token_f1_count_mismatch():
    with pytest.raises(ValidationError):
        token_f1([("O",)], [])


def test_token_f1_unknown_label_names_its_side():
    with pytest.raises(ValidationError, match="sequence 0: unknown gold label 'B-X'"):
        token_f1([("B-X",)], [("O",)])
    with pytest.raises(ValidationError, match="sequence 0: unknown pred label 'B-X'"):
        token_f1([("O",)], [("B-X",)])


# ---------------------------------------------------------------------------
# graph_f1
# ---------------------------------------------------------------------------


def _graph(sent_id, *tuples):
    return SentimentGraph(sentence_id=sent_id, tuples=tuples)


def test_graph_f1_perfect():
    g = gold_graph(love_school())
    assert graph_f1([g], [g]).f1 == 1.0


def test_graph_f1_dropped_holder_is_no_match():
    gold = [
        _graph(
            "s",
            OpinionTuple(
                holders={span("h", 0, 1)},
                targets={span("t", 2, 3)},
                expressions={span("e", 1, 2)},
            ),
        )
    ]
    pred = [
        _graph(
            "s",
            OpinionTuple(targets={span("t", 2, 3)}, expressions={span("e", 1, 2)}),
        )
    ]
    result = graph_f1(gold, pred)
    assert (result.tp, result.fp, result.fn) == (0, 1, 1)
    assert result.f1 == 0.0


def test_graph_f1_empty_pred():
    gold = [_graph("s", OpinionTuple(expressions={span("e", 0, 1)}))]
    pred = [_graph("s")]
    result = graph_f1(gold, pred)
    assert result.precision == 0.0 and result.recall == 0.0 and result.f1 == 0.0


def test_graph_f1_empty_both_sides_defined():
    result = graph_f1([_graph("s")], [_graph("s")])
    assert (result.precision, result.recall, result.f1) == (0.0, 0.0, 0.0)


def test_graph_f1_alignment_error():
    with pytest.raises(ValidationError) as err:
        graph_f1([_graph("a")], [_graph("b")])
    assert "a" in str(err.value) and "b" in str(err.value)


def test_graph_f1_repeated_gold_id():
    with pytest.raises(ValidationError, match="duplicate sentence id 'a' in gold graphs"):
        graph_f1([_graph("a"), _graph("a")], [_graph("a")])


def test_graph_f1_partial_match_counts():
    e1, e2 = span("e", 0, 1), span("e", 2, 3)
    gold = [_graph("s", OpinionTuple(expressions={e1}), OpinionTuple(expressions={e2}))]
    pred = [_graph("s", OpinionTuple(expressions={e1}))]
    result = graph_f1(gold, pred)
    assert (result.tp, result.fp, result.fn) == (1, 0, 1)
    assert result.precision == 1.0 and result.recall == 0.5


# ---------------------------------------------------------------------------
# relation_prf
# ---------------------------------------------------------------------------


def _instances(labels):
    out = []
    for k, label in enumerate(labels):
        out.append(
            RelationInstance(
                "s",
                entity=span("t", 2 * k, 2 * k + 1),
                expression=span("e", 100 + k, 101 + k),
                label=label,
            )
        )
    return out


def test_relation_prf_always_true_recall():
    gold = _instances([True, True, True, False])
    result = relation_prf(gold, [True] * 4)
    assert result["positive"].recall == 1.0
    assert result["positive"].precision == 0.75
    assert result["negative"].recall == 0.0


def test_relation_prf_mixed_decisions():
    gold = _instances([True, False, True, False])
    pred = [True, True, False, False]
    result = relation_prf(gold, pred)
    assert (result["positive"].tp, result["positive"].fp, result["positive"].fn) == (1, 1, 1)
    assert (result["negative"].tp, result["negative"].fp, result["negative"].fn) == (1, 1, 1)


def test_relation_prf_misalignment():
    with pytest.raises(ValidationError):
        relation_prf(_instances([True]), [True, False])


def test_relation_prf_unlabeled_gold():
    with pytest.raises(ValidationError):
        relation_prf(_instances([None]), [True])


# ---------------------------------------------------------------------------
# stratified_report
# ---------------------------------------------------------------------------


def _mixed_fixture():
    one = sent(
        "one", ["bread", "rules", "here"],
        opinions=[opinion(targets=[span("t", 0, 1)], expressions=[span("e", 1, 2)])],
    )
    two = sent(
        "two", ["alice", "loves", "pizza", "and", "bread"],
        opinions=[
            opinion(
                holders=[span("h", 0, 1)],
                targets=[span("t", 2, 3), span("t", 4, 5)],
                expressions=[span("e", 1, 2)],
            )
        ],
    )
    none = sent("none", ["nothing", "here"])
    return Dataset(name="mixed", sentences=[one, two, none])


def _gold_predictions(ds):
    tags = {s.id: encode(s) for s in ds.sentences}
    graphs = {s.id: gold_graph(s) for s in ds.sentences}
    return tags, graphs


def test_stratified_partition_counts():
    ds = _mixed_fixture()
    tags, graphs = _gold_predictions(ds)
    single = stratified_report(ds, tags, graphs, stratum=Stratum.SINGLE_TARGET)
    multi = stratified_report(ds, tags, graphs, stratum=Stratum.MULTI_TARGET)
    full = stratified_report(ds, tags, graphs, stratum=Stratum.ALL)
    assert single.sentence_count == 1
    assert multi.sentence_count == 1
    assert full.sentence_count == 3


def test_stratified_all_equals_unstratified():
    ds = _mixed_fixture()
    tags, graphs = _gold_predictions(ds)
    report = stratified_report(ds, tags, graphs, stratum=Stratum.ALL)
    direct_tokens = token_f1([encode(s) for s in ds.sentences], [tags[s.id] for s in ds.sentences])
    assert report.token == direct_tokens
    direct_graph = graph_f1(
        [gold_graph(s) for s in ds.sentences], [graphs[s.id] for s in ds.sentences]
    )
    assert report.graph == direct_graph


def test_stratified_empty_stratum_is_zero_report():
    only_single = Dataset(name="s", sentences=[_mixed_fixture().sentences[0]])
    tags, graphs = _gold_predictions(only_single)
    report = stratified_report(only_single, tags, graphs, stratum=Stratum.MULTI_TARGET)
    assert report.sentence_count == 0
    for role in Role:
        assert report.token[role].tp == 0
    assert report.graph.tp == 0


def test_stratified_relation_section_scores_connectivity():
    # two opinion clusters: the cross pairs (t1,e2) and (t2,e1) are negative
    two_cluster = sent(
        "negpairs", [f"w{i}" for i in range(8)],
        opinions=[
            opinion(targets=[span("t", 0, 1)], expressions=[span("e", 1, 2)]),
            opinion(targets=[span("t", 6, 7)], expressions=[span("e", 5, 6)]),
        ],
    )
    ds = Dataset(name="conn", sentences=list(_mixed_fixture().sentences) + [two_cluster])
    tags, graphs = _gold_predictions(ds)
    # gold-echo predictions connect every gold pair correctly
    report = stratified_report(ds, tags, graphs, stratum=Stratum.ALL)
    assert report.relation["positive"].recall == 1.0
    assert report.relation["positive"].fp == 0
    assert report.relation["negative"].recall == 1.0
    # an empty graph misses all positive pairs but nails the negatives
    empty_graphs = {s.id: SentimentGraph(sentence_id=s.id) for s in ds.sentences}
    missed = stratified_report(ds, tags, empty_graphs, stratum=Stratum.ALL)
    assert missed.relation["positive"].recall == 0.0
    assert missed.relation["negative"].recall == 1.0
    assert missed.relation["negative"].precision == pytest.approx(2 / 8)


def test_stratified_tags_only_report():
    ds = _mixed_fixture()
    tags, _ = _gold_predictions(ds)
    report = stratified_report(ds, pred_tags=tags, stratum=Stratum.ALL)
    assert report.graph is None and report.relation is None
    assert report.token is not None


def test_stratified_needs_some_predictions():
    with pytest.raises(ValidationError):
        stratified_report(_mixed_fixture(), stratum=Stratum.ALL)


def test_stratified_missing_prediction_names_sentence():
    ds = _mixed_fixture()
    tags, graphs = _gold_predictions(ds)
    del tags["two"]
    with pytest.raises(ValidationError) as err:
        stratified_report(ds, tags, graphs, stratum=Stratum.ALL)
    assert "two" in str(err.value)


def test_stratified_missing_graph_names_sentence():
    ds = _mixed_fixture()
    tags, graphs = _gold_predictions(ds)
    del graphs["two"]
    with pytest.raises(ValidationError, match="no predicted graph for sentence 'two'"):
        stratified_report(ds, tags, graphs, stratum=Stratum.ALL)


# ---------------------------------------------------------------------------
# Properties and report plumbing
# ---------------------------------------------------------------------------


def test_swap_symmetry_token_and_graph():
    rng = random.Random(5)
    ds = generate_corpus(25, seed=15)
    gold_tags = [encode(s) for s in ds.sentences]
    pred_tags = []
    labels = ["O", "B-TARG", "I-TARG", "B-EXP", "B-HOLDER"]
    for seq in gold_tags:
        pred_tags.append(tuple(rng.choice(labels) if rng.random() < 0.3 else lab for lab in seq))
    forward = token_f1(gold_tags, pred_tags)
    backward = token_f1(pred_tags, gold_tags)
    for role in Role:
        assert forward[role].precision == pytest.approx(backward[role].recall)
        assert forward[role].recall == pytest.approx(backward[role].precision)
        assert forward[role].f1 == pytest.approx(backward[role].f1)
    gold_graphs = [gold_graph(s) for s in ds.sentences]
    pred_graphs = [
        SentimentGraph(sentence_id=g.sentence_id, tuples=g.tuples[:1]) for g in gold_graphs
    ]
    fwd = graph_f1(gold_graphs, pred_graphs)
    bwd = graph_f1(pred_graphs, gold_graphs)
    assert fwd.precision == pytest.approx(bwd.recall)
    assert fwd.recall == pytest.approx(bwd.precision)
    assert fwd.f1 == pytest.approx(bwd.f1)


def test_adding_true_positive_never_decreases_recall():
    e1, e2 = span("e", 0, 1), span("e", 2, 3)
    gold = [_graph("s", OpinionTuple(expressions={e1}), OpinionTuple(expressions={e2}))]
    before = graph_f1(gold, [_graph("s", OpinionTuple(expressions={e1}))])
    after = graph_f1(
        gold, [_graph("s", OpinionTuple(expressions={e1}), OpinionTuple(expressions={e2}))]
    )
    assert after.recall >= before.recall


def test_format_report_table_columns():
    ds = _mixed_fixture()
    tags, graphs = _gold_predictions(ds)
    report = stratified_report(ds, tags, graphs, stratum=Stratum.ALL)
    table = format_report_table([report])
    header, row = table.splitlines()
    assert header.split() == [
        "dataset", "stratum", "n_sent", "holder_f1", "target_f1",
        "expression_f1", "graph_f1", "rel_pos_f1", "rel_neg_f1",
    ]
    assert "mixed" in row and "1.000" in row
