"""The dataset and JSON-lines writers format their text from fixed templates.

Their oracle is the formatting they replaced: ``save_dataset`` writes the
bytes of ``json.dumps(dataset_to_dict(ds), indent=2, sort_keys=True,
ensure_ascii=False)`` plus a newline, and each line of ``dump_instances``
and ``write_triples`` is ``json.dumps(row, sort_keys=True,
ensure_ascii=False)`` of its row.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import dataset_to_dict
from sentigraph import (
    Dataset,
    OpinionTuple,
    RelationInstance,
    Role,
    Sentence,
    SentimentGraph,
    Span,
    Token,
    ValidationError,
    save_dataset,
)
from sentigraph.aggregator import write_triples
from sentigraph.relation import dump_instances

# Characters JSON escapes or that a text codec might treat specially.
EDGE_CHARS = ("é", "日", "😀", '"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t",
              "\xa0", "\u2028", "\u2029", "\ufeff")
chars = st.characters(blacklist_categories=("Cs",)) | st.sampled_from(EDGE_CHARS)
texts = st.text(chars, max_size=6)
words = st.text(chars, min_size=1, max_size=4)
optional_texts = st.none() | texts

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _spans(draw, role, n, min_size=0):
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n)),
                          min_size=min_size, max_size=3))
    return [Span(role, start, max(end, start + 1)) for start, end in pairs]


@st.composite
def sentences(draw, sent_id):
    tokens, text = [], draw(texts)
    for word in draw(st.lists(words, max_size=6)):
        tokens.append(Token(word, len(text), len(text) + len(word), draw(optional_texts)))
        text += word + draw(texts)
    opinions = []
    if tokens:
        n = len(tokens)
        for _ in range(draw(st.integers(0, 3))):
            opinions.append(OpinionTuple(
                holders=_spans(draw, Role.HOLDER, n),
                targets=_spans(draw, Role.TARGET, n),
                expressions=_spans(draw, Role.EXPRESSION, n, min_size=1),
                polarity=draw(optional_texts),
            ))
    return Sentence(id=sent_id, text=text, tokens=tokens, opinions=opinions)


@st.composite
def datasets(draw):
    ids = draw(st.lists(words, unique=True, max_size=4))
    return Dataset(name=draw(texts), sentences=[draw(sentences(i)) for i in ids])


@SETTINGS
@given(ds=datasets())
def test_save_dataset_matches_json_dumps(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("dataset") / "ds.json"
    save_dataset(ds, str(path))
    expected = json.dumps(dataset_to_dict(ds), indent=2, sort_keys=True, ensure_ascii=False)
    assert path.read_bytes() == (expected + "\n").encode("utf-8")


@pytest.mark.parametrize("ds", [
    Dataset(name=""),
    Dataset(name="x", sentences=[Sentence(id="no tokens", text="")]),
    Dataset(name="x", sentences=[Sentence(id="a", text="ab", tokens=[Token("ab", 0, 2)])]),
], ids=["no sentences", "no tokens", "no opinions"])
def test_save_dataset_empty_lists(tmp_path, ds):
    path = tmp_path / "ds.json"
    save_dataset(ds, str(path))
    expected = json.dumps(dataset_to_dict(ds), indent=2, sort_keys=True, ensure_ascii=False)
    assert path.read_text(encoding="utf-8") == expected + "\n"


def _lines(path):
    # Split at "\n" only: str.splitlines would also split at U+2028 inside a string.
    return path.read_text(encoding="utf-8").split("\n")[:-1]


scores = st.none() | st.floats() | st.sampled_from(
    (1e-300, 5e-324, -0.0, 1.0, 0.1, 1e16, float("nan"), float("inf"), float("-inf")))


@st.composite
def scored_instances(draw):
    start = draw(st.integers(0, 50))
    entity = Span(draw(st.sampled_from((Role.HOLDER, Role.TARGET))), start,
                  start + draw(st.integers(1, 3)))
    start = draw(st.integers(0, 50))
    expression = Span(Role.EXPRESSION, start, start + draw(st.integers(1, 3)))
    inst = RelationInstance(draw(words), entity, expression,
                            label=draw(st.sampled_from((None, True, False))))
    return inst, draw(scores)


@SETTINGS
@given(rows=st.lists(scored_instances(), max_size=5))
def test_dump_instances_matches_json_dumps(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("instances") / "instances.jsonl"
    dump_instances(str(path), rows)
    assert _lines(path) == [json.dumps({
        "sentence_id": inst.sentence_id,
        "entity": [inst.entity.start, inst.entity.end, inst.entity.role.value],
        "expression": [inst.expression.start, inst.expression.end],
        "label": inst.label,
        "score": score,
    }, sort_keys=True, ensure_ascii=False) for inst, score in rows]


@st.composite
def graphs(draw):
    tuples, used = [], set()
    for _ in range(draw(st.integers(0, 3))):
        (expression,) = _spans(draw, Role.EXPRESSION, 30, min_size=1)[:1]
        if expression in used:
            continue
        used.add(expression)
        tuples.append(OpinionTuple(holders=_spans(draw, Role.HOLDER, 30),
                                   targets=_spans(draw, Role.TARGET, 30),
                                   expressions=[expression]))
    return SentimentGraph(draw(words), tuples)


@SETTINGS
@given(graph_list=st.lists(graphs(), max_size=4))
def test_write_triples_matches_json_dumps(tmp_path_factory, graph_list):
    path = tmp_path_factory.mktemp("triples") / "triples.jsonl"
    write_triples(str(path), graph_list)
    assert _lines(path) == [json.dumps({
        "sentence_id": graph.sentence_id,
        "holders": sorted([s.start, s.end] for s in t.holders),
        "targets": sorted([s.start, s.end] for s in t.targets),
        "expression": [e.start, e.end],
    }, sort_keys=True, ensure_ascii=False)
        for graph in graph_list for t in graph.tuples for e in t.expressions]


def _surrogate_writes():
    sentence = Sentence(id="a\ud800", text="ab", tokens=[Token("ab", 0, 2)])
    inst = RelationInstance(sentence.id, Span(Role.TARGET, 0, 1), Span(Role.EXPRESSION, 1, 2))
    return {
        "save_dataset": lambda path: save_dataset(Dataset("d", [sentence]), path),
        "dump_instances": lambda path: dump_instances(path, [(inst, 0.5)]),
        "write_triples": lambda path: write_triples(path, [SentimentGraph(sentence.id, [
            OpinionTuple(expressions=[Span(Role.EXPRESSION, 1, 2)])])]),
    }


@pytest.mark.parametrize("writer", sorted(_surrogate_writes()))
def test_lone_surrogate_in_a_sentence_id_keeps_the_earlier_file(tmp_path, writer):
    path = tmp_path / "out"
    path.write_bytes(b"earlier\n")
    with pytest.raises(ValidationError, match="cannot write '\\\\ud800' as UTF-8"):
        _surrogate_writes()[writer](str(path))
    assert path.read_bytes() == b"earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
