"""Property: every file loader either returns or raises ``InputError``.

Arbitrary JSON values are written to a file and handed to the dataset
loader, both model loaders and the config loader. Object keys and string
leaves are drawn partly from the names those loaders look for, so the
values also reach past the top-level checks. Arbitrary text goes the same
way to both CoNLL readers; it is drawn either whole or line by line from
cells that are partly CoNLL columns, labels and ``# sent_id`` headers.
The same JSON values, as the fields of ``TaggerModel`` and ``RelationModel``
built in code, give a model that tags or classifies, or an ``InputError``.
As the fields of the data model (``Span``, ``Token`` in a ``Sentence``,
``OpinionTuple``, ``Sentence``, ``Dataset``, ``RelationInstance`` and
``SentimentGraph``) they give an object or an ``InputError``, and every
``Dataset`` that is built reads back equal from the file it is saved to.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import sent, span
from sentigraph import (
    BIO_LABELS,
    Dataset,
    InputError,
    OpinionTuple,
    RelationInstance,
    RelationKind,
    RelationModel,
    Role,
    Sentence,
    SentimentGraph,
    Span,
    TaggerKind,
    TaggerModel,
    Token,
    classify,
    featurize,
    load_conll,
    load_dataset,
    relation,
    save_dataset,
    tag,
    taggers,
)
from sentigraph.cli import load_config, main
from sentigraph.synth import generate_corpus

KEYS = (
    "name", "sentences", "id", "text", "tokens", "start", "end", "pos", "opinions",
    "holders", "targets", "expressions", "polarity", "kind", "weights", "map", "bias",
    "threshold", "train", "test", "dev", "output_dir", "overlap_policy", "upsample",
    "upsample_seed", "tagger", "relation", "epochs", "seed", "pos_map", "learning_rate",
    "class_weight", "O", "B-EXP", "NOUN", "w=x", "p0=NOUN",
)
WORDS = (
    "PERCEPTRON", "POS_CHUNK", "MOST_COMMON", "LOGISTIC", "ALWAYS_TRUE", "balanced",
    "DROP_SENTENCE", "B-EXP", "w=x\tB-EXP", "NOUN",
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(WORDS)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), children, max_size=5),
    max_leaves=20,
)

conll_cells = st.text(max_size=6) | st.sampled_from(BIO_LABELS + ("_", "1", "2", "3", "NOUN"))
conll_lines = (
    st.text(max_size=20)
    | st.sampled_from(("", "# sent_id = a", "# sent_id = b", "# sent_id =", "#"))
    | st.lists(conll_cells, min_size=1, max_size=5).map("\t".join)
    | st.lists(conll_cells, min_size=1, max_size=5).map(" ".join)
)
conll_texts = st.text() | st.lists(conll_lines, max_size=12).map("\n".join)

# A sentence whose first token has the features w=x and p0=NOUN, and one of its pairs.
PROBE = sent("probe", ["x", "love", "school"], pos=["NOUN", "VERB", "NOUN"])
PROBE_PAIR = RelationInstance("probe", entity=span("t", 0, 1), expression=span("e", 1, 2))

# Gold sentences for load_external_predictions: ids a and b, 1 and 2 tokens.
CONLL_GOLD = Dataset(name="gold", sentences=[sent("a", ["x"]), sent("b", ["y", "z"])])

LOADERS = {
    "dataset": load_dataset,
    "tagger_model": taggers.load_model,
    "relation_model": relation.load_model,
    "config": load_config,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("json-loaders")
    save_dataset(generate_corpus(3, seed=1, name="tiny"), str(root / "data.json"))
    (root / "tagger.json").write_text('{"kind": "MOST_COMMON"}', encoding="utf-8")
    return root


def _returns_or_input_error(loader, path) -> bool:
    """True if ``loader`` returned, False if it raised InputError."""
    try:
        loader(str(path))
    except InputError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=json_values)
def test_loader_returns_or_raises_input_error(workdir, name, value):
    path = workdir / f"{name}.input.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    _returns_or_input_error(LOADERS[name], path)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=json_values)
def test_predict_exits_2_on_a_bad_relation_model(workdir, value):
    path = workdir / "rel.input.json"
    path.write_text(json.dumps(value), encoding="utf-8")
    expected = 0 if _returns_or_input_error(relation.load_model, path) else 2
    with contextlib.redirect_stderr(io.StringIO()):
        rc = main(["--output-dir", str(workdir / "out"), "predict",
                   "--data", str(workdir / "data.json"),
                   "--tagger-model", str(workdir / "tagger.json"),
                   "--relation-model", str(path)])
    assert rc == expected


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=conll_texts)
def test_conll_loaders_return_or_raise_input_error(workdir, text):
    path = workdir / "input.conll"
    path.write_text(text, encoding="utf-8")
    _returns_or_input_error(load_conll, path)
    _returns_or_input_error(lambda p: taggers.load_external_predictions(p, CONLL_GOLD), path)


# Each model field left out, drawn from json_values, or drawn in the field's
# shape, where a label or number may still be junk; weight keys include
# features of PROBE and PROBE_PAIR.
labels = st.sampled_from(BIO_LABELS + ("B-HOLDERX",))
numbers = st.floats(allow_nan=False, allow_infinity=False) | scalars
tagger_fields = st.fixed_dictionaries({}, optional={
    "weights": json_values | st.dictionaries(
        st.sampled_from(KEYS), st.dictionaries(labels, numbers, max_size=4), max_size=4),
    "pos_map": json_values | st.dictionaries(st.sampled_from(KEYS), labels | scalars, max_size=4),
})
relation_fields = st.fixed_dictionaries({}, optional={
    "weights": json_values | st.dictionaries(
        st.sampled_from(KEYS + featurize(PROBE, PROBE_PAIR)), numbers,
        max_size=6),
    "bias": json_values | numbers,
    "threshold": json_values | st.floats(0, 1),
})


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(list(TaggerKind)) | json_values, fields=tagger_fields)
def test_tagger_model_fields_give_a_model_that_tags_or_input_error(kind, fields):
    with contextlib.suppress(InputError):
        tag(TaggerModel(kind, **fields), PROBE)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(list(RelationKind)) | json_values, fields=relation_fields)
def test_relation_model_fields_give_a_model_that_classifies_or_input_error(kind, fields):
    with contextlib.suppress(InputError):
        classify(RelationModel(kind, **fields), PROBE, PROBE_PAIR)


# Each data-model field drawn from json_values or in the field's shape, where
# an offset may be out of range and a text may not match its token; a class
# that refuses the fields it drew gives None, which the class above refuses.
@st.composite
def built(draw, cls, fields):
    try:
        return cls(*draw(fields))
    except InputError:
        return None


roles = st.sampled_from(list(Role)) | json_values
offsets = st.integers(-1, 6) | json_values
texts = st.text(max_size=4) | json_values
maybe_texts = st.none() | st.text(max_size=4) | json_values
tokens = st.builds(Token, texts, offsets, offsets, maybe_texts)
spans = built(Span, st.tuples(roles, offsets, offsets))
span_sets = st.lists(spans, max_size=2) | json_values
OPINION_FIELDS = st.tuples(span_sets, span_sets, span_sets, maybe_texts)


@st.composite
def sentence_fields(draw):
    """An id, and text, tokens and opinions each in shape or not; tokens in
    shape are the words of the text, which joins them with single spaces."""
    words = draw(st.lists(st.text(min_size=1, max_size=3), max_size=4))
    offset, in_shape = 0, []
    for word in words:
        in_shape.append(Token(word, offset, offset + len(word), draw(maybe_texts)))
        offset += len(word) + 1
    return (draw(texts), draw(st.just(" ".join(words)) | texts),
            draw(st.just(in_shape) | st.lists(tokens, max_size=3) | json_values),
            draw(st.lists(built(OpinionTuple, OPINION_FIELDS), max_size=2) | json_values))


DATA_MODEL = {
    Span: st.tuples(roles, offsets, offsets),
    OpinionTuple: OPINION_FIELDS,
    Sentence: sentence_fields(),
    Dataset: st.tuples(texts, st.lists(built(Sentence, sentence_fields()), max_size=3)
                       | json_values),
    RelationInstance: st.tuples(texts, spans | json_values, spans | json_values,
                                st.none() | st.booleans() | json_values),
    SentimentGraph: st.tuples(texts, st.lists(built(OpinionTuple, OPINION_FIELDS), max_size=2)
                              | json_values),
}


@st.composite
def datasets(draw):
    """A dataset that every class accepts, its strings drawn from all of Unicode."""
    sentences = []
    for k in range(draw(st.integers(0, 3))):
        words = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4))

        def span_set(role, min_size=0):
            starts = draw(st.lists(st.integers(0, len(words) - 1), min_size=min_size, max_size=2))
            return {Span(role, start, draw(st.integers(start + 1, len(words)))) for start in starts}

        opinions = [OpinionTuple(span_set(Role.HOLDER), span_set(Role.TARGET),
                                 span_set(Role.EXPRESSION, 1), draw(st.none() | st.text(max_size=4)))
                    for _ in range(draw(st.integers(0, 2)))]
        pos = draw(st.lists(st.none() | st.text(max_size=3), min_size=len(words),
                            max_size=len(words)))
        sentences.append(Sentence.from_words(f"{k}{draw(st.text(max_size=3))}", words, pos,
                                             opinions))
    return Dataset(draw(st.text(max_size=4)), sentences)


@pytest.mark.parametrize("cls", DATA_MODEL, ids=lambda cls: cls.__name__)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_data_model_fields_give_an_object_or_input_error(cls, data):
    with contextlib.suppress(InputError):
        cls(*data.draw(DATA_MODEL[cls]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=datasets() | built(Dataset, DATA_MODEL[Dataset]))
def test_a_built_dataset_reads_back_equal(workdir, ds):
    if ds is not None:
        path = workdir / "round_trip.json"
        save_dataset(ds, str(path))
        assert load_dataset(str(path)) == ds
