import json
import math
import random

import pytest

from helpers import love_school, opinion, reference_perceptron, sent, span, token_features
from sentigraph import (
    Dataset,
    ParseError,
    RelationModel,
    TaggerKind,
    ValidationError,
    decode,
    encode,
    filter_overlapping,
    load_conll,
    load_external_predictions,
    tag,
    train_perceptron,
    upsample,
)
from sentigraph.span_codec import save_conll
from sentigraph.synth import generate_corpus
from sentigraph.taggers import (
    _LEGAL_AFTER,
    _PREV_LABELS,
    _static_values,
    TIE_ORDER,
    TaggerModel,
    load_model,
    save_model,
    save_predictions_conll,
)


def test_most_common_is_all_o():
    s = love_school()
    assert tag(TaggerModel(TaggerKind.MOST_COMMON), s) == ("O", "O", "O")


def test_pos_chunk_default_map():
    s = sent("p", ["I", "love", "school"], pos=["PRON", "VERB", "NOUN"])
    assert tag(TaggerModel(TaggerKind.POS_CHUNK), s) == ("B-HOLDER", "B-EXP", "B-TARG")


def test_pos_chunk_continuation_becomes_inside():
    s = sent("nn", ["front", "desk"], pos=["NOUN", "NOUN"])
    assert tag(TaggerModel(TaggerKind.POS_CHUNK), s) == ("B-TARG", "I-TARG")


def test_pos_chunk_single_verb():
    s = sent("v", ["recommends"], pos=["VERB"])
    assert tag(TaggerModel(TaggerKind.POS_CHUNK), s) == ("B-EXP",)


def test_pos_chunk_missing_pos_is_o():
    s = sent("m", ["thing", "x"], pos=["NOUN", None])
    assert tag(TaggerModel(TaggerKind.POS_CHUNK), s) == ("B-TARG", "O")


def test_pos_chunk_rejects_bad_label():
    with pytest.raises(ValidationError):
        TaggerModel(TaggerKind.POS_CHUNK, pos_map={"NOUN": "B-THING"})


def test_pos_chunk_same_role_continues_and_role_change_begins():
    # Adjacent same-role tokens continue one span, whichever prefix the map
    # gives; a role change, an O or a missing POS starts afresh.
    model = TaggerModel(TaggerKind.POS_CHUNK, pos_map={
        "NOUN": "I-TARG", "PROPN": "B-TARG", "VERB": "I-EXP", "ADJ": "B-EXP", "PRON": "B-HOLDER",
        "DET": "O"})
    pos = ["NOUN", "PROPN", "VERB", "ADJ", "PRON", "NOUN", "DET", "NOUN", None]
    s = sent("c", [f"w{i}" for i in range(len(pos))], pos=pos)
    assert tag(model, s) == (
        "B-TARG", "I-TARG", "B-EXP", "I-EXP", "B-HOLDER", "B-TARG", "O", "B-TARG", "O")


def test_legal_after_admits_inside_labels_only_where_they_continue():
    assert {prev: tuple(TIE_ORDER[k] for k in allowed)
            for prev, allowed in zip(_PREV_LABELS, _LEGAL_AFTER)} == {
        "O": ("O", "B-EXP", "B-HOLDER", "B-TARG"),
        "B-EXP": ("O", "B-EXP", "B-HOLDER", "B-TARG", "I-EXP"),
        "B-HOLDER": ("O", "B-EXP", "B-HOLDER", "B-TARG", "I-HOLDER"),
        "B-TARG": ("O", "B-EXP", "B-HOLDER", "B-TARG", "I-TARG"),
        "I-EXP": ("O", "B-EXP", "B-HOLDER", "B-TARG", "I-EXP"),
        "I-HOLDER": ("O", "B-EXP", "B-HOLDER", "B-TARG", "I-HOLDER"),
        "I-TARG": ("O", "B-EXP", "B-HOLDER", "B-TARG", "I-TARG"),
        "<s>": ("O", "B-EXP", "B-HOLDER", "B-TARG"),
    }


def test_pos_chunk_custom_map_with_explicit_o():
    model = TaggerModel(TaggerKind.POS_CHUNK, pos_map={"NOUN": "O", "VERB": "B-EXP"})
    s = sent("c", ["bread", "rocks"], pos=["NOUN", "VERB"])
    assert tag(model, s) == ("O", "B-EXP")


def test_output_length_matches_tokens():
    corpus = generate_corpus(30, seed=1)
    models = [TaggerModel(TaggerKind.MOST_COMMON), TaggerModel(TaggerKind.POS_CHUNK),
              train_perceptron(corpus, epochs=1, seed=0)]
    for model in models:
        for sentence in corpus.sentences:
            assert len(tag(model, sentence)) == len(sentence.tokens)


# ---------------------------------------------------------------------------
# Perceptron
# ---------------------------------------------------------------------------


def test_perceptron_zero_epochs_all_o():
    ds = Dataset(name="d", sentences=[love_school()])
    model = train_perceptron(ds, epochs=0, seed=3)
    assert model.weights == {}
    assert tag(model, love_school()) == ("O", "O", "O")


def test_perceptron_empty_dataset_errors():
    with pytest.raises(ValidationError):
        train_perceptron(Dataset(name="void"), epochs=1, seed=0)


def test_perceptron_negative_epochs_errors():
    with pytest.raises(ValidationError):
        train_perceptron(Dataset(name="d", sentences=[love_school()]), epochs=-1, seed=0)


def _count_shuffles(monkeypatch):
    calls = []
    shuffle = random.Random.shuffle

    def counted(self, x):
        calls.append(1)
        return shuffle(self, x)

    monkeypatch.setattr(random.Random, "shuffle", counted)
    return calls


def test_perceptron_stops_early_with_the_weights_of_every_pass(monkeypatch):
    filtered, _ = filter_overlapping(generate_corpus(160, seed=41, name="train"))
    corpus = upsample(filtered, seed=3)
    expected, mistakes = reference_perceptron(corpus, epochs=10, seed=1)
    assert 0 in mistakes[:-1]
    shuffles = _count_shuffles(monkeypatch)
    model = train_perceptron(corpus, epochs=10, seed=1)
    assert len(shuffles) == mistakes.index(0) + 1
    assert model.weights == expected


def test_perceptron_runs_every_pass_when_no_pass_is_mistake_free(monkeypatch):
    words = ["Bob", "hates", "rain"]
    corpus = Dataset(name="conflict", sentences=[
        sent("as-holder", words, opinions=[
            opinion(holders=[span("h", 0, 1)], expressions=[span("e", 1, 2)])]),
        sent("as-target", words, opinions=[
            opinion(targets=[span("t", 0, 1)], expressions=[span("e", 1, 2)])]),
    ])
    expected, mistakes = reference_perceptron(corpus, epochs=6, seed=4)
    assert all(mistakes)
    shuffles = _count_shuffles(monkeypatch)
    model = train_perceptron(corpus, epochs=6, seed=4)
    assert len(shuffles) == 6
    assert model.weights == expected


def test_perceptron_all_o_corpus_stops_after_one_pass(monkeypatch):
    corpus = Dataset(name="plain", sentences=[
        sent("a", ["it", "rains"]), sent("b", ["ok"], pos=["INTJ"])
    ])
    expected, mistakes = reference_perceptron(corpus, epochs=5, seed=0)
    assert mistakes == [0] * 5 and expected == {}
    shuffles = _count_shuffles(monkeypatch)
    assert train_perceptron(corpus, epochs=5, seed=0).weights == {}
    assert len(shuffles) == 1


def test_perceptron_first_mistake_free_pass_is_the_last():
    corpus = generate_corpus(120, seed=21)
    _, mistakes = reference_perceptron(corpus, epochs=10, seed=1)
    epochs = mistakes.index(0) + 1
    assert epochs > 1
    expected, _ = reference_perceptron(corpus, epochs=epochs, seed=1)
    assert train_perceptron(corpus, epochs=epochs, seed=1).weights == expected


def test_perceptron_fits_training_sentence():
    corpus = generate_corpus(120, seed=21)
    model = train_perceptron(corpus, epochs=10, seed=1)
    sentence = next(s for s in corpus.sentences if s.opinions)
    assert tag(model, sentence) == encode(sentence)


def test_perceptron_deterministic():
    corpus = generate_corpus(60, seed=17)
    a = train_perceptron(corpus, epochs=3, seed=9)
    b = train_perceptron(corpus, epochs=3, seed=9)
    assert a.weights == b.weights
    c = train_perceptron(corpus, epochs=3, seed=10)
    assert a.weights != c.weights


def test_perceptron_outputs_well_formed_bio():
    train = generate_corpus(80, seed=5)
    other = generate_corpus(40, seed=6)
    model = train_perceptron(train, epochs=2, seed=0)
    for sentence in other.sentences:
        labels = tag(model, sentence)
        for i, label in enumerate(labels):
            if label.startswith("I-"):
                assert i > 0 and labels[i - 1] in (f"B{label[1:]}", label)


def test_token_features_fixed_templates():
    s = sent("f", ["The", "front", "desk"], pos=["DET", "NOUN", "NOUN"])
    feats = token_features(s.tokens, 1, "O")
    assert "w=front" in feats
    assert "lw=front" in feats
    assert "suf3=ont" in feats
    assert "pre2=fr" in feats
    assert "w-1=the" in feats
    assert "w+1=desk" in feats
    assert "w-2=<s>" in feats
    assert "w+2=</s>" in feats
    assert "t-1=O" in feats
    assert "t-1w=O|front" in feats
    assert "p0=NOUN" in feats and "p-1=DET" in feats and "p+1=NOUN" in feats
    shape = [f for f in feats if f.startswith("shape=")]
    assert shape == ["shape=x"]
    cap = token_features(s.tokens, 0, "<s>")
    assert "shape=Xx" in cap


def test_static_values_read_the_window_around_each_token():
    s = sent("v", ["The", "Desk"], pos=["DET", None])
    assert _static_values(s.tokens) == [
        ("The", "the", "the", "th", "Xx", "<s>", "desk", "<s>", "</s>", "DET", None, None),
        ("Desk", "desk", "esk", "de", "Xx", "the", "</s>", "<s>", "</s>", None, "DET", None),
    ]
    assert _static_values(()) == []


def _reference_tag(weights, sentence):
    """Greedy decoding straight from token_features and {feature: {label: w}}."""
    labels, prev = [], "<s>"
    for i in range(len(sentence.tokens)):
        scores = {}
        for feat in token_features(sentence.tokens, i, prev):
            for label, w in weights.get(feat, {}).items():
                scores[label] = scores.get(label, 0.0) + w
        best, best_score = None, -math.inf
        for label in TIE_ORDER:
            if label.startswith("I-") and prev not in ("B" + label[1:], label):
                continue
            if scores.get(label, 0.0) > best_score:
                best, best_score = label, scores.get(label, 0.0)
        labels.append(best)
        prev = best
    return tuple(labels)


def _unusual_sentences():
    return [
        sent("unseen", ["Zyzzyva", "qwerty", "Xylophones", "42", "e-mail"]),
        sent("no-pos", ["The", "staff", "hates", "rain"]),
        sent("mixed-pos", ["Bob", "hates", "rain"], pos=["PROPN", None, "NOUN"]),
        sent("single", ["Great"]),
        sent("single-pos", ["Great"], pos=["ADJ"]),
        sent("odd", ["a=b", "x|y", "<s>", "</s>", "ÉTÉ"], pos=["X", "=", "|", None, "NOUN"]),
    ]


def test_tag_equals_reference_decoder(tmp_path):
    train = generate_corpus(120, seed=31)
    model = train_perceptron(train, epochs=4, seed=2)
    path = tmp_path / "tagger.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    test = list(generate_corpus(40, seed=32).sentences) + _unusual_sentences()
    for sentence in test:
        expected = _reference_tag(model.weights, sentence)
        assert tag(model, sentence) == expected
        assert tag(loaded, sentence) == expected


def test_tag_hand_made_weights_equal_reference_decoder():
    # Every template, values holding '=' and '|', labels outside a row, a
    # t-1 context no decode produces, and near-ties that depend on the order
    # of the float sums.
    weights = {
        "w=q": {"B-TARG": 2.0},
        "w=a=b": {"B-EXP": 0.1, "O": 0.2},
        "lw=a=b": {"B-EXP": 0.2},
        "suf3=a=b": {"B-EXP": 0.3},
        "pre2=a=": {"O": 0.3},
        "shape=x=x": {"B-TARG": 0.6000000000000001},
        "w-1=<s>": {"B-HOLDER": 0.6000000000000001},
        "w+1=x|y": {"B-TARG": 1e-17},
        "w-2=a=b": {"I-TARG": 5.0, "B-TARG": -0.5},
        "w+2=</s>": {"O": 0.7},
        "t-1=B-TARG": {"I-TARG": 0.4},
        "t-1=NOPE": {"O": 100.0},
        "t-1w=B-TARG|x|y": {"I-TARG": 1.1},
        "t-1w=O": {"O": 100.0},
        "p0=NOUN": {"B-TARG": 0.25, "B-EXP": 0.35},
        "p-1==": {"O": 0.05},
        "p+1=|": {"B-EXP": 0.45},
        "no-template": {"O": 100.0},
    }
    model = TaggerModel(kind=TaggerKind.PERCEPTRON, weights=weights)
    # B-EXP's three weights sum to 0.6000000000000001 only when added in
    # template order, which ties B-TARG, and the tie goes to B-EXP.
    chain = sent("chain", ["q", "x|y", "a=b", "z", "z"])
    expected = ("B-TARG", "I-TARG", "B-EXP", "O", "O")
    assert tag(model, chain) == _reference_tag(weights, chain) == expected
    pos_marks = sent("marks", ["a=b", "x|y", "z"], pos=["=", "|", "NOUN"])
    for sentence in _unusual_sentences() + [pos_marks]:
        assert tag(model, sentence) == _reference_tag(weights, sentence)


def test_tag_adds_previous_label_rows_before_pos_rows():
    # B-EXP's weights sum to 0.6 in token_features order (t-1, t-1w, p0)
    # and to 0.6000000000000001 with p0 first, which would tie B-HOLDER.
    weights = {
        "w=n": {"B-HOLDER": 0.6000000000000001},
        "t-1=O": {"B-EXP": 0.3},
        "t-1w=O|n": {"B-EXP": 0.2},
        "p0=ADV": {"B-EXP": 0.1},
    }
    model = TaggerModel(kind=TaggerKind.PERCEPTRON, weights=weights)
    sentence = sent("order", ["m", "n"], pos=[None, "ADV"])
    assert tag(model, sentence) == _reference_tag(weights, sentence) == ("O", "B-HOLDER")


def test_tag_without_weights_is_rejected():
    # Refused when the model is built, before anything is tagged.
    with pytest.raises(ValidationError, match="perceptron model has no weights"):
        TaggerModel(kind=TaggerKind.PERCEPTRON)


# Each field rule of the two model classes, broken in code: (class, fields, message).
@pytest.mark.parametrize("model, fields, message", [
    (TaggerModel, {"kind": "POS_CHUNK"}, "unknown tagger kind 'POS_CHUNK'"),
    (RelationModel, {"kind": "ALWAYS_TRUE"}, "unknown relation model kind 'ALWAYS_TRUE'"),
    (TaggerModel, {"kind": TaggerKind.PERCEPTRON, "weights": {"w=a": {"O": "x"}}},
     "weight for 'w=a\\tO' must be a finite number, got 'x'"),
    (TaggerModel, {"kind": TaggerKind.PERCEPTRON, "weights": {"w=alice": {"B-HOLDERX": 5.0}}},
     "weight key has unknown label 'B-HOLDERX'"),
    (TaggerModel, {"kind": TaggerKind.PERCEPTRON, "weights": {"w=a": 1.0}},
     "'weights' must map features to dicts of label weights"),
    (TaggerModel, {"kind": TaggerKind.MOST_COMMON, "weights": {}},
     "'weights' applies only to kind PERCEPTRON"),
    (TaggerModel, {"kind": TaggerKind.PERCEPTRON, "weights": {}, "pos_map": {}},
     "'pos_map' applies only to kind POS_CHUNK"),
    (TaggerModel, {"kind": TaggerKind.POS_CHUNK, "pos_map": ["NOUN"]},
     "POS map must map POS tags to BIO labels, got ['NOUN']"),
], ids=["tagger_kind_string", "relation_kind_string", "weight_not_a_number", "unknown_label",
        "weight_row_not_a_dict", "weights_of_most_common", "pos_map_of_perceptron",
        "pos_map_list"])
def test_a_model_field_that_breaks_its_rule_is_refused_when_built(model, fields, message):
    with pytest.raises(ValidationError) as err:
        model(**fields)
    assert str(err.value) == message


def test_perceptron_weights_are_stored_as_floats():
    model = TaggerModel(kind=TaggerKind.PERCEPTRON, weights={"w=a": {"O": 2}})
    assert model.weights == {"w=a": {"O": 2.0}}
    assert type(model.weights["w=a"]["O"]) is float


def test_tag_with_no_finite_score_names_the_token():
    # Finite weights whose sums overflow to -inf leave no label to choose.
    row = {label: -1e308 for label in TIE_ORDER}
    model = TaggerModel(kind=TaggerKind.PERCEPTRON, weights={"w=Great": row, "lw=great": row})
    with pytest.raises(ValidationError, match="token 0"):
        tag(model, sent("s", ["Great"]))


# ---------------------------------------------------------------------------
# External predictions
# ---------------------------------------------------------------------------


def test_external_predictions_mirror_gold(tmp_path):
    ds = Dataset(name="g", sentences=[love_school(), sent("plain", ["ok", "then"])])
    path = tmp_path / "gold.conll"
    save_conll(ds, str(path))
    predictions = load_external_predictions(str(path), ds)
    for sentence in ds.sentences:
        assert decode(predictions[sentence.id]) == sentence.spans()


def test_external_predictions_missing_sentence(tmp_path):
    ds = Dataset(name="g", sentences=[love_school(), sent("plain", ["ok"])])
    path = tmp_path / "partial.conll"
    save_conll(Dataset(name="g", sentences=[love_school()]), str(path))
    with pytest.raises(ValidationError) as err:
        load_external_predictions(str(path), ds)
    assert "plain" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


def test_external_predictions_length_mismatch(tmp_path):
    ds = Dataset(name="g", sentences=[sent("s1", ["a", "b"])])
    path = tmp_path / "short.conll"
    path.write_text("# sent_id = s1\n1\ta\t_\tO\n\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_external_predictions(str(path), ds)
    assert "s1" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


def test_external_predictions_accept_ill_formed(tmp_path):
    ds = Dataset(name="g", sentences=[sent("s1", ["a", "b"])])
    path = tmp_path / "ill.conll"
    path.write_text("# sent_id = s1\n1\ta\t_\tO\n2\tb\t_\tI-EXP\n\n", encoding="utf-8")
    predictions = load_external_predictions(str(path), ds)
    assert predictions["s1"] == ("O", "I-EXP")
    assert decode(predictions["s1"]) == {span("e", 1, 2)}


def test_external_predictions_reject_unknown_id(tmp_path):
    ds = Dataset(name="g", sentences=[sent("s1", ["a"])])
    path = tmp_path / "extra.conll"
    path.write_text(
        "# sent_id = s1\n1\ta\t_\tO\n\n# sent_id = ghost\n1\tb\t_\tO\n\n",
        encoding="utf-8",
    )
    with pytest.raises(ValidationError) as err:
        load_external_predictions(str(path), ds)
    assert "ghost" in str(err.value)
    assert str(err.value).startswith(f"{path}: ")


def test_external_predictions_require_only_the_required_sentences(tmp_path):
    ds = Dataset(name="g", sentences=[love_school(), sent("plain", ["ok"])])
    path = tmp_path / "partial.conll"
    save_conll(Dataset(name="g", sentences=[love_school()]), str(path))
    assert load_external_predictions(str(path), ds, ds.sentences[:1]) == {
        "s-love": encode(love_school())}
    with pytest.raises(ValidationError) as err:
        load_external_predictions(str(path), ds, ds.sentences[1:])
    assert str(err.value) == f"{path}: missing sentence 'plain'"


# Each reader fault as (file name, content, readers, error, message after the
# path): CoNLL faults go through both CoNLL readers, model faults through
# load_model.
_FAULT_GOLD = Dataset(name="g", sentences=[sent("a", ["x"]), sent("b", ["y"])])
_CONLL_READERS = (load_conll, lambda path: load_external_predictions(path, _FAULT_GOLD))


@pytest.mark.parametrize("name, content, readers, error, message", [
    ("index.conll", "# sent_id = a\nI\tx\t_\tO\n\n", _CONLL_READERS, ParseError,
     ":2: token index 'I' is not an integer"),
    ("sequence.conll", "# sent_id = a\n2\tx\t_\tO\n\n", _CONLL_READERS, ParseError,
     ":2: token index 2 out of sequence (expected 1)"),
    ("columns.conll", "# sent_id = a\n1\tx\tO\n\n", _CONLL_READERS, ParseError,
     ":2: expected 4 columns (index token pos label), got 3"),
    ("orphan.conll", "\n1\tx\t_\tO\n", _CONLL_READERS, ParseError,
     ":2: token row before a '# sent_id =' header"),
    ("header.conll", "# sent_id = a\n1\tx\t_\tO\n# sent_id = b\n1\ty\t_\tO\n\n",
     _CONLL_READERS, ParseError,
     ":3: new '# sent_id' header without a blank line after sentence 'a'"),
    ("key.json", json.dumps({"kind": "PERCEPTRON", "weights": {"w=x": 1.0}}),
     (load_model,), ValidationError, ": malformed weight key 'w=x'"),
    ("label.json", json.dumps({"kind": "PERCEPTRON", "weights": {"w=x\tB-THING": 1.0}}),
     (load_model,), ValidationError, ": weight key has unknown label 'B-THING'"),
    ("noweights.json", '{"kind": "PERCEPTRON"}', (load_model,), ValidationError,
     ": perceptron model has no weights"),
    ("mapentry.json", '{"kind": "POS_CHUNK", "map": {"NOUN": "B-THING"}}', (load_model,),
     ValidationError, ": POS map entry 'NOUN': label 'B-THING' is not in the BIO alphabet"),
    ("map.json", '{"kind": "POS_CHUNK", "map": "NOUN"}', (load_model,), ValidationError,
     ": 'map' must be an object"),
])
def test_a_reader_fault_names_the_file(tmp_path, name, content, readers, error, message):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    for read in readers:
        with pytest.raises(error) as err:
            read(str(path))
        assert str(err.value) == f"{path}{message}"


def test_save_predictions_conll_round_trip(tmp_path):
    ds = Dataset(name="g", sentences=[love_school()])
    tags = {"s-love": ("O", "B-EXP", "O")}
    path = tmp_path / "pred.conll"
    save_predictions_conll(str(path), ds, tags)
    assert load_external_predictions(str(path), ds) == {"s-love": ("O", "B-EXP", "O")}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_perceptron_model_round_trip(tmp_path):
    corpus = generate_corpus(40, seed=2)
    model = train_perceptron(corpus, epochs=2, seed=1)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.kind is TaggerKind.PERCEPTRON
    assert loaded.weights == model.weights


def test_pos_chunk_model_round_trip(tmp_path):
    model = TaggerModel(TaggerKind.POS_CHUNK)
    path = tmp_path / "pos.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.kind is TaggerKind.POS_CHUNK
    assert loaded.pos_map == model.pos_map


def test_a_pos_chunk_model_file_without_a_map_uses_the_default_map(tmp_path):
    path = tmp_path / "pos.json"
    path.write_text('{"kind": "POS_CHUNK"}', encoding="utf-8")
    model = load_model(str(path))
    assert model == TaggerModel(TaggerKind.POS_CHUNK)
    s = sent("p", ["I", "love", "school"], pos=["PRON", "VERB", "NOUN"])
    assert tag(model, s) == ("B-HOLDER", "B-EXP", "B-TARG")


def test_load_model_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "ORACLE"}', encoding="utf-8")
    with pytest.raises(ValidationError, match="bad.json: unknown tagger kind 'ORACLE'$"):
        load_model(str(path))


def test_load_model_rejects_non_finite_weight(tmp_path):
    path = tmp_path / "inf.json"
    path.write_text('{"kind": "PERCEPTRON", "weights": {"w=x\\tB-EXP": Infinity}}', encoding="utf-8")
    with pytest.raises(ValidationError,
                       match=r"inf.json: weight for 'w=x\\tB-EXP' must be a finite number, got inf$"):
        load_model(str(path))
