"""Property: every file loader either returns or raises ``InputError``.

Arbitrary JSON values are written to a file and handed to the dataset
loader, both model loaders and the config loader. Object keys and string
leaves are drawn partly from the names those loaders look for, so the
values also reach past the top-level checks. Arbitrary text goes the same
way to both CoNLL readers; it is drawn either whole or line by line from
cells that are partly CoNLL columns, labels and ``# sent_id`` headers.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import sent
from sentigraph import (
    BIO_LABELS,
    Dataset,
    InputError,
    load_conll,
    load_dataset,
    relation,
    save_dataset,
    taggers,
)
from sentigraph.cli import load_config, main
from sentigraph.synth import generate_corpus

KEYS = (
    "name", "sentences", "id", "text", "tokens", "start", "end", "pos", "opinions",
    "holders", "targets", "expressions", "polarity", "kind", "weights", "map", "bias",
    "threshold", "train", "test", "dev", "output_dir", "overlap_policy", "upsample",
    "upsample_seed", "tagger", "relation", "epochs", "seed", "pos_map", "learning_rate",
    "class_weight",
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
