"""Sequence taggers for opinion component extraction.

Three tagger kinds share one ``tag()`` interface: the all-O majority
baseline, a POS-to-label chunking baseline and a trainable averaged
perceptron. Tags produced by an external model are read from a CoNLL
file with ``load_external_predictions`` (every sentence of a dataset, for
``predict``) or ``load_predictions_conll`` (any of them, for ``evaluate``)
instead.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .corpus import Dataset, Sentence, Token, finite_number, read_json_object, write_json_object
from .errors import ModelError, ParseError, ValidationError
from .span_codec import (BIO_LABELS, TagSequence, bio_label, continues, encode, label_role,
                         read_conll_blocks, validate_tags, write_conll)


class TaggerKind(Enum):
    MOST_COMMON = "MOST_COMMON"
    POS_CHUNK = "POS_CHUNK"
    PERCEPTRON = "PERCEPTRON"


# Universal-POS lookup for the chunking baseline: nominals become targets,
# predicates become expressions, pronouns become holders.
DEFAULT_POS_MAP = {
    "NOUN": "B-TARG",
    "PROPN": "B-TARG",
    "VERB": "B-EXP",
    "ADJ": "B-EXP",
    "PRON": "B-HOLDER",
}

# Tie-break order for argmax: O first, then alphabetical.
TIE_ORDER = ("O", "B-EXP", "B-HOLDER", "B-TARG", "I-EXP", "I-HOLDER", "I-TARG")

_BOS = "<s>"
_EOS = "</s>"


@dataclass(frozen=True)
class TaggerModel:
    kind: TaggerKind
    # PERCEPTRON: feature -> {label: averaged weight}
    weights: Optional[Mapping[str, Mapping[str, float]]] = None
    # POS_CHUNK: POS tag -> BIO label
    pos_map: Optional[Mapping[str, str]] = None
    # PERCEPTRON: ``weights`` compiled for tag(), built from them here
    compiled: Optional["_CompiledWeights"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind is TaggerKind.PERCEPTRON and self.weights is not None:
            object.__setattr__(self, "compiled", _CompiledWeights(self.weights))


def most_common_tagger() -> TaggerModel:
    """Majority-class baseline; the majority token label is O."""
    return TaggerModel(kind=TaggerKind.MOST_COMMON)


def pos_chunk_tagger(pos_map: Optional[Mapping[str, str]] = None) -> TaggerModel:
    if pos_map is None:
        pos_map = DEFAULT_POS_MAP
    for pos, label in pos_map.items():
        if label not in BIO_LABELS:
            raise ValidationError(
                f"POS map entry {pos!r}: label {label!r} is not in the BIO alphabet"
            )
    return TaggerModel(kind=TaggerKind.POS_CHUNK, pos_map=dict(pos_map))


def _word_shape(word: str) -> str:
    shape = []
    for ch in word:
        if ch.isupper():
            mapped = "X"
        elif ch.islower():
            mapped = "x"
        elif ch.isdigit():
            mapped = "d"
        else:
            mapped = ch
        if not shape or shape[-1] != mapped:
            shape.append(mapped)
    return "".join(shape)


# The feature templates, in the order token_features lists them: nine that
# read the words around the token, two that read the previous label, then up
# to three that read POS tags. A feature is the string "<template>=<value>".
# _static_values is the one place that reads the values of the word and POS
# templates; training, tag(), token_features and a model's compiled weights
# name the templates from here.
WORD_TEMPLATES = ("w", "lw", "suf3", "pre2", "shape", "w-1", "w+1", "w-2", "w+2")
PREV_TEMPLATES = ("t-1", "t-1w")
POS_TEMPLATES = ("p0", "p-1", "p+1")
STATIC_TEMPLATES = WORD_TEMPLATES + POS_TEMPLATES
_N_WORD = len(WORD_TEMPLATES)


def _static_values(tokens: Sequence[Token]) -> List[Tuple[Optional[str], ...]]:
    """Per position, the values of ``STATIC_TEMPLATES``, the templates that do
    not depend on the previous label; None where a POS template is absent."""
    words = [_BOS, _BOS] + [tok.text.lower() for tok in tokens] + [_EOS, _EOS]
    poses = [None] + [tok.pos for tok in tokens] + [None]
    return [
        (tok.text, lower, lower[-3:], lower[:2], _word_shape(tok.text),
         w_m1, w_p1, w_m2, w_p2, pos, pos_m1, pos_p1)
        for tok, w_m2, w_m1, lower, w_p1, w_p2, pos_m1, pos, pos_p1 in zip(
            tokens, words, words[1:], words[2:], words[3:], words[4:],
            poses, poses[1:], poses[2:])
    ]


def _prev_features(prev_label: str, lower: str) -> List[str]:
    """The two templates that depend on the previous label: ``t-1`` and ``t-1w``."""
    return [f"{PREV_TEMPLATES[0]}={prev_label}", f"{PREV_TEMPLATES[1]}={prev_label}|{lower}"]


def token_features(tokens: Sequence[Token], i: int, prev_label: str) -> List[str]:
    """Feature strings for one token position (all implicit weight 1)."""
    values = _static_values(tokens)[i]
    static = [f"{t}={v}" for t, v in zip(STATIC_TEMPLATES, values) if v is not None]
    return static[:_N_WORD] + _prev_features(prev_label, values[1]) + static[_N_WORD:]


_LABEL_INDEX = {label: k for k, label in enumerate(TIE_ORDER)}
# Previous-label contexts: the 7 labels, then the sentence start.
_PREV_LABELS = TIE_ORDER + (_BOS,)
_BOS_INDEX = len(TIE_ORDER)
_ZERO_SCORES = (0.0,) * len(TIE_ORDER)
# Indices of the labels that may follow each previous-label context: an
# I-X only where it continues.
_LEGAL_AFTER = tuple(
    tuple(k for k, label in enumerate(TIE_ORDER)
          if not label.startswith("I-") or continues(prev, label))
    for prev in _PREV_LABELS
)


def _new_row() -> tuple:
    # (weights, update sums), one slot per label in TIE_ORDER; an update of
    # d at step s adds d to the weight and s * d to the update sum
    n = len(TIE_ORDER)
    return ([0.0] * n, [0.0] * n)


def train_perceptron(train: Dataset, epochs: int, seed: int) -> TaggerModel:
    """Averaged perceptron over the BIO label set.

    Greedy left-to-right training with the decode-time legality constraint,
    using the model's own previous prediction as label context. The returned
    weights are the average of the weight vector over every token step.
    Deterministic for a fixed (dataset, epochs, seed).

    Each feature's weights and update sums are 7-slot lists in ``TIE_ORDER``,
    held in one row per feature. An update of d at step s adds d to a weight
    and s * d to its update sum u, so after N steps the weight w has summed
    to N * w - u over the steps, and the average is (N * w - u) / N. The
    templates that do not depend on the previous label are built once per
    distinct ``tokens`` tuple (up-sampled duplicates share theirs), and each
    token keeps references to its rows, so a step looks up only the two
    ``t-1`` rows. Every update adds or subtracts 1.0, so weights, scores and
    update sums are integers held exactly in floats, and the result does
    not depend on the order of any sum.

    Training stops after the first pass that makes no mistake. The weights
    no longer change after such a pass, so each remaining pass would only
    advance the step count; it is advanced by their tokens instead, and the
    returned model equals the one that all ``epochs`` passes give.
    """
    if not isinstance(epochs, int) or epochs < 0:
        raise ValidationError(f"epochs must be a non-negative integer, got {epochs!r}")
    if not train.sentences:
        raise ValidationError("cannot train a perceptron on an empty dataset")

    rows: Dict[str, tuple] = defaultdict(_new_row)  # static feature -> row
    # The t-1 and t-1w rows, per previous-label context; t-1w rows keyed by lower-cased word.
    prev_rows = [_new_row() for _ in _PREV_LABELS]
    prev_word_rows: List[Dict[str, tuple]] = [{} for _ in _PREV_LABELS]
    # tokens tuple -> per token: (static rows, their weight lists, lower-cased word)
    cache: Dict[tuple, list] = {}
    data = []
    for sentence in train.sentences:
        tokens = sentence.tokens
        steps = cache.get(tokens)
        if steps is None:
            steps = []
            for values in _static_values(tokens):
                static = tuple(rows[f"{t}={v}"] for t, v in zip(STATIC_TEMPLATES, values)
                               if v is not None)
                steps.append((static, tuple(r[0] for r in static), values[1]))
            cache[tokens] = steps
        data.append((steps, [_LABEL_INDEX[label] for label in encode(sentence)]))

    step = 0
    rng = random.Random(seed)
    order = list(range(len(data)))
    for passes in range(1, epochs + 1):
        mistakes = 0
        rng.shuffle(order)
        for idx in order:
            steps, gold = data[idx]
            prev = _BOS_INDEX
            for (static, ws, lower), truth in zip(steps, gold):
                step += 1
                word_row = prev_word_rows[prev].get(lower)
                if word_row is None:
                    scores = list(map(sum, zip(*ws, prev_rows[prev][0])))
                else:
                    scores = list(map(sum, zip(*ws, prev_rows[prev][0], word_row[0])))
                guess = max(_LEGAL_AFTER[prev], key=scores.__getitem__)
                if guess != truth:
                    mistakes += 1
                    if word_row is None:
                        word_row = prev_word_rows[prev][lower] = _new_row()
                    active = static + (prev_rows[prev], word_row)
                    for w, u in active:
                        w[truth] += 1.0
                        u[truth] += step
                        w[guess] -= 1.0
                        u[guess] -= step
                prev = guess
        if not mistakes:
            # The weights are at a fixed point: every later pass would tag
            # every sentence the same way and change nothing but ``step``.
            step += (epochs - passes) * sum(len(steps) for steps, _ in data)
            break

    if not step:
        return TaggerModel(kind=TaggerKind.PERCEPTRON, weights={})
    named = list(rows.items())
    for p, prev_label in enumerate(_PREV_LABELS):
        named.append((_prev_features(prev_label, "")[0], prev_rows[p]))
        named.extend(
            (_prev_features(prev_label, lower)[1], row) for lower, row in prev_word_rows[p].items()
        )
    averaged: Dict[str, Dict[str, float]] = {}
    for feat, (w, u) in named:
        out = {}
        for k, label in enumerate(TIE_ORDER):
            avg = (w[k] * step - u[k]) / step
            if avg:
                out[label] = avg
        if out:
            averaged[feat] = out
    return TaggerModel(kind=TaggerKind.PERCEPTRON, weights=averaged)


class _CompiledWeights:
    """A perceptron's averaged weights as 7-slot rows in ``TIE_ORDER``,
    looked up by template and value, so that tag() builds no feature strings.

    A feature that no token position can produce (an unknown template, or a
    ``t-1`` context outside ``_PREV_LABELS``) never matches and is left out.
    A label missing from a feature's weights is 0.0 in its row; adding it
    leaves a score unchanged, so the sums equal those over the weights dicts
    in token_features order.
    """

    def __init__(self, weights: Mapping[str, Mapping[str, float]]):
        self.static: List[Dict[str, tuple]] = [{} for _ in STATIC_TEMPLATES]
        self.prev: List[tuple] = [() for _ in _PREV_LABELS]
        self.prev_word: List[Dict[str, tuple]] = [{} for _ in _PREV_LABELS]
        tables = dict(zip(STATIC_TEMPLATES, self.static))
        contexts = {label: p for p, label in enumerate(_PREV_LABELS)}
        for feat, labels in weights.items():
            template, sep, value = feat.partition("=")
            if not sep:
                continue
            row = tuple(labels.get(label, 0.0) for label in TIE_ORDER)
            if template in tables:
                tables[template][value] = row
            elif template == PREV_TEMPLATES[0] and value in contexts:
                self.prev[contexts[value]] = row
            elif template == PREV_TEMPLATES[1]:
                prev_label, sep, lower = value.partition("|")
                if sep and prev_label in contexts:
                    self.prev_word[contexts[prev_label]][lower] = row


def tag(model: TaggerModel, sentence: Sentence) -> TagSequence:
    """One BIO label per token; pure function of (model, sentence)."""
    tokens = sentence.tokens
    if model.kind is TaggerKind.MOST_COMMON:
        return ("O",) * len(tokens)
    if model.kind is TaggerKind.POS_CHUNK:
        return _tag_pos_chunk(model, sentence)
    index = model.compiled
    if index is None:
        raise ModelError("perceptron model has no weights; train or load it first")
    w_0, w_lw, w_suf3, w_pre2, w_shape, w_m1, w_p1, w_m2, w_p2, p_0, p_m1, p_p1 = (
        table.get for table in index.static
    )
    labels = []
    prev = _BOS_INDEX
    for i, (text, lower, suf3, pre2, shape, m1, p1, m2, p2, pos, pos_m1, pos_p1) in enumerate(
        _static_values(tokens)
    ):
        scores = _ZERO_SCORES
        # The templates in token_features order; get(None) finds no row for
        # an absent POS. Each row wraps the sum so far in one more lazy map,
        # and tuple() then adds every label's weights left to right in this
        # order, without a tuple per row.
        for row in (
            w_0(text), w_lw(lower), w_suf3(suf3), w_pre2(pre2), w_shape(shape),
            w_m1(m1), w_p1(p1), w_m2(m2), w_p2(p2),
            index.prev[prev], index.prev_word[prev].get(lower),
            p_0(pos), p_m1(pos_m1), p_p1(pos_p1),
        ):
            if row:
                scores = map(add, scores, row)
        scores = tuple(scores)
        best, best_score = -1, -math.inf
        for k in _LEGAL_AFTER[prev]:
            if scores[k] > best_score:
                best, best_score = k, scores[k]
        if best < 0:
            raise ModelError(f"sentence '{sentence.id}', token {i}: no label scores above -inf")
        labels.append(TIE_ORDER[best])
        prev = best
    return tuple(labels)


def _tag_pos_chunk(model: TaggerModel, sentence: Sentence) -> TagSequence:
    labels = []
    prev_role = None
    for tok in sentence.tokens:
        role = label_role(model.pos_map.get(tok.pos, "O")) if tok.pos is not None else None
        labels.append("O" if role is None else bio_label("I" if role is prev_role else "B", role))
        prev_role = role
    return tuple(labels)


def load_predictions_conll(path: str, ds: Dataset) -> Dict[str, TagSequence]:
    """Read per-sentence tag sequences from a CoNLL file, keyed by id.

    The file may hold any of the dataset's sentences, each with its token
    count; a repeated id or one the dataset lacks raises. Ill-formed BIO
    runs are accepted; they are repaired later at decode time.
    """
    sentences = ds.by_id()
    predictions: Dict[str, TagSequence] = {}
    for sent_id, rows in read_conll_blocks(path):
        if sent_id in predictions:
            raise ParseError(f"{path}: duplicate sentence id '{sent_id}'")
        if sent_id not in sentences:
            raise ValidationError(f"{path}: unknown sentence id '{sent_id}'")
        expected = len(sentences[sent_id].tokens)
        if len(rows) != expected:
            raise ValidationError(
                f"{path}: sentence '{sent_id}': dataset has {expected} tokens "
                f"but predictions file has {len(rows)}"
            )
        predictions[sent_id] = tuple(label for _, _, label in rows)
    return predictions


def load_external_predictions(path: str, ds: Dataset) -> Dict[str, TagSequence]:
    """``load_predictions_conll`` for a file that must hold every sentence
    of the dataset."""
    predictions = load_predictions_conll(path, ds)
    for sentence in ds.sentences:
        if sentence.id not in predictions:
            raise ValidationError(f"{path}: missing sentence '{sentence.id}'")
    return predictions


def save_predictions_conll(
    path: str, ds: Dataset, tags: Mapping[str, Sequence[str]]
) -> None:
    """Write predicted tag sequences for a dataset in CoNLL format."""
    labelled = []
    for sentence in ds.sentences:
        if sentence.id not in tags:
            raise ValidationError(f"no predicted tags for sentence '{sentence.id}'")
        labelled.append(
            (sentence, validate_tags(tags[sentence.id], n_tokens=len(sentence.tokens)))
        )
    write_conll(path, labelled)


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------


def save_model(model: TaggerModel, path: str) -> None:
    obj: dict = {"kind": model.kind.value}
    if model.kind is TaggerKind.PERCEPTRON:
        obj["weights"] = {
            f"{feat}\t{label}": w
            for feat, row in (model.weights or {}).items()
            for label, w in row.items()
        }
    elif model.kind is TaggerKind.POS_CHUNK:
        obj["map"] = dict(model.pos_map or {})
    write_json_object(path, obj)


def load_model(path: str) -> TaggerModel:
    obj = read_json_object(path)
    try:
        kind = TaggerKind(obj.get("kind"))
    except ValueError:
        raise ValidationError(f"{path}: unknown tagger kind {obj.get('kind')!r}")
    if kind is TaggerKind.POS_CHUNK:
        pos_map = obj.get("map", {})
        if not isinstance(pos_map, dict):
            raise ValidationError(f"{path}: 'map' must be an object")
        try:
            return pos_chunk_tagger(pos_map)
        except ValidationError as err:
            raise ValidationError(f"{path}: {err}") from err
    if kind is TaggerKind.PERCEPTRON:
        raw = obj.get("weights", {})
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: 'weights' must be an object")
        weights: Dict[str, Dict[str, float]] = {}
        for key, w in raw.items():
            if "\t" not in key:
                raise ValidationError(f"{path}: malformed weight key {key!r}")
            feat, label = key.rsplit("\t", 1)
            if label not in BIO_LABELS:
                raise ValidationError(f"{path}: weight key has unknown label {label!r}")
            weights.setdefault(feat, {})[label] = finite_number(w, f"{path}: weight for {key!r}")
        return TaggerModel(kind=kind, weights=weights)
    return TaggerModel(kind=kind)
