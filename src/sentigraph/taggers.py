"""Sequence taggers for opinion component extraction.

Four tagger kinds share one ``tag()`` interface: the all-O majority
baseline, a POS-to-label chunking baseline, a trainable averaged
perceptron, and an adapter kind for predictions produced by an external
model and loaded from a CoNLL file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence

from .corpus import (
    BIO_LABELS,
    Dataset,
    Sentence,
    Token,
    label_role,
    read_conll_blocks,
    write_conll_blocks,
)
from .errors import ModelError, ParseError, ValidationError
from .span_codec import TagSequence, encode, validate_tags


class TaggerKind(Enum):
    MOST_COMMON = "MOST_COMMON"
    POS_CHUNK = "POS_CHUNK"
    PERCEPTRON = "PERCEPTRON"
    EXTERNAL = "EXTERNAL"


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


def most_common_tagger() -> TaggerModel:
    """Majority-class baseline; the majority token label is O."""
    return TaggerModel(kind=TaggerKind.MOST_COMMON)


def external_tagger() -> TaggerModel:
    return TaggerModel(kind=TaggerKind.EXTERNAL)


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


def _static_features(tokens: Sequence[Token], i: int) -> List[str]:
    """The feature templates of position ``i`` that do not depend on the
    previous label: 9 word templates, then up to 3 POS templates."""

    def word(j: int) -> str:
        if j < 0:
            return _BOS
        if j >= len(tokens):
            return _EOS
        return tokens[j].text.lower()

    tok = tokens[i]
    lower = tok.text.lower()
    feats = [
        f"w={tok.text}",
        f"lw={lower}",
        f"suf3={lower[-3:]}",
        f"pre2={lower[:2]}",
        f"shape={_word_shape(tok.text)}",
        f"w-1={word(i - 1)}",
        f"w+1={word(i + 1)}",
        f"w-2={word(i - 2)}",
        f"w+2={word(i + 2)}",
    ]
    if tok.pos is not None:
        feats.append(f"p0={tok.pos}")
    if i > 0 and tokens[i - 1].pos is not None:
        feats.append(f"p-1={tokens[i - 1].pos}")
    if i + 1 < len(tokens) and tokens[i + 1].pos is not None:
        feats.append(f"p+1={tokens[i + 1].pos}")
    return feats


# token_features puts the two t-1 templates after the 9 word templates.
_N_WORD_TEMPLATES = 9


def _prev_features(prev_label: str, lower: str) -> List[str]:
    """The two templates that depend on the previous label: ``t-1`` and ``t-1w``."""
    return [f"t-1={prev_label}", f"t-1w={prev_label}|{lower}"]


def token_features(tokens: Sequence[Token], i: int, prev_label: str) -> List[str]:
    """Feature strings for one token position (all implicit weight 1)."""
    static = _static_features(tokens, i)
    return (
        static[:_N_WORD_TEMPLATES]
        + _prev_features(prev_label, tokens[i].text.lower())
        + static[_N_WORD_TEMPLATES:]
    )


def _legal(label: str, prev: str) -> bool:
    # I-X may only continue a B-X/I-X of the same role.
    if not label.startswith("I-"):
        return True
    return prev == "B" + label[1:] or prev == label


def _predict(weights: Mapping[str, Mapping[str, float]], feats: Sequence[str], prev: str) -> str:
    scores: Dict[str, float] = {}
    for feat in feats:
        row = weights.get(feat)
        if row:
            for label, w in row.items():
                scores[label] = scores.get(label, 0.0) + w
    best = None
    best_score = -math.inf
    for label in TIE_ORDER:
        if not _legal(label, prev):
            continue
        score = scores.get(label, 0.0)
        if score > best_score:
            best, best_score = label, score
    return best


_LABEL_INDEX = {label: k for k, label in enumerate(TIE_ORDER)}
# Previous-label contexts: the 7 labels, then the sentence start.
_PREV_LABELS = TIE_ORDER + (_BOS,)
_BOS_INDEX = len(TIE_ORDER)
# Indices of the labels that may follow each previous-label context.
_LEGAL_AFTER = tuple(
    tuple(k for k, label in enumerate(TIE_ORDER) if _legal(label, prev)) for prev in _PREV_LABELS
)


def _new_row() -> tuple:
    # (weights, lazy-average totals, stamps), one slot per label in TIE_ORDER
    n = len(TIE_ORDER)
    return ([0.0] * n, [0.0] * n, [0] * n)


def train_perceptron(train: Dataset, epochs: int, seed: int) -> TaggerModel:
    """Averaged perceptron over the BIO label set.

    Greedy left-to-right training with the decode-time legality constraint,
    using the model's own previous prediction as label context. The returned
    weights are the average of the weight vector over every token step,
    computed with the usual lazy accumulator trick. Deterministic for a
    fixed (dataset, epochs, seed).

    Each feature's weights, lazy-average totals and stamps are 7-slot lists
    in ``TIE_ORDER``, held in one row per feature. The templates that do not
    depend on the previous label are built once per distinct ``tokens``
    tuple (up-sampled duplicates share theirs), and each token keeps
    references to its rows, so a step looks up only the two ``t-1`` rows.
    Every update adds or subtracts 1.0, so weights, scores and totals are
    integers held exactly in floats, and the result does not depend on the
    order of any sum.
    """
    if not isinstance(epochs, int) or epochs < 0:
        raise ValidationError(f"epochs must be a non-negative integer, got {epochs!r}")
    if not train.sentences:
        raise ValidationError("cannot train a perceptron on an empty dataset")

    rows: Dict[str, tuple] = {}  # static feature -> row
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
            for i in range(len(tokens)):
                static = []
                for feat in _static_features(tokens, i):
                    row = rows.get(feat)
                    if row is None:
                        row = rows[feat] = _new_row()
                    static.append(row)
                steps.append((tuple(static), tuple(r[0] for r in static), tokens[i].text.lower()))
            cache[tokens] = steps
        data.append((steps, [_LABEL_INDEX[label] for label in encode(sentence)]))

    step = 0
    rng = random.Random(seed)
    order = list(range(len(data)))
    for _ in range(epochs):
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
                    if word_row is None:
                        word_row = prev_word_rows[prev][lower] = _new_row()
                    active = static + (prev_rows[prev], word_row)
                    for w, totals, stamps in active:
                        cur = w[truth]
                        totals[truth] += (step - stamps[truth]) * cur
                        stamps[truth] = step
                        w[truth] = cur + 1.0
                        cur = w[guess]
                        totals[guess] += (step - stamps[guess]) * cur
                        stamps[guess] = step
                        w[guess] = cur - 1.0
                prev = guess

    if not step:
        return TaggerModel(kind=TaggerKind.PERCEPTRON, weights={})
    named = list(rows.items())
    for p, prev_label in enumerate(_PREV_LABELS):
        named.append((_prev_features(prev_label, "")[0], prev_rows[p]))
        named.extend(
            (_prev_features(prev_label, lower)[1], row) for lower, row in prev_word_rows[p].items()
        )
    averaged: Dict[str, Dict[str, float]] = {}
    for feat, (w, totals, stamps) in named:
        out = {}
        for k, label in enumerate(TIE_ORDER):
            avg = (totals[k] + (step - stamps[k]) * w[k]) / step
            if avg:
                out[label] = avg
        if out:
            averaged[feat] = out
    return TaggerModel(kind=TaggerKind.PERCEPTRON, weights=averaged)


def tag(model: TaggerModel, sentence: Sentence) -> TagSequence:
    """One BIO label per token; pure function of (model, sentence)."""
    n = len(sentence.tokens)
    if model.kind is TaggerKind.MOST_COMMON:
        return ("O",) * n
    if model.kind is TaggerKind.POS_CHUNK:
        return _tag_pos_chunk(model, sentence)
    if model.kind is TaggerKind.PERCEPTRON:
        if model.weights is None:
            raise ModelError("perceptron model has no weights; train or load it first")
        labels = []
        prev = _BOS
        for i in range(n):
            guess = _predict(model.weights, token_features(sentence.tokens, i, prev), prev)
            labels.append(guess)
            prev = guess
        return tuple(labels)
    raise ModelError(
        "EXTERNAL tagger has no inference of its own; load a predictions file "
        "with load_external_predictions()"
    )


def _tag_pos_chunk(model: TaggerModel, sentence: Sentence) -> TagSequence:
    labels = []
    prev_role = None
    for tok in sentence.tokens:
        raw = model.pos_map.get(tok.pos) if tok.pos is not None else None
        role = label_role(raw) if raw is not None else None
        if role is None:
            labels.append("O")
            prev_role = None
        else:
            prefix = "I" if prev_role is role else "B"
            labels.append(f"{prefix}{raw[1:]}" if raw[0] in "BI" else raw)
            prev_role = role
    return tuple(labels)


def load_external_predictions(path: str, ds: Dataset) -> Dict[str, TagSequence]:
    """Read per-sentence tag sequences from a CoNLL file, keyed by id.

    The file must carry exactly the dataset's sentence ids with matching
    token counts. Ill-formed BIO runs are accepted; they are repaired later
    at decode time.
    """
    predictions: Dict[str, TagSequence] = {}
    for sent_id, rows in read_conll_blocks(path):
        if sent_id in predictions:
            raise ParseError(f"{path}: duplicate sentence id '{sent_id}'")
        predictions[sent_id] = tuple(label for _, _, label in rows)
    for sentence in ds.sentences:
        if sentence.id not in predictions:
            raise ValidationError(f"predictions file is missing sentence '{sentence.id}'")
        got = len(predictions[sentence.id])
        if got != len(sentence.tokens):
            raise ValidationError(
                f"sentence '{sentence.id}': dataset has {len(sentence.tokens)} tokens "
                f"but predictions file has {got}"
            )
    extra = set(predictions) - {s.id for s in ds.sentences}
    if extra:
        raise ValidationError(
            f"predictions file contains unknown sentence id(s): {', '.join(sorted(extra))}"
        )
    return {s.id: predictions[s.id] for s in ds.sentences}


def save_predictions_conll(
    path: str, ds: Dataset, tags: Mapping[str, Sequence[str]]
) -> None:
    """Write predicted tag sequences for a dataset in CoNLL format."""
    blocks = []
    for sentence in ds.sentences:
        if sentence.id not in tags:
            raise ValidationError(f"no predicted tags for sentence '{sentence.id}'")
        labels = validate_tags(tags[sentence.id], n_tokens=len(sentence.tokens))
        rows = [(tok.text, tok.pos, label) for tok, label in zip(sentence.tokens, labels)]
        blocks.append((sentence.id, rows))
    write_conll_blocks(path, blocks)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def load_model(path: str) -> TaggerModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ParseError(f"{path}: cannot read: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: line {err.lineno}: {err.msg}") from err
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: top-level value must be an object")
    try:
        kind = TaggerKind(obj.get("kind"))
    except ValueError:
        raise ValidationError(f"{path}: unknown tagger kind {obj.get('kind')!r}")
    if kind is TaggerKind.POS_CHUNK:
        pos_map = obj.get("map", {})
        if not isinstance(pos_map, dict):
            raise ValidationError(f"{path}: 'map' must be an object")
        return pos_chunk_tagger(pos_map)
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
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise ValidationError(f"{path}: weight for {key!r} is not a number")
            if not math.isfinite(w):
                raise ValidationError(f"{path}: non-finite weight for {key!r}")
            weights.setdefault(feat, {})[label] = float(w)
        return TaggerModel(kind=kind, weights=weights)
    return TaggerModel(kind=kind)
