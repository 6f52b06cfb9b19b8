"""Entity/expression relationship recognition.

Builds binary classification instances from the cross product of entity
spans (holders and targets) and expression spans within one sentence, and
classifies them with either the always-true baseline or a sparse logistic
regression trained by stochastic gradient descent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .corpus import (Dataset, Role, Sentence, Span, _float_text, read_json_object, replacing,
                     write_json_object)
from .errors import ValidationError, as_number, check_field, check_type, finite_number, naming

# Sparse features in sorted order, so weight sums do not depend on the
# string-hash seed; every present feature has implicit weight 1.
FeatureVector = Tuple[str, ...]

_DISTANCE_BUCKETS = ((0, "0"), (1, "1"), (2, "2"), (5, "3-5"), (10, "6-10"))
_MAX_BETWEEN_WORDS = 10


class RelationKind(Enum):
    ALWAYS_TRUE = "ALWAYS_TRUE"
    LOGISTIC = "LOGISTIC"


# The relation stage's options, each field's type and range checked when built:
# config files, ``train`` flags, ``train_logistic``, ``RelationModel`` and relation
# model files check through here. Its defaults are the only ones.
@dataclass
class RelationConfig:
    kind: str = "LOGISTIC"
    epochs: int = 30
    learning_rate: float = 0.5
    threshold: float = 0.5
    seed: int = 2

    def __post_init__(self):
        check_type("relation.kind", self.kind, str)
        self.kind = self.kind.upper()
        check_field("relation.kind", self.kind in RelationKind.__members__,
                    f"unknown kind {self.kind!r}")
        check_field("relation.epochs", type(self.epochs) is int and self.epochs >= 1,
                    f"must be an integer >= 1, got {self.epochs!r}")
        check_field("relation.learning_rate", 0 < as_number(self.learning_rate) < math.inf,
                    f"must be finite and > 0, got {self.learning_rate!r}")
        check_field("relation.threshold", 0.0 < as_number(self.threshold) < 1.0,
                    f"must be in (0, 1), got {self.threshold!r}")
        check_type("relation.seed", self.seed, int)


@dataclass(frozen=True)
class RelationInstance:
    """One (entity span, expression span) pair within a sentence."""

    sentence_id: str
    entity: Span
    expression: Span
    label: Optional[bool] = None

    def __post_init__(self):
        if not (type(self.sentence_id) is str and (self.label is None or type(self.label) is bool)):
            raise ValidationError(f"relation instance: need a str sentence_id and a bool or "
                                  f"None label, got {self.sentence_id!r}, {self.label!r}")
        if type(self.entity) is not Span or self.entity.role is Role.EXPRESSION:
            raise ValidationError(f"sentence '{self.sentence_id}': relation entity must be a "
                                  f"holder or target Span, got {self.entity!r}")
        if type(self.expression) is not Span or self.expression.role is not Role.EXPRESSION:
            raise ValidationError(f"sentence '{self.sentence_id}': relation expression must "
                                  f"be an expression Span, got {self.expression!r}")


@dataclass(frozen=True)
class RelationModel:
    """A relation classifier, each field checked here however it is built: ``kind``
    is a ``RelationKind``, ``weights`` maps features to finite numbers, ``bias`` is
    one (all stored as floats; an ALWAYS_TRUE model holds none of either) and
    ``threshold`` obeys ``RelationConfig``."""

    kind: RelationKind
    weights: Mapping[str, float] = field(default_factory=dict)
    bias: float = 0.0
    threshold: float = RelationConfig.threshold

    def __post_init__(self):
        if not isinstance(self.kind, RelationKind):
            raise ValidationError(f"unknown relation model kind {self.kind!r}")
        if not (isinstance(self.weights, dict) and all(isinstance(f, str) for f in self.weights)):
            raise ValidationError("'weights' must map features to numbers")
        object.__setattr__(self, "weights", {
            feat: finite_number(w, f"weight for {feat!r}") for feat, w in self.weights.items()})
        object.__setattr__(self, "bias", finite_number(self.bias, "'bias'"))
        for name in ("weights", "bias"):
            if self.kind is RelationKind.ALWAYS_TRUE and getattr(self, name):
                raise ValidationError(f"'{name}' applies only to kind LOGISTIC")
        RelationConfig(threshold=self.threshold)


def candidate_spans(spans: Set[Span]) -> Tuple[Set[Span], Set[Span]]:
    """The entities (holders and targets) and the expressions among a set of
    spans: the two sides of every candidate pair."""
    expressions = {s for s in spans if s.role is Role.EXPRESSION}
    return spans - expressions, expressions


def generate_instances(
    sentence: Sentence,
    entity_spans: Iterable[Span],
    expression_spans: Iterable[Span],
    gold: Optional[Sequence] = None,
) -> List[RelationInstance]:
    """Cross product of entities and expressions, deterministically ordered.

    With ``gold`` opinion tuples, an instance is labeled true iff some tuple
    contains both its entity span (among holders or targets) and its
    expression span, by exact range match; otherwise labels are None.
    """
    entities = sorted(set(entity_spans), key=Span.sort_key)
    expressions = sorted(set(expression_spans), key=Span.sort_key)
    sentence.check_spans(entities + expressions)
    linked = None if gold is None else linked_pairs(gold)
    instances = []
    for entity in entities:
        for expression in expressions:
            label = None if linked is None else (entity, expression) in linked
            instances.append(
                RelationInstance(
                    sentence_id=sentence.id, entity=entity, expression=expression, label=label
                )
            )
    return instances


def linked_pairs(tuples: Iterable) -> Set[Tuple[Span, Span]]:
    """The (entity, expression) pairs that some opinion tuple links: the
    entity is among its holders or targets and the expression among its
    expressions."""
    return {
        (entity, expression)
        for t in tuples
        for expression in t.expressions
        for entity in (*t.holders, *t.targets)
    }


def gold_instances(sentence: Sentence) -> List[RelationInstance]:
    """Labeled instances for every gold holder|target x expression pair."""
    return generate_instances(sentence, *candidate_spans(sentence.spans()),
                              gold=sentence.opinions)


def _distance_bucket(gap: int) -> str:
    for limit, name in _DISTANCE_BUCKETS:
        if gap <= limit:
            return name
    return ">10"


def featurize(sentence: Sentence, inst: RelationInstance) -> FeatureVector:
    """Sparse features for one instance, read from the sentence and the pair
    alone: distance bucket, order, entity role, span lengths, span words and
    up to ten words between the spans."""
    ent, exp = inst.entity, inst.expression
    sentence.check_spans((ent, exp))
    first, second = (ent, exp) if ent.sort_key() <= exp.sort_key() else (exp, ent)
    gap = max(second.start - first.end, 0)
    tokens = sentence.tokens

    feats = {
        f"dist={_distance_bucket(gap)}",
        f"order={'ent_first' if ent.start < exp.start else 'exp_first'}",
        f"role={ent.role._value_}",
        f"ent_len={ent.end - ent.start}",
        f"exp_len={exp.end - exp.start}",
    }
    for i in range(ent.start, ent.end):
        feats.add(f"ent_w={tokens[i].text.lower()}")
    for i in range(exp.start, exp.end):
        feats.add(f"exp_w={tokens[i].text.lower()}")
    between = range(first.end, max(second.start, first.end))
    for i in between[:_MAX_BETWEEN_WORDS]:
        feats.add(f"btw_w={tokens[i].text.lower()}")
    return tuple(sorted(feats))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def train_logistic(
    instances: Sequence[RelationInstance],
    sentences: Dataset,
    epochs: int,
    learning_rate: float,
    seed: int,
) -> RelationModel:
    """Logistic regression on log-loss via seeded-shuffle SGD.

    Every example's gradient has the same weight, so the natural class
    distribution is kept. Deterministic for fixed inputs.
    """
    RelationConfig(epochs=epochs, learning_rate=learning_rate, seed=seed)
    for inst in instances:
        if inst.label is None:
            raise ValidationError(
                f"sentence '{inst.sentence_id}': unlabeled instance in training data"
            )
    n_pos = sum(1 for i in instances if i.label)
    if n_pos in (0, len(instances)):
        raise ValidationError(
            "training instances contain a single class; both positive and negative "
            "examples are required"
        )

    by_id = sentences.by_id()
    # Each example's features as integer ids, in featurize's sorted order.
    ids: Dict[str, int] = {}
    examples: List[Tuple[List[int], float]] = []
    for inst in instances:
        if inst.sentence_id not in by_id:
            raise ValidationError(f"instance references unknown sentence '{inst.sentence_id}'")
        feats = featurize(by_id[inst.sentence_id], inst)
        examples.append((
            [ids.setdefault(f, len(ids)) for f in feats],
            1.0 if inst.label else 0.0,
        ))

    w = [0.0] * len(ids)
    b = 0.0
    rng = random.Random(seed)
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            feat_ids, y = examples[idx]
            # A plain loop, not sum(): from Python 3.12 on sum() compensates
            # float rounding, and the weights must not depend on the version.
            z = 0.0
            for i in feat_ids:
                z += w[i]
            grad = _sigmoid(b + z) - y
            if grad:
                step = learning_rate * grad
                for i in feat_ids:
                    w[i] -= step
                b -= step
    return RelationModel(
        kind=RelationKind.LOGISTIC,
        weights={f: w[i] for f, i in ids.items() if w[i] != 0.0},
        bias=b,
    )


def classify(
    model: RelationModel, sentence: Sentence, inst: RelationInstance
) -> Tuple[bool, float]:
    """Decision and score for one instance.

    ALWAYS_TRUE returns (True, 1.0). LOGISTIC thresholds the sigmoid score
    with a strict comparison, so a score exactly at the threshold is False.
    """
    if model.kind is RelationKind.ALWAYS_TRUE:
        return True, 1.0
    weights = model.weights
    z = 0.0  # added left to right, as in train_logistic
    for feat in featurize(sentence, inst):
        z += weights.get(feat, 0.0)
    score = _sigmoid(model.bias + z)
    return score > model.threshold, score


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(model: RelationModel, path: str) -> None:
    write_json_object(path, {
        "kind": model.kind.value,
        "threshold": model.threshold,
        "bias": model.bias,
        "weights": dict(model.weights),
    })


def load_model(path: str) -> RelationModel:
    """A model file's kind and the fields it holds, checked by ``RelationModel``."""
    obj = read_json_object(path)
    kind = next((k for k in RelationKind if k.value == obj.get("kind")), obj.get("kind"))
    with naming(path):
        return RelationModel(kind, **{key: obj[key] for key in ("weights", "bias", "threshold")
                                      if key in obj})


# The JSON text of a ``RelationInstance`` label, a bool or None.
_LABEL_TEXT = {True: "true", False: "false", None: "null"}


def dump_instances(
    path: str, records: Iterable[Tuple[RelationInstance, Optional[float]]]
) -> None:
    """Write scored instances as JSON lines, for debugging: per instance the
    text of ``json.dumps(row, sort_keys=True, ensure_ascii=False)``, where
    ``row`` has ``entity`` ([start, end, role]), ``expression``, ``label``,
    ``score`` and ``sentence_id``."""
    with replacing(path) as fh:
        for inst, score in records:
            ent, exp = inst.entity, inst.expression
            fh.write(f'{{"entity": [{ent.start}, {ent.end}, "{ent.role._value_}"], '
                     f'"expression": [{exp.start}, {exp.end}], '
                     f'"label": {_LABEL_TEXT[inst.label]}, '
                     f'"score": {"null" if score is None else _float_text(score)}, '
                     f'"sentence_id": {encode_basestring(inst.sentence_id)}}}\n')
