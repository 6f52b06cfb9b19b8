"""Entity/expression relationship recognition.

Builds binary classification instances from the cross product of entity
spans (holders and targets) and expression spans within one sentence, and
classifies them with either the always-true baseline or a sparse logistic
regression trained by stochastic gradient descent.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .corpus import Dataset, Role, Sentence, Span
from .errors import ParseError, ValidationError

# Sparse feature set; every present feature has implicit weight 1.
FeatureVector = FrozenSet[str]

_DISTANCE_BUCKETS = ((0, "0"), (1, "1"), (2, "2"), (5, "3-5"), (10, "6-10"))
_MAX_BETWEEN_WORDS = 10


class RelationKind(Enum):
    ALWAYS_TRUE = "ALWAYS_TRUE"
    LOGISTIC = "LOGISTIC"


@dataclass(frozen=True)
class RelationInstance:
    """One (entity span, expression span) pair within a sentence."""

    sentence_id: str
    entity: Span
    expression: Span
    label: Optional[bool] = None

    def __post_init__(self):
        if self.entity.role is Role.EXPRESSION:
            raise ValidationError(
                f"sentence '{self.sentence_id}': relation entity must be a holder "
                f"or target span, not an expression"
            )
        if self.expression.role is not Role.EXPRESSION:
            raise ValidationError(
                f"sentence '{self.sentence_id}': relation expression span has role "
                f"{self.expression.role.value}"
            )


@dataclass(frozen=True)
class RelationModel:
    kind: RelationKind
    weights: Mapping[str, float] = None
    bias: float = 0.0
    threshold: float = 0.5

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights", {})
        if not (0.0 < self.threshold < 1.0):
            raise ValidationError(f"threshold must be in (0, 1), got {self.threshold}")
        for feat, w in self.weights.items():
            if not math.isfinite(w):
                raise ValidationError(f"non-finite weight for feature {feat!r}")
        if not math.isfinite(self.bias):
            raise ValidationError("non-finite bias")


def always_true_model(threshold: float = 0.5) -> RelationModel:
    return RelationModel(kind=RelationKind.ALWAYS_TRUE, threshold=threshold)


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
    n = len(sentence.tokens)
    entities = sorted(set(entity_spans), key=Span.sort_key)
    expressions = sorted(set(expression_spans), key=Span.sort_key)
    for span in entities + expressions:
        if span.end > n:
            raise ValidationError(
                f"sentence '{sentence.id}': span [{span.start}, {span.end}) exceeds "
                f"token count {n}"
            )
    instances = []
    for entity in entities:
        for expression in expressions:
            label = None
            if gold is not None:
                label = any(
                    (entity in t.holders or entity in t.targets) and expression in t.expressions
                    for t in gold
                )
            instances.append(
                RelationInstance(
                    sentence_id=sentence.id, entity=entity, expression=expression, label=label
                )
            )
    return instances


def _distance_bucket(gap: int) -> str:
    for limit, name in _DISTANCE_BUCKETS:
        if gap <= limit:
            return name
    return ">10"


def featurize(
    sentence: Sentence,
    inst: RelationInstance,
    expressions: Optional[Iterable[Span]] = None,
) -> FeatureVector:
    """Sparse features for one instance.

    ``expressions`` should be the full set of candidate expression spans in
    the sentence (gold spans at training time, decoded spans at inference);
    it feeds the between-span expression count. When omitted, the spans in
    the sentence's own opinion annotations are used.
    """
    n = len(sentence.tokens)
    for span in (inst.entity, inst.expression):
        if span.end > n:
            raise ValidationError(
                f"sentence '{sentence.id}': span [{span.start}, {span.end}) exceeds "
                f"token count {n}"
            )
    ent, exp = inst.entity, inst.expression
    first, second = (ent, exp) if ent.sort_key() <= exp.sort_key() else (exp, ent)
    gap = max(second.start - first.end, 0)

    feats = {
        f"dist={_distance_bucket(gap)}",
        f"order={'ent_first' if ent.start < exp.start else 'exp_first'}",
        f"role={ent.role.value}",
        f"ent_len={ent.length}",
        f"exp_len={exp.length}",
    }
    for i in range(ent.start, ent.end):
        feats.add(f"ent_w={sentence.tokens[i].text.lower()}")
    for i in range(exp.start, exp.end):
        feats.add(f"exp_w={sentence.tokens[i].text.lower()}")
    between = range(first.end, max(second.start, first.end))
    for i in list(between)[:_MAX_BETWEEN_WORDS]:
        feats.add(f"btw_w={sentence.tokens[i].text.lower()}")

    if expressions is None:
        expressions = sentence.spans(Role.EXPRESSION)
    n_between = sum(
        1
        for s in set(expressions)
        if s != exp and s.start >= first.end and s.end <= second.start
    )
    feats.add(f"n_exp_between={n_between}")
    return frozenset(feats)


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
    class_weight: Optional[str] = None,
) -> RelationModel:
    """Logistic regression on log-loss via seeded-shuffle SGD.

    The natural class distribution is kept by default; pass
    ``class_weight="balanced"`` to scale each example's gradient by the
    inverse frequency of its class. Deterministic for fixed inputs.
    """
    if not isinstance(epochs, int) or epochs < 1:
        raise ValidationError(f"epochs must be a positive integer, got {epochs!r}")
    if not (learning_rate > 0):
        raise ValidationError(f"learning_rate must be positive, got {learning_rate!r}")
    if class_weight not in (None, "balanced"):
        raise ValidationError(f"unknown class_weight {class_weight!r}")
    for inst in instances:
        if inst.label is None:
            raise ValidationError(
                f"sentence '{inst.sentence_id}': unlabeled instance in training data"
            )
    n_pos = sum(1 for i in instances if i.label)
    n_neg = len(instances) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValidationError(
            "training instances contain a single class; both positive and negative "
            "examples are required"
        )

    by_id = sentences.by_id()
    context: Dict[str, set] = {}
    for inst in instances:
        context.setdefault(inst.sentence_id, set()).add(inst.expression)
    # Each example's features as integer ids, in sorted feature order, so the
    # weight sums below do not depend on the string-hash seed.
    ids: Dict[str, int] = {}
    examples: List[Tuple[List[int], float, float]] = []
    cw_pos = len(instances) / (2.0 * n_pos) if class_weight == "balanced" else 1.0
    cw_neg = len(instances) / (2.0 * n_neg) if class_weight == "balanced" else 1.0
    for inst in instances:
        if inst.sentence_id not in by_id:
            raise ValidationError(f"instance references unknown sentence '{inst.sentence_id}'")
        feats = featurize(by_id[inst.sentence_id], inst, expressions=context[inst.sentence_id])
        examples.append((
            [ids.setdefault(f, len(ids)) for f in sorted(feats)],
            1.0 if inst.label else 0.0,
            cw_pos if inst.label else cw_neg,
        ))

    w = [0.0] * len(ids)
    weight = w.__getitem__
    b = 0.0
    rng = random.Random(seed)
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            feat_ids, y, cw = examples[idx]
            z = b + sum(map(weight, feat_ids))
            grad = (_sigmoid(z) - y) * cw
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
    model: RelationModel,
    sentence: Sentence,
    inst: RelationInstance,
    expressions: Optional[Iterable[Span]] = None,
) -> Tuple[bool, float]:
    """Decision and score for one instance.

    ALWAYS_TRUE returns (True, 1.0). LOGISTIC thresholds the sigmoid score
    with a strict comparison, so a score exactly at the threshold is False.
    """
    if model.kind is RelationKind.ALWAYS_TRUE:
        return True, 1.0
    feats = featurize(sentence, inst, expressions=expressions)
    score = _sigmoid(model.bias + sum(model.weights.get(f, 0.0) for f in sorted(feats)))
    return score > model.threshold, score


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_model(model: RelationModel, path: str) -> None:
    obj = {
        "kind": model.kind.value,
        "threshold": model.threshold,
        "bias": model.bias,
        "weights": dict(model.weights),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def load_model(path: str) -> RelationModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ParseError(f"{path}: cannot read: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: line {err.lineno}: {err.msg}") from err
    try:
        kind = RelationKind(obj.get("kind"))
    except ValueError:
        raise ValidationError(f"{path}: unknown relation model kind {obj.get('kind')!r}")
    weights = obj.get("weights", {})
    if not isinstance(weights, dict) or not all(
        isinstance(v, (int, float)) for v in weights.values()
    ):
        raise ValidationError(f"{path}: 'weights' must map features to numbers")
    return RelationModel(
        kind=kind,
        weights={k: float(v) for k, v in weights.items()},
        bias=float(obj.get("bias", 0.0)),
        threshold=float(obj.get("threshold", 0.5)),
    )


def dump_instances(
    path: str, records: Iterable[Tuple[RelationInstance, Optional[float]]]
) -> None:
    """Write instances as JSON lines for debugging or interchange."""
    with open(path, "w", encoding="utf-8") as fh:
        for inst, score in records:
            row = {
                "sentence_id": inst.sentence_id,
                "entity": [inst.entity.start, inst.entity.end, inst.entity.role.value],
                "expression": [inst.expression.start, inst.expression.end],
                "label": inst.label,
                "score": score,
            }
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def load_instances(path: str) -> List[Tuple[RelationInstance, Optional[float]]]:
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ParseError(f"{path}:{lineno}: {err.msg}") from err
                try:
                    ent = row["entity"]
                    inst = RelationInstance(
                        sentence_id=row["sentence_id"],
                        entity=Span(Role(ent[2]), ent[0], ent[1]),
                        expression=Span(
                            Role.EXPRESSION, row["expression"][0], row["expression"][1]
                        ),
                        label=row.get("label"),
                    )
                except (KeyError, IndexError, TypeError, ValueError) as err:
                    raise ParseError(f"{path}:{lineno}: malformed instance record") from err
                records.append((inst, row.get("score")))
    except OSError as err:
        raise ParseError(f"{path}: cannot read: {err}") from err
    return records
