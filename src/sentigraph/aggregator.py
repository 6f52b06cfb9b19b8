"""Assembly of spans and relation decisions into sentiment graphs.

One graph tuple is produced per expression span; its holder and target
sets are exactly the entities whose relation decision for that expression
is true. Expressions with no related entity keep an expression-only tuple
so that relation-stage recall errors stay visible in graph metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from .corpus import Dataset, OpinionTuple, Role, Sentence, Span, write_json_lines
from .errors import AggregationError, ValidationError
from .relation import RelationInstance, RelationModel, classify, generate_instances, gold_instances
from .span_codec import TagSequence, decode
from .taggers import TaggerModel, tag


@dataclass(frozen=True)
class SentimentGraph:
    """Per-sentence extraction result: one tuple per expression span."""

    sentence_id: str
    tuples: Tuple[OpinionTuple, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tuples", tuple(self.tuples))
        seen = set()
        for t in self.tuples:
            if len(t.expressions) != 1:
                raise ValidationError(
                    f"graph for sentence '{self.sentence_id}': every tuple must have "
                    f"exactly one expression span"
                )
            if t.polarity is not None:
                raise ValidationError(
                    f"graph for sentence '{self.sentence_id}': tuples carry no polarity"
                )
            (expression,) = t.expressions
            if expression in seen:
                raise ValidationError(
                    f"graph for sentence '{self.sentence_id}': two tuples share the "
                    f"expression span [{expression.start}, {expression.end})"
                )
            seen.add(expression)


def aggregate(
    sentence: Sentence,
    entity_spans: Iterable[Span],
    expression_spans: Iterable[Span],
    decisions: Mapping[Tuple[Span, Span], bool],
) -> SentimentGraph:
    """Build the graph for one sentence from pairwise decisions.

    ``decisions`` must cover the full entity x expression cross product;
    a missing pair raises. Output tuples are ordered by expression start.
    """
    entities = sorted(set(entity_spans), key=Span.sort_key)
    expressions = sorted(set(expression_spans), key=Span.sort_key)
    tuples: List[OpinionTuple] = []
    for expression in expressions:
        holders = set()
        targets = set()
        for entity in entities:
            decision = decisions.get((entity, expression))
            if decision is None:
                raise AggregationError(
                    f"sentence '{sentence.id}': no decision for entity "
                    f"[{entity.start}, {entity.end}) / expression "
                    f"[{expression.start}, {expression.end})"
                )
            if decision:
                (holders if entity.role is Role.HOLDER else targets).add(entity)
        tuples.append(
            OpinionTuple(holders=holders, targets=targets, expressions={expression})
        )
    return SentimentGraph(sentence_id=sentence.id, tuples=tuple(tuples))


def gold_graph(
    sentence: Sentence, instances: Optional[Sequence[RelationInstance]] = None
) -> SentimentGraph:
    """Project gold opinion annotations onto the one-tuple-per-expression shape.

    Tuples that share an expression span merge: the expression keeps the
    union of their holders and targets. ``instances`` are the sentence's
    ``gold_instances``, when the caller has built them already.
    """
    if instances is None:
        instances = gold_instances(sentence)
    decisions = {(i.entity, i.expression): bool(i.label) for i in instances}
    # Every entity is in some instance unless there is no expression, and
    # then no tuple needs it.
    entities = {i.entity for i in instances}
    return aggregate(sentence, entities, sentence.spans(Role.EXPRESSION), decisions)


def end_to_end(
    sentence: Sentence,
    tagger: Optional[TaggerModel],
    rel: RelationModel,
    labels: Optional[Sequence[str]] = None,
) -> Tuple[TagSequence, SentimentGraph, List[Tuple[RelationInstance, float]]]:
    """Stages 1-3 for one sentence: tag, decode, classify every pair, aggregate.

    ``labels`` (for example tags read from an external CoNLL file) replace
    the tagger's output; ``tagger`` may then be None. Returns the labels,
    the graph and each candidate pair with its score, in instance order.
    """
    labels = tag(tagger, sentence) if labels is None else tuple(labels)
    spans = decode(labels)
    entities = {s for s in spans if s.role is not Role.EXPRESSION}
    expressions = {s for s in spans if s.role is Role.EXPRESSION}
    decisions = {}
    scored = []
    for inst in generate_instances(sentence, entities, expressions):
        decision, score = classify(rel, sentence, inst, expressions=expressions)
        decisions[(inst.entity, inst.expression)] = decision
        scored.append((inst, score))
    return labels, aggregate(sentence, entities, expressions, decisions), scored


# ---------------------------------------------------------------------------
# Graph output formats
# ---------------------------------------------------------------------------


def graphs_to_dataset(ds: Dataset, graphs: Mapping[str, SentimentGraph]) -> Dataset:
    """Dataset with each sentence's opinions replaced by its predicted graph."""
    sentences = []
    for sentence in ds.sentences:
        if sentence.id not in graphs:
            raise ValidationError(f"no graph for sentence '{sentence.id}'")
        sentences.append(
            Sentence(
                id=sentence.id,
                text=sentence.text,
                tokens=sentence.tokens,
                opinions=graphs[sentence.id].tuples,
            )
        )
    return Dataset(name=ds.name, sentences=tuple(sentences))


def graph_from_sentence(sentence: Sentence) -> SentimentGraph:
    """Read a sentence's opinions back as a graph (inverse of graphs_to_dataset)."""
    return SentimentGraph(sentence_id=sentence.id, tuples=sentence.opinions)


def write_triples(path: str, graphs: Iterable[SentimentGraph]) -> None:
    """Flat JSON-lines dump: one row per tuple, for diffing."""
    write_json_lines(path, (
        {
            "sentence_id": graph.sentence_id,
            "holders": sorted([s.start, s.end] for s in t.holders),
            "targets": sorted([s.start, s.end] for s in t.targets),
            "expression": [e.start, e.end],
        }
        for graph in graphs
        for t in graph.tuples
        for e in t.expressions  # exactly one: SentimentGraph checks it
    ))
