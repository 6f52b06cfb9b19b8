"""Assembly of spans and linked entity/expression pairs into sentiment graphs.

One graph tuple is produced per expression span; its holder and target
sets are exactly the entities linked to that expression. Expressions with
no linked entity keep an expression-only tuple so that relation-stage
recall errors stay visible in graph metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from json.encoder import encode_basestring
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .corpus import Dataset, OpinionTuple, Role, Sentence, Span, load_dataset, replacing
from .errors import ValidationError, hold_items, naming
from .relation import (RelationInstance, RelationModel, candidate_spans, classify,
                       generate_instances, linked_pairs)
from .span_codec import TagSequence, decode
from .taggers import TaggerModel, tag


@dataclass(frozen=True)
class SentimentGraph:
    """Per-sentence extraction result: one tuple per expression span."""

    sentence_id: str
    tuples: Tuple[OpinionTuple, ...] = ()

    def __post_init__(self):
        if type(self.sentence_id) is not str:
            raise ValidationError(f"graph: sentence_id must be a str, got {self.sentence_id!r}")
        where, seen = f"graph for sentence '{self.sentence_id}'", set()
        hold_items(self, "tuples", tuple, "graph for sentence '{0.sentence_id}'", "OpinionTuples")
        for t in self.tuples:
            if type(t) is not OpinionTuple or len(t.expressions) != 1:
                raise ValidationError(f"{where}: " + (
                    "every tuple must have exactly one expression span"
                    if type(t) is OpinionTuple else f"{t!r} is not an OpinionTuple"))
            if t.polarity is not None:
                raise ValidationError(f"{where}: tuples carry no polarity")
            (expression,) = t.expressions
            if expression in seen:
                raise ValidationError(f"{where}: two tuples share the expression span "
                                      f"[{expression.start}, {expression.end})")
            seen.add(expression)


def aggregate(
    sentence: Sentence, expression_spans: Iterable[Span], linked: Iterable[Tuple[Span, Span]]
) -> SentimentGraph:
    """Build the graph for one sentence from its linked (entity, expression)
    pairs: the inverse of ``relation.linked_pairs``. Each expression span
    gets one tuple, in expression start order, holding the entities linked
    to it; a pair whose expression is not in ``expression_spans`` raises."""
    linked_to = {x: [] for x in sorted(expression_spans, key=Span.sort_key)}
    for entity, expression in linked:
        if expression not in linked_to:
            raise ValidationError(
                f"sentence '{sentence.id}': linked expression "
                f"[{expression.start}, {expression.end}) is not an expression span"
            )
        linked_to[expression].append(entity)
    return SentimentGraph(sentence_id=sentence.id, tuples=tuple(
        OpinionTuple(
            holders={e for e in entities if e.role is Role.HOLDER},
            targets={e for e in entities if e.role is not Role.HOLDER},
            expressions={x},
        )
        for x, entities in linked_to.items()
    ))


def gold_graph(sentence: Sentence) -> SentimentGraph:
    """Project gold opinion annotations onto the one-tuple-per-expression shape.

    Tuples that share an expression span merge: the expression keeps the
    union of their holders and targets.
    """
    linked = linked_pairs(sentence.opinions)
    return aggregate(sentence, sentence.spans(Role.EXPRESSION), linked)


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
    entities, expressions = candidate_spans(decode(labels))
    linked = []
    scored = []
    for inst in generate_instances(sentence, entities, expressions):
        decision, score = classify(rel, sentence, inst)
        if decision:
            linked.append((inst.entity, inst.expression))
        scored.append((inst, score))
    return labels, aggregate(sentence, expressions, linked), scored


# ---------------------------------------------------------------------------
# Graph output formats
# ---------------------------------------------------------------------------


def graphs_to_dataset(ds: Dataset, graphs: Mapping[str, SentimentGraph]) -> Dataset:
    """Dataset with each sentence's opinions replaced by its predicted graph;
    ``SentimentGraph(s.id, s.opinions)`` reads a sentence back as a graph."""
    sentences = []
    for sentence in ds.sentences:
        if sentence.id not in graphs:
            raise ValidationError(f"no graph for sentence '{sentence.id}'")
        sentences.append(replace(sentence, opinions=graphs[sentence.id].tuples))
    return Dataset(name=ds.name, sentences=tuple(sentences))


def load_graphs(path: str, gold: Dataset,
                required: Iterable[Sentence]) -> Dict[str, SentimentGraph]:
    """By sentence id, the graphs of a dataset file in ``graphs_to_dataset``'s
    layout, read by ``Dataset.predictions``' rule against ``gold`` and
    ``required``; an error names ``path``."""
    predicted = gold.predictions(path, (
        (s.id, [tok.text for tok in s.tokens], s.opinions) for s in load_dataset(path)), required)
    with naming(path):
        return {i: SentimentGraph(i, ops) for i, ops in predicted.items()}


def write_triples(path: str, graphs: Iterable[SentimentGraph]) -> None:
    """Flat JSON-lines dump, for diffing: per tuple the text of ``json.dumps(row,
    sort_keys=True, ensure_ascii=False)``, where ``row`` has ``expression``,
    ``holders``, ``sentence_id`` and ``targets``, spans as sorted [start, end]."""
    def pairs(spans) -> str:
        return ", ".join(f"[{start}, {end}]" for start, end in sorted(
            (s.start, s.end) for s in spans))

    with replacing(path) as fh:
        for graph in graphs:
            sent_id = encode_basestring(graph.sentence_id)
            for t in graph.tuples:
                (e,) = t.expressions  # SentimentGraph checks that there is one
                fh.write(f'{{"expression": [{e.start}, {e.end}], "holders": [{pairs(t.holders)}], '
                         f'"sentence_id": {sent_id}, "targets": [{pairs(t.targets)}]}}\n')
