"""Evaluation metrics for every pipeline stage.

Token-level F1 per role (with and without collapsing B-/I- prefixes),
exact-match sentiment-graph F1, per-class relation P/R/F1, and stratified
reports over single- vs multi-target sentences. The zero-denominator
convention throughout is P = R = F1 = 0, never NaN.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import product
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .aggregator import SentimentGraph, gold_graph
from .corpus import Dataset, Role, Sentence
from .errors import ValidationError
from .relation import RelationInstance, candidate_spans, linked_pairs
from .span_codec import BIO_LABELS, TagSequence, encode, label_role


class Stratum(Enum):
    ALL = "ALL"
    SINGLE_TARGET = "SINGLE_TARGET"
    MULTI_TARGET = "MULTI_TARGET"


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "PRF":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(precision=precision, recall=recall, f1=f1, tp=tp, fp=fp, fn=fn)

    def to_dict(self) -> dict:
        return asdict(self)


_ROLES = tuple(Role)
# Each BIO label's role as an index into _ROLES, -1 for O.
_LABEL_ROLE = {
    label: -1 if label_role(label) is None else _ROLES.index(label_role(label))
    for label in BIO_LABELS
}


def token_f1(
    gold: Sequence[Sequence[str]],
    pred: Sequence[Sequence[str]],
    collapse_bio: bool = False,
) -> Dict[Role, PRF]:
    """Per-role token P/R/F1 over aligned tag sequences.

    A true positive requires the gold and predicted label to name the same
    role and, unless ``collapse_bio``, to agree on the B-/I- prefix too.
    """
    if len(gold) != len(pred):
        raise ValidationError(
            f"gold has {len(gold)} sequences but pred has {len(pred)}"
        )
    counts = [[0, 0, 0] for _ in _ROLES]  # tp, fp, fn per role
    for k, (g_seq, p_seq) in enumerate(zip(gold, pred)):
        if len(g_seq) != len(p_seq):
            raise ValidationError(
                f"sequence {k}: gold length {len(g_seq)} != pred length {len(p_seq)}"
            )
        for g_label, p_label in zip(g_seq, p_seq):
            g_role = _LABEL_ROLE.get(g_label)
            p_role = _LABEL_ROLE.get(p_label)
            if g_role is None or p_role is None:
                where, label = ("gold", g_label) if g_role is None else ("pred", p_label)
                raise ValidationError(f"sequence {k}: unknown {where} label {label!r}")
            if g_role == p_role >= 0 and (collapse_bio or g_label == p_label):
                counts[g_role][0] += 1
            else:
                if p_role >= 0:
                    counts[p_role][1] += 1
                if g_role >= 0:
                    counts[g_role][2] += 1
    return {role: PRF.from_counts(*counts[r]) for r, role in enumerate(_ROLES)}


def _graph_keys(graph: SentimentGraph) -> set:
    keys = set()
    for t in graph.tuples:
        (expression,) = t.expressions
        keys.add((t.holders, t.targets, expression))
    return keys


def graph_f1(
    gold: Sequence[SentimentGraph], pred: Sequence[SentimentGraph]
) -> PRF:
    """Exact-match F1 over whole opinion tuples, aligned by sentence id.

    A predicted tuple is a true positive iff a gold tuple of the same
    sentence has the identical holder-span set, target-span set, and
    expression span. Matching is one-to-one.
    """
    def index(graphs: Sequence[SentimentGraph], side: str) -> Dict[str, SentimentGraph]:
        out: Dict[str, SentimentGraph] = {}
        for g in graphs:
            if g.sentence_id in out:
                raise ValidationError(f"duplicate sentence id '{g.sentence_id}' in {side} graphs")
            out[g.sentence_id] = g
        return out

    gold_by_id = index(gold, "gold")
    pred_by_id = index(pred, "pred")
    if set(gold_by_id) != set(pred_by_id):
        missing = sorted(set(gold_by_id) - set(pred_by_id))
        extra = sorted(set(pred_by_id) - set(gold_by_id))
        parts = []
        if missing:
            parts.append(f"missing from pred: {', '.join(missing)}")
        if extra:
            parts.append(f"extra in pred: {', '.join(extra)}")
        raise ValidationError(f"graphs do not align by sentence id ({'; '.join(parts)})")
    tp = fp = fn = 0
    for sent_id, g in gold_by_id.items():
        g_keys = _graph_keys(g)
        p_keys = _graph_keys(pred_by_id[sent_id])
        tp += len(g_keys & p_keys)
        fp += len(p_keys - g_keys)
        fn += len(g_keys - p_keys)
    return PRF.from_counts(tp, fp, fn)


def relation_prf(
    gold: Sequence[RelationInstance], pred: Sequence[bool]
) -> Dict[str, PRF]:
    """P/R/F1 for the positive and negative relation classes."""
    if len(gold) != len(pred):
        raise ValidationError(
            f"{len(gold)} gold instances but {len(pred)} predictions"
        )
    labels = [inst.label for inst in gold]
    if None in labels:
        raise ValidationError(f"instance {labels.index(None)}: gold label missing")
    return _relation_section(Counter(zip(map(bool, labels), map(bool, pred))))


def _relation_section(n: Mapping[Tuple[bool, bool], int]) -> Dict[str, PRF]:
    """Positive- and negative-class PRF from the count of each (truth, guess)."""
    return {
        "positive": PRF.from_counts(n[True, True], n[False, True], n[True, False]),
        "negative": PRF.from_counts(n[False, False], n[True, False], n[False, True]),
    }


@dataclass(frozen=True)
class EvalReport:
    """Bundle of metrics for one dataset and stratum.

    Sections are None when the corresponding predictions were not supplied
    (token metrics need tag sequences; graph and relation metrics need
    graphs).
    """

    dataset: str
    stratum: Stratum
    sentence_count: int
    token: Optional[Mapping[Role, PRF]] = None
    token_collapsed: Optional[Mapping[Role, PRF]] = None
    graph: Optional[PRF] = None
    relation: Optional[Mapping[str, PRF]] = None

    def to_dict(self) -> dict:
        def roles(section):
            if section is None:
                return None
            return {role.value.lower(): prf.to_dict() for role, prf in section.items()}

        return {
            "dataset": self.dataset,
            "stratum": self.stratum.value,
            "sentence_count": self.sentence_count,
            "token": roles(self.token),
            "token_collapsed": roles(self.token_collapsed),
            "graph": self.graph.to_dict() if self.graph is not None else None,
            "relation": (
                {cls: prf.to_dict() for cls, prf in self.relation.items()}
                if self.relation is not None
                else None
            ),
        }


def in_stratum(sentence: Sentence, stratum: Stratum) -> bool:
    if stratum is Stratum.ALL:
        return True
    n_targets = len(sentence.spans(Role.TARGET))
    if stratum is Stratum.SINGLE_TARGET:
        return n_targets == 1
    return n_targets >= 2


def stratified_report(
    gold_ds: Dataset,
    pred_tags: Optional[Mapping[str, TagSequence]] = None,
    pred_graphs: Optional[Mapping[str, SentimentGraph]] = None,
    stratum: Stratum = Stratum.ALL,
) -> EvalReport:
    """Evaluate predictions on the sentences of one stratum.

    Strata partition by the number of distinct gold target spans: exactly
    one (SINGLE_TARGET) or two and more (MULTI_TARGET); ALL keeps every
    sentence. The relation section scores, for every gold entity/expression
    candidate pair, whether the predicted graph connects it.
    """
    if pred_tags is None and pred_graphs is None:
        raise ValidationError("stratified_report needs tag sequences and/or graphs")
    selected = [s for s in gold_ds.sentences if in_stratum(s, stratum)]

    token = token_collapsed = graph = rel = None
    if pred_tags is not None:
        gold_seqs, pred_seqs = [], []
        for sentence in selected:
            if sentence.id not in pred_tags:
                raise ValidationError(f"no predicted tags for sentence '{sentence.id}'")
            gold_seqs.append(encode(sentence))
            pred_seqs.append(pred_tags[sentence.id])
        token = token_f1(gold_seqs, pred_seqs, collapse_bio=False)
        token_collapsed = token_f1(gold_seqs, pred_seqs, collapse_bio=True)
    if pred_graphs is not None:
        gold_graphs, predicted = [], []
        outcomes: Counter = Counter()  # (gold links it, prediction links it) -> pairs
        for sentence in selected:
            if sentence.id not in pred_graphs:
                raise ValidationError(f"no predicted graph for sentence '{sentence.id}'")
            gold_graphs.append(gold_graph(sentence))
            predicted.append(pred_graphs[sentence.id])
            gold_links = linked_pairs(sentence.opinions)
            connected = linked_pairs(predicted[-1].tuples)
            for pair in product(*candidate_spans(sentence.spans())):
                outcomes[pair in gold_links, pair in connected] += 1
        graph = graph_f1(gold_graphs, predicted)
        rel = _relation_section(outcomes)
    return EvalReport(
        dataset=gold_ds.name,
        stratum=stratum,
        sentence_count=len(selected),
        token=token,
        token_collapsed=token_collapsed,
        graph=graph,
        relation=rel,
    )


def format_report_table(reports: Sequence[EvalReport]) -> str:
    """Fixed-width table with Holder/Target/Expression F1 column order."""
    header = (
        "dataset", "stratum", "n_sent",
        "holder_f1", "target_f1", "expression_f1",
        "graph_f1", "rel_pos_f1", "rel_neg_f1",
    )
    rows = [header]
    for r in reports:
        def tok(role: Role) -> str:
            if r.token is None:
                return "-"
            return f"{r.token[role].f1:.3f}"

        rows.append(
            (
                r.dataset,
                r.stratum.value,
                str(r.sentence_count),
                tok(Role.HOLDER),
                tok(Role.TARGET),
                tok(Role.EXPRESSION),
                f"{r.graph.f1:.3f}" if r.graph is not None else "-",
                f"{r.relation['positive'].f1:.3f}" if r.relation is not None else "-",
                f"{r.relation['negative'].f1:.3f}" if r.relation is not None else "-",
            )
        )
    return format_table(rows)


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart, each as wide as its widest cell."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows
    )
