"""Conversion between opinion spans and per-token BIO tag sequences.

``encode`` turns a sentence's spans into one label per token; ``decode``
recovers spans from any label sequence, repairing ill-formed input: an
``I-X`` without a valid predecessor is treated as ``B-X``. Same-role spans
that overlap or touch are unioned before encoding, since BIO cannot keep
them apart; cross-role overlaps are an error (filter them first).

``load_conll`` and ``save_conll`` read and write a whole dataset as a
CoNLL file (format in ``corpus``) through ``decode`` and ``encode``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .corpus import (BIO_LABELS, Dataset, OpinionTuple, Role, Sentence, Span, Token, bio_label,
                     label_role, read_conll_blocks, write_conll)
from .errors import CodecError, ValidationError

# One label per token, drawn from BIO_LABELS.
TagSequence = Tuple[str, ...]


def validate_tags(labels: Sequence[str], n_tokens: Optional[int] = None) -> TagSequence:
    for i, label in enumerate(labels):
        if label not in BIO_LABELS:
            raise ValidationError(f"position {i}: unknown BIO label {label!r}")
    if n_tokens is not None and len(labels) != n_tokens:
        raise ValidationError(
            f"tag sequence length {len(labels)} does not match token count {n_tokens}"
        )
    return tuple(labels)


def union_same_role(spans: Iterable[Span]) -> Set[Span]:
    """Merge overlapping or adjacent spans of the same role."""
    by_role: Dict[Role, List[Span]] = {}
    for span in spans:
        by_role.setdefault(span.role, []).append(span)
    merged: Set[Span] = set()
    for role, group in by_role.items():
        group.sort(key=Span.sort_key)
        cur = group[0]
        for span in group[1:]:
            if span.start > cur.end:
                merged.add(cur)
                cur = span
            elif span.end > cur.end:
                cur = Span(role, cur.start, span.end)
        merged.add(cur)
    return merged


def encode(sentence: Sentence) -> TagSequence:
    """BIO labels for a sentence's spans (same-role spans pre-unioned).

    Raises CodecError on a cross-role token overlap, naming the token and
    the two roles involved.
    """
    labels = ["O"] * len(sentence.tokens)
    # Unioned spans of one role share no token, so a token that already has
    # a label belongs to a span of another role.
    for span in sorted(union_same_role(sentence.spans()), key=Span.sort_key):
        label, inside = bio_label("B", span.role), bio_label("I", span.role)
        for i in range(span.start, span.end):
            if labels[i] != "O":
                raise CodecError(
                    f"sentence '{sentence.id}': cross-role overlap at token {i} "
                    f"({label_role(labels[i]).value} vs {span.role.value})"
                )
            labels[i] = label
            label = inside
    return tuple(labels)


def decode(labels: Sequence[str]) -> Set[Span]:
    """Spans for a label sequence; total over the 7-label alphabet.

    Maximal ``B-X (I-X)*`` runs become spans. An orphan ``I-X`` (no same-role
    predecessor) starts a new span, which preserves recall from imperfect
    taggers at the cost of inventing a boundary.
    """
    validate_tags(labels)
    spans: Set[Span] = set()
    open_role: Optional[Role] = None
    open_start = 0
    for i, label in enumerate(labels):
        role = label_role(label)
        starts = label.startswith("B-")
        if open_role is not None and (role is not open_role or starts or role is None):
            spans.add(Span(open_role, open_start, i))
            open_role = None
        if role is not None and open_role is None:
            open_role, open_start = role, i
    if open_role is not None:
        spans.add(Span(open_role, open_start, len(labels)))
    return spans


def _sentence_from_conll(sent_id: str, rows: Sequence[Tuple[str, Optional[str], str]]) -> Sentence:
    tokens, offset = [], 0
    for text, pos, _ in rows:
        tokens.append(Token(text=text, char_start=offset, char_end=offset + len(text), pos=pos))
        offset += len(text) + 1
    spans = decode([label for _, _, label in rows])
    by_role = {role: {s for s in spans if s.role is role} for role in Role}
    if spans and not by_role[Role.EXPRESSION]:
        raise ValidationError(
            f"sentence '{sent_id}': CoNLL block has holder/target spans but no "
            f"expression span; opinion tuples require an expression"
        )
    opinions = [OpinionTuple(holders=by_role[Role.HOLDER], targets=by_role[Role.TARGET],
                             expressions=by_role[Role.EXPRESSION])] if spans else []
    return Sentence(sent_id, " ".join(text for text, _, _ in rows), tokens, opinions)


def load_conll(path: str) -> Dataset:
    """Load a CoNLL file as a dataset named after the file. A sentence's
    spans form one opinion tuple, which needs an expression span."""
    blocks = read_conll_blocks(path)
    sentences = [_sentence_from_conll(sent_id, rows) for sent_id, rows in blocks]
    name = re.sub(r"\.[^.]*$", "", path.replace("\\", "/").rsplit("/", 1)[-1]) or "dataset"
    return Dataset(name=name, sentences=sentences)


def save_conll(ds: Dataset, path: str) -> None:
    """Write a dataset as CoNLL; a cross-role overlap raises ``CodecError``."""
    write_conll(path, [(sentence, encode(sentence)) for sentence in ds.sentences])
