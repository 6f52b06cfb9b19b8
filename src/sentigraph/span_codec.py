"""BIO labels: their alphabet, their spans and their CoNLL format.

The label alphabet is fixed: ``O, B-HOLDER, I-HOLDER, B-TARG, I-TARG,
B-EXP, I-EXP`` (BIO tagging after Ramshaw & Marcus 1995). An ``I-X``
continues the label before it when that label is ``B-X`` or ``I-X``
(``continues``); the taggers and ``decode`` share that one rule.

``encode`` turns a sentence's spans into one label per token; ``decode``
recovers spans from any label sequence, repairing ill-formed input: an
``I-X`` that continues nothing is treated as ``B-X``. Same-role spans
that overlap or touch are unioned before encoding, since BIO cannot keep
them apart; cross-role overlaps are an error (filter them first).

CoNLL format: one token per line, blank line between sentences, a
``# sent_id = <id>`` comment before each sentence, and four columns::

    index   token   pos   bio_label

POS is ``_`` when absent. CoNLL is a lossy projection: how spans group
into opinion tuples is not representable, so a round trip through
``save_conll`` and ``load_conll`` preserves span sets but flattens each
sentence's opinions into a single tuple.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .corpus import Dataset, OpinionTuple, Role, Sentence, Span, Token, replacing
from .errors import CodecError, ParseError, ValidationError

_ROLE_SUFFIX = {Role.HOLDER: "HOLDER", Role.TARGET: "TARG", Role.EXPRESSION: "EXP"}
# Each label's role, None for O; its keys are the alphabet, in order.
_LABEL_ROLE = {"O": None, **{f"{prefix}-{suffix}": role
                             for role, suffix in _ROLE_SUFFIX.items() for prefix in "BI"}}
BIO_LABELS = tuple(_LABEL_ROLE)


def bio_label(prefix: str, role: Role) -> str:
    return f"{prefix}-{_ROLE_SUFFIX[role]}"


def label_role(label: str) -> Optional[Role]:
    """Role of a BIO label, or None for ``O``."""
    return _LABEL_ROLE[label]


def continues(prev: str, label: str) -> bool:
    """Whether ``label`` is an ``I-X`` after a ``B-X`` or ``I-X``."""
    return label.startswith("I-") and prev in ("B" + label[1:], label)


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

    A label that does not continue the one before it ends the open span, and
    any label but ``O`` starts one. So maximal ``B-X (I-X)*`` runs become
    spans, and an orphan ``I-X`` starts a new span, which preserves recall
    from imperfect taggers at the cost of inventing a boundary.
    """
    validate_tags(labels)
    spans: Set[Span] = set()
    start, prev = 0, "O"
    for i, label in enumerate((*labels, "O")):
        if not continues(prev, label):
            if prev != "O":
                spans.add(Span(_LABEL_ROLE[prev], start, i))
            start = i
        prev = label
    return spans


# ---------------------------------------------------------------------------
# CoNLL serialization
# ---------------------------------------------------------------------------

_SENT_ID_RE = re.compile(r"#\s*sent_id\s*=\s*(.+?)\s*$")
# A tab splits a row; a newline or carriage return ends a line.
_CONLL_BREAK = re.compile("[\t\n\r]")

# (sent_id, [(token_text, pos_or_None, bio_label), ...])
ConllBlock = Tuple[str, List[Tuple[str, Optional[str], str]]]


def write_conll(path: str, labelled: Iterable[Tuple[Sentence, Sequence[str]]]) -> None:
    """Write each sentence as a CoNLL block, with one label per token.

    Only what ``read_conll_blocks`` reads back is written: a tab, newline or
    carriage return in a sentence id, token text or POS raises
    ``ValidationError``, and so does a sentence id with leading or trailing
    whitespace, which the header reader strips.
    """
    with replacing(path) as fh:
        for sentence, labels in labelled:
            sent_id = sentence.id
            if _CONLL_BREAK.search(sent_id) or sent_id != sent_id.strip():
                raise ValidationError(
                    f"sentence id {sent_id!r} contains a tab or line break, or starts or "
                    f"ends with whitespace, and cannot be written to CoNLL"
                )
            fh.write(f"# sent_id = {sent_id}\n")
            for i, (tok, label) in enumerate(zip(sentence.tokens, labels)):
                text, pos = tok.text, tok.pos
                if _CONLL_BREAK.search(text) or (pos is not None and _CONLL_BREAK.search(pos)):
                    raise ValidationError(
                        f"sentence '{sent_id}', token {i} {text!r}: text/pos contains a tab "
                        f"or line break and cannot be written to CoNLL"
                    )
                fh.write(f"{i + 1}\t{text}\t{pos if pos is not None else '_'}\t{label}\n")
            fh.write("\n")


def read_conll_blocks(path: str) -> List[ConllBlock]:
    blocks: List[ConllBlock] = []
    rows: Optional[List[Tuple[str, Optional[str], str]]] = None  # of the open block
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if not line.strip():
                    rows = None
                    continue
                if line.startswith("#"):
                    match = _SENT_ID_RE.match(line)
                    if match:
                        if rows is not None:
                            raise ParseError(
                                f"{path}:{lineno}: new '# sent_id' header without a blank "
                                f"line after sentence '{blocks[-1][0]}'"
                            )
                        rows = []
                        blocks.append((match.group(1), rows))
                    continue
                if rows is None:
                    raise ParseError(
                        f"{path}:{lineno}: token row before a '# sent_id =' header"
                    )
                cols = line.split("\t") if "\t" in line else line.split()
                if len(cols) != 4:
                    raise ParseError(
                        f"{path}:{lineno}: expected 4 columns (index token pos label), "
                        f"got {len(cols)}"
                    )
                index_str, text, pos, label = cols
                try:
                    index = int(index_str)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: token index {index_str!r} is not an integer")
                if index != len(rows) + 1:
                    raise ParseError(
                        f"{path}:{lineno}: token index {index} out of sequence "
                        f"(expected {len(rows) + 1})"
                    )
                if label not in BIO_LABELS:
                    raise ParseError(f"{path}:{lineno}: unknown BIO label {label!r}")
                rows.append((text, None if pos == "_" else pos, label))
    except OSError as err:
        raise ParseError(f"{path}: cannot read: {err}") from err
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: {err}") from err
    return blocks


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
    name = re.sub(r"\.[^.]*$", "", path.replace("\\", "/").rsplit("/", 1)[-1]) or "dataset"
    try:
        sentences = [_sentence_from_conll(sent_id, rows) for sent_id, rows in blocks]
        return Dataset(name=name, sentences=sentences)
    except ValidationError as err:
        raise ValidationError(f"{path}: {err}") from err


def save_conll(ds: Dataset, path: str) -> None:
    """Write a dataset as CoNLL; a cross-role overlap raises ``CodecError``."""
    write_conll(path, [(sentence, encode(sentence)) for sentence in ds.sentences])
