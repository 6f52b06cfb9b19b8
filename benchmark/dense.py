"""Dense synthetic corpora: several generated sentences joined into one.

Each dense sentence concatenates ``k`` consecutive sentences of
``generate_corpus(n * k, seed)`` with one space between them. Token
character offsets and span token indices are shifted into the joined
sentence, and ids are ``dense0000``, ``dense0001``, ... . Candidate
relation pairs per sentence grow with the square of ``k``: about 3 in the
default corpus, about 150 at ``k = 8``.

The join breaks the generator's "entity/expression gap <= 2 iff related"
rule at the seams, so a pipeline trained on this corpus scores below 1.0.

Uses only the public ``sentigraph`` API, so it runs unchanged against any
version of the package that keeps those names.
"""

from __future__ import annotations

from typing import List, Sequence

from sentigraph import Dataset, OpinionTuple, Role, Sentence, Span, Token
from sentigraph.synth import generate_corpus

__all__ = ["build_dense", "candidate_pairs"]


def _shift_spans(spans, by: int) -> set:
    return {Span(s.role, s.start + by, s.end + by) for s in spans}


def _join(sent_id: str, parts: Sequence[Sentence]) -> Sentence:
    texts: List[str] = []
    tokens: List[Token] = []
    opinions: List[OpinionTuple] = []
    char_base = 0
    for part in parts:
        token_base = len(tokens)
        texts.append(part.text)
        for tok in part.tokens:
            tokens.append(
                Token(
                    text=tok.text,
                    char_start=tok.char_start + char_base,
                    char_end=tok.char_end + char_base,
                    pos=tok.pos,
                )
            )
        for op in part.opinions:
            opinions.append(
                OpinionTuple(
                    holders=_shift_spans(op.holders, token_base),
                    targets=_shift_spans(op.targets, token_base),
                    expressions=_shift_spans(op.expressions, token_base),
                    polarity=op.polarity,
                )
            )
        char_base += len(part.text) + 1
    return Sentence(id=sent_id, text=" ".join(texts), tokens=tokens, opinions=opinions)


def build_dense(seed: int, k: int, n: int, name: str = "dense") -> Dataset:
    """``n`` dense sentences, each joining ``k`` generated sentences.

    Deterministic for a given ``(seed, k, n)``.
    """
    if k < 1 or n < 0:
        raise ValueError(f"need k >= 1 and n >= 0, got k={k}, n={n}")
    base = generate_corpus(n * k, seed).sentences
    return Dataset(
        name=name,
        sentences=tuple(
            _join(f"dense{i:04d}", base[i * k : (i + 1) * k]) for i in range(n)
        ),
    )


def candidate_pairs(sentence: Sentence) -> int:
    """Gold entity x expression pairs, the relation stage's candidate count."""
    expressions = len(sentence.spans(Role.EXPRESSION))
    return (len(sentence.spans()) - expressions) * expressions
