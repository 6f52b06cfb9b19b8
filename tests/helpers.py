"""Shared fixture builders for the test suite."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from sentigraph import Dataset, OpinionTuple, Role, Sentence, Span, Token, encode
from sentigraph.taggers import TIE_ORDER, token_features

ROLES = (Role.HOLDER, Role.TARGET, Role.EXPRESSION)


def span(role: str, start: int, end: int) -> Span:
    return Span({"h": Role.HOLDER, "t": Role.TARGET, "e": Role.EXPRESSION}[role], start, end)


def opinion(
    holders: Iterable[Span] = (),
    targets: Iterable[Span] = (),
    expressions: Iterable[Span] = (),
    polarity: Optional[str] = None,
) -> OpinionTuple:
    return OpinionTuple(
        holders=holders, targets=targets, expressions=expressions, polarity=polarity
    )


def sent(
    sent_id: str,
    words: Sequence[str],
    opinions: Iterable[OpinionTuple] = (),
    pos: Optional[Sequence[Optional[str]]] = None,
) -> Sentence:
    tokens = []
    offset = 0
    for i, word in enumerate(words):
        tokens.append(
            Token(
                text=word,
                char_start=offset,
                char_end=offset + len(word),
                pos=pos[i] if pos is not None else None,
            )
        )
        offset += len(word) + 1
    return Sentence(id=sent_id, text=" ".join(words), tokens=tuple(tokens), opinions=opinions)


def love_school() -> Sentence:
    """'I love school': holder I, expression love, target school."""
    return sent(
        "s-love",
        ["I", "love", "school"],
        opinions=[
            opinion(
                holders=[span("h", 0, 1)],
                targets=[span("t", 2, 3)],
                expressions=[span("e", 1, 2)],
            )
        ],
        pos=["PRON", "VERB", "NOUN"],
    )


def random_overlap_free_sentence(rng: random.Random, sent_id: str, max_tokens: int = 12) -> Sentence:
    """Random sentence whose span set is cross-role disjoint and has no
    same-role overlapping or adjacent spans (a fixed point of span union)."""
    n = rng.randint(1, max_tokens)
    spans = []
    i = 0
    while i < n:
        if rng.random() < 0.5:
            role = rng.choice(ROLES)
            if spans and spans[-1].end == i and spans[-1].role is role:
                i += 1
                continue
            end = min(i + rng.randint(1, 3), n)
            spans.append(Span(role, i, end))
            i = end
        else:
            i += 1
    if spans and not any(s.role is Role.EXPRESSION for s in spans):
        # no other expression exists, so relabeling cannot create same-role
        # adjacency
        spans[0] = Span(Role.EXPRESSION, spans[0].start, spans[0].end)
    opinions = []
    if spans:
        opinions.append(
            opinion(
                holders=[s for s in spans if s.role is Role.HOLDER],
                targets=[s for s in spans if s.role is Role.TARGET],
                expressions=[s for s in spans if s.role is Role.EXPRESSION],
            )
        )
    return sent(sent_id, [f"w{j}" for j in range(n)], opinions=opinions)


def random_dataset(rng: random.Random, n_sentences: int, name: str = "rand") -> Dataset:
    return Dataset(
        name=name,
        sentences=tuple(
            random_overlap_free_sentence(rng, f"r{k}") for k in range(n_sentences)
        ),
    )


def reference_perceptron(
    train: Dataset, epochs: int, seed: int
) -> Tuple[Dict[str, Dict[str, float]], List[int]]:
    """The averaged perceptron written out plainly: every one of ``epochs``
    passes runs, features are rebuilt at every step and weights are
    ``{feature: {label: weight}}`` dicts. Returns the averaged weights and
    the number of mistakes made in each pass."""
    data = [(s.tokens, encode(s)) for s in train.sentences]
    weights: Dict[str, Dict[str, float]] = {}
    totals: Dict[str, Dict[str, float]] = {}
    stamps: Dict[str, Dict[str, int]] = {}
    step = 0

    def bump(feat: str, label: str, delta: float) -> None:
        row = weights.setdefault(feat, {})
        cur = row.get(label, 0.0)
        trow = totals.setdefault(feat, {})
        srow = stamps.setdefault(feat, {})
        trow[label] = trow.get(label, 0.0) + (step - srow.get(label, 0)) * cur
        srow[label] = step
        row[label] = cur + delta

    def legal(label: str, prev: str) -> bool:
        return not label.startswith("I-") or prev in ("B" + label[1:], label)

    mistakes = []
    rng = random.Random(seed)
    order = list(range(len(data)))
    for _ in range(epochs):
        mistakes.append(0)
        rng.shuffle(order)
        for idx in order:
            tokens, gold = data[idx]
            prev = "<s>"
            for i in range(len(tokens)):
                step += 1
                feats = token_features(tokens, i, prev)
                best, guess = None, None
                for label in TIE_ORDER:
                    if legal(label, prev):
                        score = sum(weights.get(f, {}).get(label, 0.0) for f in feats)
                        if best is None or score > best:
                            best, guess = score, label
                if guess != gold[i]:
                    mistakes[-1] += 1
                    for feat in feats:
                        bump(feat, gold[i], 1.0)
                        bump(feat, guess, -1.0)
                prev = guess

    averaged: Dict[str, Dict[str, float]] = {}
    for feat, row in weights.items():
        out = {}
        for label, w in row.items():
            avg = (totals[feat][label] + (step - stamps[feat][label]) * w) / step
            if avg:
                out[label] = avg
        if out:
            averaged[feat] = out
    return averaged, mistakes
