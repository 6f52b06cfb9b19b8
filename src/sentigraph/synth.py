"""Deterministic synthetic opinion corpora.

The three span roles draw from disjoint vocabularies, so word identity
alone determines the role. Sentences are built from opinion clusters:
within a cluster every entity sits at most two tokens from the cluster's
expression, and clusters are separated by at least three filler tokens.
Tuple membership therefore coincides exactly with the predicate
"token gap between entity and expression <= 2", which gives the relation
stage a learnable, fully known decision rule.

Usable as a module (``generate_corpus``) or as a script::

    python -m sentigraph.synth out.json --sentences 600 --seed 11
"""

from __future__ import annotations

import argparse
import random
from typing import List, Optional, Sequence, Tuple

from .corpus import Dataset, OpinionTuple, Role, Sentence, Span, save_dataset

HOLDERS = (
    "alice", "bob", "carol", "dave", "erin", "frank", "grace",
    "critics", "reviewers", "guests", "everyone", "locals",
)
EXPRESSIONS_1 = (
    "loves", "hates", "adores", "dislikes", "praised", "panned",
    "enjoys", "detests", "recommends", "criticized", "cherishes", "resents",
)
EXPRESSIONS_2 = (
    ("strongly", "endorses"),
    ("really", "liked"),
    ("quietly", "despises"),
    ("openly", "mocked"),
)
TARGETS_1 = (
    "school", "pizza", "bread", "hotel", "battery", "camera",
    "keyboard", "coffee", "library", "airport", "museum", "garden",
)
TARGETS_2 = (
    ("front", "desk"),
    ("room", "service"),
    ("swimming", "pool"),
    ("parking", "lot"),
)
FILLERS = (
    "the", "a", "this", "that", "was", "is", "yesterday", "apparently",
    "honestly", "overall", "somehow", "meanwhile", "still", "clearly",
)

_FILLER_POS = {"the": "DET", "a": "DET", "this": "DET", "that": "DET", "was": "AUX", "is": "AUX"}

# Minimum filler tokens between two clusters; keeps every cross-cluster
# entity/expression gap above the in-cluster limit of 2.
_CLUSTER_GAP = 3


def _filler_pos(word: str) -> str:
    return _FILLER_POS.get(word, "ADV")


class _Builder:
    def __init__(self):
        self.words: List[str] = []
        self.pos: List[str] = []

    def add(self, word: str, pos: str) -> None:
        self.words.append(word)
        self.pos.append(pos)

    def add_fillers(self, rng: random.Random, count: int) -> None:
        for _ in range(count):
            word = rng.choice(FILLERS)
            self.add(word, _filler_pos(word))

    def add_span(self, rng: random.Random, role: Role, allow_multi: bool = True) -> Span:
        start = len(self.words)
        if role is Role.HOLDER:
            self.add(rng.choice(HOLDERS), "PRON")
        elif role is Role.EXPRESSION:
            if allow_multi and rng.random() < 0.25:
                adv, verb = rng.choice(EXPRESSIONS_2)
                self.add(adv, "ADV")
                self.add(verb, "VERB")
            else:
                self.add(rng.choice(EXPRESSIONS_1), "VERB")
        else:
            if allow_multi and rng.random() < 0.25:
                first, second = rng.choice(TARGETS_2)
                self.add(first, "NOUN")
                self.add(second, "NOUN")
            else:
                self.add(rng.choice(TARGETS_1), "NOUN")
        return Span(role, start, len(self.words))


def _cluster(builder: _Builder, rng: random.Random, kind: str) -> OpinionTuple:
    if kind == "exponly":
        expression = builder.add_span(rng, Role.EXPRESSION)
        return OpinionTuple(expressions={expression})
    if kind == "noholder":
        # "the <target> was <expression>"
        builder.add("the", "DET")
        target = builder.add_span(rng, Role.TARGET)
        builder.add("was", "AUX")
        expression = builder.add_span(rng, Role.EXPRESSION)
        return OpinionTuple(targets={target}, expressions={expression})
    if kind == "single":
        # "<holder> [adv] <expression> the <target>"
        holder = builder.add_span(rng, Role.HOLDER)
        if rng.random() < 0.3:
            builder.add_fillers(rng, 1)
        expression = builder.add_span(rng, Role.EXPRESSION)
        builder.add("the", "DET")
        target = builder.add_span(rng, Role.TARGET)
        return OpinionTuple(holders={holder}, targets={target}, expressions={expression})
    # "multi": "<holder> <expression> <target> and <target>", single-token
    # spans only so the second target stays within a gap of 2.
    holder = builder.add_span(rng, Role.HOLDER)
    expression = builder.add_span(rng, Role.EXPRESSION, allow_multi=False)
    first = builder.add_span(rng, Role.TARGET, allow_multi=False)
    builder.add("and", "ADV")
    second = builder.add_span(rng, Role.TARGET, allow_multi=False)
    return OpinionTuple(holders={holder}, targets={first, second}, expressions={expression})


def _sentence(sent_id: str, rng: random.Random, cluster_kinds: Sequence[str]) -> Sentence:
    builder = _Builder()
    builder.add_fillers(rng, rng.randint(0, 2))
    opinions = []
    for i, kind in enumerate(cluster_kinds):
        if i:
            builder.add_fillers(rng, rng.randint(_CLUSTER_GAP, _CLUSTER_GAP + 1))
        opinions.append(_cluster(builder, rng, kind))
    if not cluster_kinds:
        builder.add_fillers(rng, rng.randint(4, 9))
    builder.add_fillers(rng, rng.randint(0, 2))
    return Sentence.from_words(sent_id, builder.words, builder.pos, opinions)


def generate_corpus(n_sentences: int, seed: int, name: str = "synthetic") -> Dataset:
    """A mixed corpus: empty sentences, single and multi-target opinions,
    and two-cluster sentences that supply negative relation pairs."""
    rng = random.Random(seed)
    multi_cluster_kinds = ("single", "noholder", "multi")
    sentences = []
    for i in range(n_sentences):
        r = rng.random()
        if r < 0.15:
            kinds: Tuple[str, ...] = ()
        elif r < 0.25:
            kinds = ("exponly",)
        elif r < 0.37:
            kinds = ("noholder",)
        elif r < 0.57:
            kinds = ("single",)
        elif r < 0.70:
            kinds = ("multi",)
        else:
            kinds = (rng.choice(multi_cluster_kinds), rng.choice(multi_cluster_kinds))
        sentences.append(_sentence(f"syn{i:04d}", rng, kinds))
    return Dataset(name=name, sentences=tuple(sentences))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Generate a synthetic opinion dataset.")
    parser.add_argument("output", help="path of the JSON dataset to write")
    parser.add_argument("--sentences", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--name", default="synthetic")
    args = parser.parse_args(argv)
    ds = generate_corpus(args.sentences, args.seed, name=args.name)
    save_dataset(ds, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
