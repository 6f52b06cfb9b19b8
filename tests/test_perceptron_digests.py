"""Pinned sha256 digests of the averaged perceptron's output.

The digests were computed with the straightforward per-step implementation
of ``train_perceptron`` (features rebuilt at every step, weights held as
``{feature: {label: weight}}`` dicts). Any faster implementation must give
the same saved model and the same ``tag()`` output, byte for byte.
"""

import dataclasses
import hashlib

import pytest

from helpers import opinion, sent, span
from sentigraph import Dataset, filter_overlapping, tag, train_perceptron, upsample
from sentigraph.synth import generate_corpus
from sentigraph.taggers import save_model


def _digests(train: Dataset, test: Dataset, epochs: int, seed: int, tmp_path):
    model = train_perceptron(train, epochs=epochs, seed=seed)
    path = tmp_path / "tagger.json"
    save_model(model, str(path))
    tags = "\n".join(" ".join(tag(model, s)) for s in test.sentences)
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(tags.encode("utf-8")).hexdigest(),
    )


def _upsampled(n: int, seed: int) -> Dataset:
    filtered, _ = filter_overlapping(generate_corpus(n, seed=seed, name="train"))
    return upsample(filtered, seed=3)


def _sparse_corpus() -> Dataset:
    """Single-token sentences, and sentences whose tokens carry no POS."""
    base = generate_corpus(40, seed=61, name="sparse")
    sentences = []
    for i, s in enumerate(base.sentences):
        if i % 2:
            s = dataclasses.replace(
                s, tokens=tuple(dataclasses.replace(t, pos=None) for t in s.tokens)
            )
        sentences.append(s)
    sentences += [
        sent("one-exp", ["Great"], opinions=[opinion(expressions=[span("e", 0, 1)])]),
        sent("one-o", ["ok"]),
        sent("one-pos", ["Bob"], pos=["PROPN"]),
        sent("mixed", ["Bob", "hates", "rain"], pos=["PROPN", None, "NOUN"],
             opinions=[opinion(holders=[span("h", 0, 1)], targets=[span("t", 2, 3)],
                               expressions=[span("e", 1, 2)])]),
    ]
    return Dataset(name="sparse", sentences=sentences)


@pytest.mark.parametrize(
    "case, expected",
    [
        (
            "upsampled_10_epochs",
            ("e22a67089fa1001812aa619ed5ae1e5977deb040995a56b11e61db9b337847a9",
             "0dd0ccf85291edc169ef24f8f36579ad4c263d461e7f0929fa8bdaea4157bf50"),
        ),
        (
            "one_epoch",
            ("9ba78ff96f37e2d8dbb9939e390ed5a6a01f3613acd7b426ac4e4c0efb6426ab",
             "a1fc04dcfbf95d7edadead31f2e0c933918f20b93b9779c276aee467528c2f27"),
        ),
        (
            "sparse_5_epochs",
            ("207a8eab2da55343a2f56df5d9ab291b9931d1d3ca750649542a5522f7df20c9",
             "05c7c600483af9ba834a79a1d27c043c11e0dcd663a44749f20bcee9ebcd4753"),
        ),
    ],
)
def test_perceptron_output_is_pinned(case, expected, tmp_path):
    if case == "upsampled_10_epochs":
        got = _digests(_upsampled(160, 41), generate_corpus(60, seed=42), 10, 1, tmp_path)
    elif case == "one_epoch":
        got = _digests(_upsampled(160, 43), generate_corpus(60, seed=44), 1, 7, tmp_path)
    else:
        corpus = _sparse_corpus()
        got = _digests(corpus, corpus, 5, 2, tmp_path)
    assert got == expected
