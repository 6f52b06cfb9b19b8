"""Shared fixture builders for the test suite."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import sentigraph
from sentigraph import (Dataset, OpinionTuple, Role, Sentence, Span, Token, ValidationError,
                        encode, save_dataset)
from sentigraph.cli import main
from sentigraph.synth import generate_corpus
from sentigraph.taggers import (PREV_TEMPLATES, STATIC_TEMPLATES, TIE_ORDER, WORD_TEMPLATES,
                                _static_values)

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
    return Sentence.from_words(sent_id, words, [None] * len(words) if pos is None else pos,
                               opinions)


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


def reference_encode(sentence: Sentence) -> Tuple[str, ...]:
    """``encode`` written the other way, kept as an independent reference:
    same-role spans that overlap or touch are first unioned into one span,
    the unioned spans are then labelled in ``Span.sort_key`` order, and a
    token that already has a label raises ``ValidationError`` naming the
    sentence and token, not the roles."""
    by_role: Dict[Role, List[Span]] = {}
    for s in sentence.spans():
        by_role.setdefault(s.role, []).append(s)
    merged = []
    for role, group in by_role.items():
        group.sort(key=Span.sort_key)
        cur = group[0]
        for s in group[1:]:
            if s.start > cur.end:
                merged.append(cur)
                cur = s
            elif s.end > cur.end:
                cur = Span(role, cur.start, s.end)
        merged.append(cur)
    suffix = {Role.HOLDER: "HOLDER", Role.TARGET: "TARG", Role.EXPRESSION: "EXP"}
    labels = ["O"] * len(sentence.tokens)
    for s in sorted(merged, key=Span.sort_key):
        for i in range(s.start, s.end):
            if labels[i] != "O":
                raise ValidationError(f"sentence '{sentence.id}': cross-role overlap at token {i}")
            labels[i] = ("B-" if i == s.start else "I-") + suffix[s.role]
    return tuple(labels)


def random_dataset(rng: random.Random, n_sentences: int, name: str = "rand") -> Dataset:
    return Dataset(
        name=name,
        sentences=tuple(
            random_overlap_free_sentence(rng, f"r{k}") for k in range(n_sentences)
        ),
    )


def _span_pairs(spans: Iterable[Span]) -> List[List[int]]:
    return [[s.start, s.end] for s in sorted(spans, key=Span.sort_key)]


def dataset_to_dict(ds: Dataset) -> dict:
    """A dataset as the JSON schema's dict, kept as the reference that
    ``save_dataset``'s bytes are checked against: ``json.dumps`` of it."""
    return {
        "name": ds.name,
        "sentences": [
            {
                "id": s.id,
                "text": s.text,
                "tokens": [
                    {"text": t.text, "start": t.char_start, "end": t.char_end, "pos": t.pos}
                    for t in s.tokens
                ],
                "opinions": [
                    {
                        "holders": _span_pairs(o.holders),
                        "targets": _span_pairs(o.targets),
                        "expressions": _span_pairs(o.expressions),
                        "polarity": o.polarity,
                    }
                    for o in s.opinions
                ],
            }
            for s in ds.sentences
        ],
    }


_N_WORD = len(WORD_TEMPLATES)


def _prev_features(prev_label: str, lower: str) -> List[str]:
    """The two templates that depend on the previous label: ``t-1`` and ``t-1w``."""
    return [f"{PREV_TEMPLATES[0]}={prev_label}", f"{PREV_TEMPLATES[1]}={prev_label}|{lower}"]


def token_features(tokens: Sequence[Token], i: int, prev_label: str) -> List[str]:
    """Feature strings for one token position (all implicit weight 1), in the
    order the perceptron adds their rows; kept as the reference that training
    and ``tag()`` are checked against."""
    values = _static_values(tokens)[i]
    static = [f"{t}={v}" for t, v in zip(STATIC_TEMPLATES, values) if v is not None]
    return static[:_N_WORD] + _prev_features(prev_label, values[1]) + static[_N_WORD:]


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


# ---------------------------------------------------------------------------
# The pinned digest runs (tests/test_pipeline_digests.py). They import only
# the standard library and the package, so another interpreter can run them.
# ---------------------------------------------------------------------------


def _with_clash(ds: Dataset, sent_id: str) -> Dataset:
    """``ds`` plus one sentence whose holder and expression share a token."""
    clash = sent(
        sent_id, ["bob", "hates", "the", "pizza"],
        opinions=[opinion(holders=[span("h", 0, 2)], targets=[span("t", 3, 4)],
                          expressions=[span("e", 1, 2)])],
    )
    return Dataset(name=ds.name, sentences=ds.sentences + (clash,))


def digest_runs(root: Path) -> List[List[str]]:
    """Write the inputs of the pinned CLI runs under ``root`` and return their
    argv lists, to run in order: ``pipeline`` with a dev split (into
    ``root/run``), ``predict --external-conll`` on the dev split's predicted
    tags (into ``root/ext``) and ``evaluate --strata --output`` on the test
    predictions (into ``root/eval``)."""
    save_dataset(_with_clash(generate_corpus(80, seed=71, name="train"), "clash-train"),
                 str(root / "train.json"))
    save_dataset(generate_corpus(30, seed=72, name="dev"), str(root / "dev.json"))
    save_dataset(_with_clash(generate_corpus(40, seed=73, name="test"), "clash-test"),
                 str(root / "test.json"))
    config = root / "config.json"
    config.write_text(json.dumps({
        "train": str(root / "train.json"),
        "dev": str(root / "dev.json"),
        "test": str(root / "test.json"),
        "output_dir": str(root / "run"),
        "upsample": True,
        "upsample_seed": 5,
        "tagger": {"kind": "PERCEPTRON", "epochs": 1, "seed": 3},
        "relation": {"kind": "LOGISTIC", "epochs": 4, "learning_rate": 0.3, "seed": 4,
                     "threshold": 0.6},
    }), encoding="utf-8")
    run = root / "run"
    (root / "eval").mkdir()
    return [
        ["pipeline", str(config)],
        ["--output-dir", str(root / "ext"), "predict", "--data", str(root / "dev.json"),
         "--external-conll", str(run / "dev_predictions.conll"),
         "--relation-model", str(run / "relation_model.json")],
        ["evaluate", "--gold", str(root / "test.json"),
         "--pred-conll", str(run / "predictions.conll"),
         "--pred-graphs", str(run / "graphs.json"),
         "--strata", "--output", str(root / "eval" / "report.json")],
    ]


def stats_digests(root: Path) -> Dict[str, str]:
    """Run ``stats`` over two generated datasets written under ``root``, as
    text and as JSON with ``--output-dir``; return the sha256 of each
    standard output (``stdout_text``, ``stdout_json``) and of ``stats.json``."""
    paths = [str(root / "first.json"), str(root / "second.json")]
    save_dataset(generate_corpus(60, seed=81, name="first"), paths[0])
    save_dataset(generate_corpus(25, seed=82, name="second"), paths[1])
    out = {}
    for key, argv in (
        ("stdout_text", ["stats"]),
        ("stdout_json", ["--format", "json", "--output-dir", str(root / "out"), "stats"]),
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv + paths)
        if code != 0:
            raise AssertionError(f"stats exited {code}")
        out[key] = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    out["stats.json"] = hashlib.sha256((root / "out" / "stats.json").read_bytes()).hexdigest()
    return out


def cli_process(argv: Sequence[str], cwd: Optional[str] = None,
                **env: str) -> subprocess.CompletedProcess:
    """Run the CLI to its end in a child process, in ``cwd`` and with ``env``
    added to the environment; its stdout and stderr are kept as bytes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sentigraph.__file__)))
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "sentigraph.cli", *argv], cwd=cwd, env=env,
                          capture_output=True)
