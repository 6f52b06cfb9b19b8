import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import love_school, opinion, random_dataset, sent, span
from sentigraph import (
    CodecError,
    Dataset,
    OpinionTuple,
    OverlapPolicy,
    ParseError,
    Role,
    Sentence,
    Span,
    Token,
    ValidationError,
    compute_stats,
    filter_overlapping,
    load_conll,
    load_dataset,
    save_conll,
    save_dataset,
    upsample,
)
from sentigraph.corpus import dataset_from_dict, dataset_to_dict
from sentigraph.span_codec import read_conll_blocks, write_conll


# ---------------------------------------------------------------------------
# Type invariants
# ---------------------------------------------------------------------------


def test_token_rejects_inverted_range():
    with pytest.raises(ValidationError):
        Token(text="x", char_start=3, char_end=3)


def test_span_rejects_empty_range():
    with pytest.raises(ValidationError):
        Span(Role.TARGET, 2, 2)


def test_opinion_requires_expression():
    with pytest.raises(ValidationError):
        OpinionTuple(holders=[span("h", 0, 1)])


def test_opinion_rejects_role_mismatch():
    with pytest.raises(ValidationError) as err:
        OpinionTuple(holders=[span("t", 0, 1)], expressions=[span("e", 1, 2)])
    assert "holders" in str(err.value)


def test_sentence_rejects_out_of_range_span():
    with pytest.raises(ValidationError) as err:
        sent("s9", ["a", "b"], opinions=[opinion(expressions=[span("e", 1, 3)])])
    assert "s9" in str(err.value)


def test_sentence_rejects_overlapping_tokens():
    with pytest.raises(ValidationError):
        Sentence(
            id="s1",
            text="ab",
            tokens=[Token("ab", 0, 2), Token("b", 1, 2)],
        )


def test_dataset_rejects_duplicate_ids():
    s = sent("dup", ["a"])
    with pytest.raises(ValidationError) as err:
        Dataset(name="d", sentences=[s, s])
    assert "dup" in str(err.value)


# ---------------------------------------------------------------------------
# JSON load/save
# ---------------------------------------------------------------------------


def _two_sentence_payload():
    return {
        "name": "fixture",
        "sentences": [
            {
                "id": "a",
                "text": "I love school",
                "tokens": [
                    {"text": "I", "start": 0, "end": 1, "pos": "PRON"},
                    {"text": "love", "start": 2, "end": 6, "pos": "VERB"},
                    {"text": "school", "start": 7, "end": 13, "pos": "NOUN"},
                ],
                "opinions": [
                    {
                        "holders": [[0, 1]],
                        "targets": [[2, 3]],
                        "expressions": [[1, 2]],
                        "polarity": "positive",
                    }
                ],
            },
            {
                "id": "b",
                "text": "fine",
                "tokens": [{"text": "fine", "start": 0, "end": 4, "pos": None}],
                "opinions": [],
            },
        ],
    }


def test_load_two_sentence_json(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_two_sentence_payload()), encoding="utf-8")
    ds = load_dataset(str(path))
    assert len(ds) == 2
    assert ds.sentences[0].opinions[0].polarity == "positive"
    assert ds.sentences[0].spans(Role.TARGET) == {span("t", 2, 3)}


def test_load_json_span_out_of_range_names_sentence(tmp_path):
    payload = _two_sentence_payload()
    payload["sentences"][0]["opinions"][0]["expressions"] = [[1, 9]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_dataset(str(path))
    assert "'a'" in str(err.value)


@pytest.mark.parametrize(
    "token",
    [{"text": "schoolhouse", "start": 7, "end": 999}, {"text": "house", "start": 7, "end": 13}],
    ids=["end_past_text", "text_differs"],
)
def test_load_json_token_must_match_its_offsets(tmp_path, token):
    payload = _two_sentence_payload()
    payload["sentences"][0]["tokens"][2].update(token)
    path = tmp_path / "offsets.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_dataset(str(path))
    assert "sentence 'a', token 2" in str(err.value)


def test_load_json_malformed_has_locator(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "sentences": [}', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_dataset(str(path))
    assert "line 2" in str(err.value)


def test_load_json_missing_key_names_record(tmp_path):
    payload = _two_sentence_payload()
    del payload["sentences"][1]["tokens"]
    path = tmp_path / "nokey.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_dataset(str(path))
    assert "tokens" in str(err.value) and "id='b'" in str(err.value)


@pytest.mark.parametrize(
    "content",
    [
        b'{"name": "\xff", "sentences": []}',
        b'{"name": "x", "sentences": [], "n": 1' + b"0" * 5000 + b"}",
    ],
    ids=["not_utf8", "integer_too_long"],
)
def test_load_json_undecodable_is_parse_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ParseError) as err:
        load_dataset(str(path))
    assert str(path) in str(err.value)


def test_load_missing_file_is_input_error(tmp_path):
    with pytest.raises(ParseError):
        load_dataset(str(tmp_path / "nope.json"))


def test_json_round_trip_identity(tmp_path):
    ds = Dataset(name="rt", sentences=[love_school(), sent("empty", ["ok"])])
    path = tmp_path / "rt.json"
    save_dataset(ds, str(path))
    assert load_dataset(str(path)) == ds


def test_empty_dataset_round_trip(tmp_path):
    ds = Dataset(name="void")
    json_path = tmp_path / "void.json"
    save_dataset(ds, str(json_path))
    assert load_dataset(str(json_path)) == ds
    conll_path = tmp_path / "void.conll"
    save_conll(ds, str(conll_path))
    assert len(load_conll(str(conll_path))) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_json_round_trip_property(seed, n):
    ds = random_dataset(random.Random(seed), n)
    assert dataset_from_dict(dataset_to_dict(ds)) == ds


def test_ingestion_totality_on_mangled_input(tmp_path):
    # loading never crashes with anything but a typed input error
    from sentigraph import InputError

    base = json.dumps(_two_sentence_payload())
    rng = random.Random(0)
    mutants = [
        "",
        "[]",
        "42",
        '{"name": 3, "sentences": []}',
        '{"name": "x"}',
        '{"name": "x", "sentences": [{}]}',
        '{"name": "x", "sentences": [{"id": "", "text": "", "tokens": [], "opinions": []}]}',
        '{"name": "x", "sentences": [{"id": "a", "text": "t", "tokens": [{"text": "t", "start": 0, "end": 0}], "opinions": []}]}',
        '{"name": "x", "sentences": [{"id": "a", "text": "t", "tokens": [], "opinions": [{"expressions": [[0, 1, 2]]}]}]}',
    ]
    for _ in range(40):
        pos = rng.randrange(len(base))
        mutants.append(base[:pos] + rng.choice('{}[],:"x0') + base[pos + 1:])
    path = tmp_path / "mangled.json"
    for k, payload in enumerate(mutants):
        path.write_text(payload, encoding="utf-8")
        try:
            load_dataset(str(path))
        except InputError:
            pass


# ---------------------------------------------------------------------------
# CoNLL load/save
# ---------------------------------------------------------------------------


def test_conll_round_trip_preserves_spans(tmp_path):
    ds = Dataset(name="c", sentences=[love_school(), sent("noop", ["quiet", "day"])])
    path = tmp_path / "c.conll"
    save_conll(ds, str(path))
    back = load_conll(str(path))
    assert [s.id for s in back] == ["s-love", "noop"]
    for original, loaded in zip(ds.sentences, back.sentences):
        assert loaded.spans() == original.spans()
        assert [t.text for t in loaded.tokens] == [t.text for t in original.tokens]
        assert [t.pos for t in loaded.tokens] == [t.pos for t in original.tokens]


def test_conll_text_layout(tmp_path):
    path = tmp_path / "one.conll"
    save_conll(Dataset(name="one", sentences=[love_school()]), str(path))
    assert path.read_text(encoding="utf-8") == (
        "# sent_id = s-love\n"
        "1\tI\tPRON\tB-HOLDER\n"
        "2\tlove\tVERB\tB-EXP\n"
        "3\tschool\tNOUN\tB-TARG\n"
        "\n"
    )


def _overlapping_sentence():
    # target [2,5) and expression [4,6) share token 4
    return sent(
        "clash",
        ["w0", "w1", "w2", "w3", "w4", "w5"],
        opinions=[opinion(targets=[span("t", 2, 5)], expressions=[span("e", 4, 6)])],
    )


def test_conll_save_overlap_errors_without_policy(tmp_path):
    ds = Dataset(name="x", sentences=[_overlapping_sentence()])
    with pytest.raises(CodecError):
        save_conll(ds, str(tmp_path / "x.conll"))


def test_conll_load_entity_without_expression_rejected(tmp_path):
    path = tmp_path / "h.conll"
    path.write_text("# sent_id = lonely\n1\the\t_\tB-HOLDER\n\n", encoding="utf-8")
    with pytest.raises(ValidationError) as err:
        load_conll(str(path))
    assert f"{path}: sentence 'lonely'" in str(err.value)


def test_conll_load_bad_label_has_line_number(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("# sent_id = s\n1\tword\t_\tB-WRONG\n\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_conll(str(path))
    assert ":2:" in str(err.value)


# Mostly the characters a CoNLL line treats specially: whitespace of every
# kind, the column and line breaks, and the POS placeholder.
_conll_strings = st.text(
    st.one_of(st.sampled_from(" \t\r\n\x0b\x0c\x1c\x85\xa0\u2028_#="), st.characters()),
    min_size=1, max_size=5,
)


def _encodes_as_utf8(value):
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(_conll_strings, st.lists(st.tuples(_conll_strings, st.none() | _conll_strings),
                                       max_size=3)),
    max_size=3, unique_by=lambda block: block[0],
))
def test_write_conll_writes_only_what_reads_back(tmp_path_factory, blocks):
    sentences = [sent(sent_id, [text for text, _ in rows], pos=[pos for _, pos in rows])
                 for sent_id, rows in blocks]
    path = str(tmp_path_factory.mktemp("conll") / "out.conll")
    fields = [s.id for s in sentences] + [
        value for s in sentences for t in s.tokens for value in (t.text, t.pos or "")]
    writable = (not any(c in value for value in fields for c in "\t\n\r")
                and all(s.id == s.id.strip() for s in sentences)
                and all(_encodes_as_utf8(value) for value in fields))
    try:
        write_conll(path, [(s, ["O"] * len(s.tokens)) for s in sentences])
    except ValidationError:
        assert not writable
        return
    assert writable
    assert read_conll_blocks(path) == [
        (s.id, [(t.text, None if t.pos == "_" else t.pos, "O") for t in s.tokens])
        for s in sentences
    ]


@pytest.mark.parametrize("sentence, named", [
    (sent("x ", ["a"]), "'x '"),
    (sent(" x", ["a"]), "' x'"),
    (sent("a\rb", ["a"]), "'a\\rb'"),
    (sent("s", ["a\rb"]), "'a\\rb'"),
    (sent("s", ["a"], pos=["N\rN"]), "token 0"),
])
def test_write_conll_rejects_what_does_not_read_back(tmp_path, sentence, named):
    path = tmp_path / "x.conll"
    with pytest.raises(ValidationError) as err:
        save_conll(Dataset(name="x", sentences=[sentence]), str(path))
    assert named in str(err.value)
    assert not path.exists()


# ---------------------------------------------------------------------------
# compute_stats
# ---------------------------------------------------------------------------


def test_stats_synthetic_target_counts():
    # sentence A: 1 target; sentence B: 3 targets
    # target_count 4, target_max 3, target_avg round(4/2, 2) = 2.0
    a = sent(
        "a", ["w0", "w1", "w2"],
        opinions=[opinion(targets=[span("t", 0, 1)], expressions=[span("e", 2, 3)])],
    )
    b = sent(
        "b", ["w0", "w1", "w2", "w3", "w4", "w5", "w6"],
        opinions=[
            opinion(
                targets=[span("t", 0, 1), span("t", 2, 3), span("t", 4, 5)],
                expressions=[span("e", 6, 7)],
            )
        ],
    )
    stats = compute_stats(Dataset(name="d", sentences=[a, b]))
    assert stats["target_count"] == 4
    assert stats["target_max_count"] == 3
    assert stats["target_avg_count"] == 2.0
    assert stats["source_count"] == 0
    assert stats["label_group_counts"] == {"0": 0, "1": 0, "2": 2, "3": 0}


def test_stats_empty_dataset():
    stats = compute_stats(Dataset(name="void"))
    assert stats["total_sentence"] == 0
    assert stats["source_count"] == 0 and stats["source_avg_count"] == 0.0
    assert sum(stats["label_group_counts"].values()) == 0


def test_stats_duplicate_span_counted_once():
    # the same expression span appears in two tuples; it counts once
    shared = span("e", 1, 2)
    s = sent(
        "shared", ["w0", "w1", "w2", "w3"],
        opinions=[
            opinion(targets=[span("t", 0, 1)], expressions=[shared]),
            opinion(targets=[span("t", 3, 4)], expressions=[shared]),
        ],
    )
    stats = compute_stats(Dataset(name="d", sentences=[s]))
    assert stats["exp_count"] == 1
    assert stats["target_count"] == 2


def test_stats_avg_consistency_on_random_data():
    for seed in range(10):
        ds = random_dataset(random.Random(seed), 25)
        stats = compute_stats(ds)
        for role in ("source", "target", "exp"):
            assert stats[f"{role}_avg_count"] == round(stats[f"{role}_count"] / len(ds), 2)
        assert sum(stats["label_group_counts"].values()) == len(ds)


# ---------------------------------------------------------------------------
# filter_overlapping
# ---------------------------------------------------------------------------


def test_filter_drop_removes_overlapping_sentence():
    ds = Dataset(name="d", sentences=[_overlapping_sentence(), love_school()])
    filtered, report = filter_overlapping(ds, OverlapPolicy.DROP_SENTENCE)
    assert [s.id for s in filtered] == ["s-love"]
    assert report == ["clash"]


def test_filter_no_overlap_is_identity():
    ds = Dataset(name="d", sentences=[love_school()])
    filtered, report = filter_overlapping(ds, OverlapPolicy.DROP_SENTENCE)
    assert filtered == ds
    assert report == []


def test_filter_priority_keep_truncates_target():
    # target [2,5) loses token 4 to expression [4,6) -> [2,4)
    ds = Dataset(name="d", sentences=[_overlapping_sentence()])
    filtered, report = filter_overlapping(ds, OverlapPolicy.PRIORITY_KEEP)
    assert report == ["clash"]
    s = filtered.sentences[0]
    assert s.spans(Role.TARGET) == {span("t", 2, 4)}
    assert s.spans(Role.EXPRESSION) == {span("e", 4, 6)}


def test_filter_priority_keep_holder_yields_to_target():
    # holder [0,3) overlaps target [1,2): target keeps [1,2); the holder's
    # remaining runs [0,1) and [2,3) tie on length, leftmost wins -> [0,1)
    s = sent(
        "h", ["w0", "w1", "w2", "w3", "w4"],
        opinions=[
            opinion(
                holders=[span("h", 0, 3)],
                targets=[span("t", 1, 2)],
                expressions=[span("e", 4, 5)],
            )
        ],
    )
    filtered, _ = filter_overlapping(Dataset(name="d", sentences=[s]), OverlapPolicy.PRIORITY_KEEP)
    got = filtered.sentences[0]
    assert got.spans(Role.HOLDER) == {span("h", 0, 1)}
    assert got.spans(Role.TARGET) == {span("t", 1, 2)}


def test_filter_priority_keep_drops_swallowed_span():
    s = sent(
        "gone", ["w0", "w1"],
        opinions=[opinion(targets=[span("t", 0, 1)], expressions=[span("e", 0, 2)])],
    )
    filtered, report = filter_overlapping(Dataset(name="d", sentences=[s]), OverlapPolicy.PRIORITY_KEEP)
    got = filtered.sentences[0]
    assert got.spans(Role.TARGET) == set()
    assert got.spans(Role.EXPRESSION) == {span("e", 0, 2)}
    assert report == ["gone"]


def _cross_role_collision(sentence):
    seen = {}
    for sp in sentence.spans():
        for i in range(sp.start, sp.end):
            if i in seen and seen[i] is not sp.role:
                return True
            seen[i] = sp.role
    return False


@pytest.mark.parametrize("policy", [OverlapPolicy.DROP_SENTENCE, OverlapPolicy.PRIORITY_KEEP])
def test_filter_output_has_no_collisions(policy):
    rng = random.Random(7)
    for trial in range(40):
        # random spans with deliberate overlaps
        n = rng.randint(2, 10)
        spans = []
        for _ in range(rng.randint(0, 5)):
            start = rng.randrange(n)
            end = min(n, start + rng.randint(1, 3))
            spans.append(Span(rng.choice(list(Role)), start, end))
        expressions = [s for s in spans if s.role is Role.EXPRESSION]
        if not expressions:
            continue
        s = sent(
            f"x{trial}", [f"w{i}" for i in range(n)],
            opinions=[
                opinion(
                    holders=[s2 for s2 in spans if s2.role is Role.HOLDER],
                    targets=[s2 for s2 in spans if s2.role is Role.TARGET],
                    expressions=expressions,
                )
            ],
        )
        filtered, _ = filter_overlapping(Dataset(name="d", sentences=[s]), policy)
        for out in filtered.sentences:
            assert not _cross_role_collision(out)


def _brute_truncate(sp, blocked):
    """The longest range inside ``sp`` free of ``blocked`` tokens, leftmost
    on ties, found by trying every sub-range; None if every token is blocked."""
    free = [
        (a, b)
        for a in range(sp.start, sp.end)
        for b in range(a + 1, sp.end + 1)
        if not blocked & set(range(a, b))
    ]
    if not free:
        return None
    a, b = max(free, key=lambda r: (r[1] - r[0], -r[0]))
    return Span(sp.role, a, b)


def _brute_priority_keep(sentence):
    """PRIORITY_KEEP written from its definition: targets yield to
    expressions, then holders yield to expressions and the kept targets."""
    def tokens(spans):
        return {i for sp in spans for i in range(sp.start, sp.end)}

    blocked = tokens(sentence.spans(Role.EXPRESSION))
    targets = {t: _brute_truncate(t, blocked) for t in sentence.spans(Role.TARGET)}
    blocked |= tokens(t for t in targets.values() if t is not None)
    holders = {h: _brute_truncate(h, blocked) for h in sentence.spans(Role.HOLDER)}
    opinions = [
        OpinionTuple(
            holders={holders[h] for h in o.holders} - {None},
            targets={targets[t] for t in o.targets} - {None},
            expressions=o.expressions,
            polarity=o.polarity,
        )
        for o in sentence.opinions
    ]
    return replace(sentence, opinions=tuple(opinions))


@st.composite
def _overlapping_sentences(draw):
    n = draw(st.integers(1, 9))

    def spans(role, least):
        starts = draw(st.lists(st.integers(0, n - 1), min_size=least, max_size=3))
        return [Span(role, s, min(n, s + draw(st.integers(1, 5)))) for s in starts]

    opinions = [
        OpinionTuple(
            holders=spans(Role.HOLDER, 0),
            targets=spans(Role.TARGET, 0),
            expressions=spans(Role.EXPRESSION, 1),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    return [f"w{i}" for i in range(n)], opinions


@settings(max_examples=300, deadline=None)
@given(st.lists(_overlapping_sentences(), min_size=1, max_size=4))
def test_filter_priority_keep_matches_brute_force(drawn):
    sentences = [sent(f"s{k}", words, opinions=ops) for k, (words, ops) in enumerate(drawn)]
    filtered, report = filter_overlapping(
        Dataset(name="d", sentences=sentences), OverlapPolicy.PRIORITY_KEEP
    )
    affected = [s.id for s in sentences if _cross_role_collision(s)]
    assert report == affected
    expected = [_brute_priority_keep(s) if s.id in affected else s for s in sentences]
    assert filtered.sentences == tuple(expected)


# ---------------------------------------------------------------------------
# upsample
# ---------------------------------------------------------------------------


def _group_fixture():
    # group 0 (no roles): 4 sentences; group 3 (all roles): 2 sentences
    plain = [sent(f"p{i}", ["just", "words"]) for i in range(4)]
    full = [
        sent(
            f"f{i}", ["he", "loved", "it"],
            opinions=[
                opinion(
                    holders=[span("h", 0, 1)],
                    targets=[span("t", 2, 3)],
                    expressions=[span("e", 1, 2)],
                )
            ],
        )
        for i in range(2)
    ]
    return Dataset(name="groups", sentences=plain + full)


def test_upsample_balances_groups():
    out = upsample(_group_fixture(), seed=5)
    assert len(out) == 8
    groups = {}
    for s in out.sentences:
        groups.setdefault(s.distinct_role_count(), []).append(s)
    assert len(groups[0]) == 4 and len(groups[3]) == 4
    # originals retained, duplicates get derived ids
    original_ids = {f"p{i}" for i in range(4)} | {f"f{i}" for i in range(2)}
    assert original_ids <= {s.id for s in out.sentences}
    for s in out.sentences:
        if s.id not in original_ids:
            assert "#" in s.id and s.id.rsplit("#", 1)[0] in original_ids


def test_upsample_balanced_input_unchanged():
    ds = Dataset(name="b", sentences=[sent("a", ["x"]), sent("b", ["y"])])
    assert upsample(ds, seed=1) == ds


def test_upsample_deterministic():
    ds = _group_fixture()
    first = dataset_to_dict(upsample(ds, seed=42))
    second = dataset_to_dict(upsample(ds, seed=42))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_upsample_empty_errors():
    with pytest.raises(ValidationError):
        upsample(Dataset(name="void"), seed=0)


def test_upsample_skips_taken_duplicate_ids():
    # "a" is the only sentence of its group, so all three duplicates copy it;
    # the input already holds "a#1" (and, below, "a#2"), so numbering skips them.
    plain = [sent(sid, ["just", "words"]) for sid in ("a#1", "p1", "p2", "p3")]
    full = sent("a", ["he", "loved", "it"], opinions=[
        opinion(holders=[span("h", 0, 1)], targets=[span("t", 2, 3)],
                expressions=[span("e", 1, 2)])
    ])
    out = upsample(Dataset(name="taken", sentences=plain + [full]), seed=9)
    assert [s.id for s in out.sentences[5:]] == ["a#2", "a#3", "a#4"]

    plain[0] = sent("a#2", ["just", "words"])
    out = upsample(Dataset(name="gap", sentences=plain + [full]), seed=9)
    assert [s.id for s in out.sentences[5:]] == ["a#1", "a#3", "a#4"]
