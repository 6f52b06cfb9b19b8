import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ROLES, love_school, opinion, random_overlap_free_sentence, reference_encode,
                     sent, span)
from sentigraph import (BIO_LABELS, Dataset, Role, Span, ValidationError, decode, encode,
                        filter_overlapping)


def test_encode_love_school():
    assert encode(love_school()) == ("B-HOLDER", "B-EXP", "B-TARG")


def test_encode_no_opinions_all_o():
    assert encode(sent("s", ["a", "b", "c"])) == ("O", "O", "O")


def test_encode_unions_overlapping_same_role():
    # expressions [1,3) and [2,4) merge to [1,4)
    s = sent(
        "u", ["w0", "w1", "w2", "w3", "w4"],
        opinions=[
            opinion(expressions=[span("e", 1, 3)]),
            opinion(expressions=[span("e", 2, 4)]),
        ],
    )
    assert encode(s) == ("O", "B-EXP", "I-EXP", "I-EXP", "O")


def test_encode_unions_adjacent_same_role():
    s = sent(
        "adj", ["w0", "w1", "w2"],
        opinions=[
            opinion(expressions=[span("e", 0, 1)]),
            opinion(expressions=[span("e", 1, 3)]),
        ],
    )
    assert encode(s) == ("B-EXP", "I-EXP", "I-EXP")


def test_encode_multi_token_span():
    s = sent(
        "m", ["the", "front", "desk", "shone"],
        opinions=[opinion(targets=[span("t", 1, 3)], expressions=[span("e", 3, 4)])],
    )
    assert encode(s) == ("O", "B-TARG", "I-TARG", "B-EXP")


def test_encode_cross_role_overlap_names_token_and_roles():
    s = sent(
        "x", ["w0", "w1", "w2"],
        opinions=[opinion(targets=[span("t", 0, 2)], expressions=[span("e", 1, 3)])],
    )
    with pytest.raises(ValidationError) as err:
        encode(s)
    message = str(err.value)
    assert "token 1" in message
    assert "TARGET" in message and "EXPRESSION" in message


# Each layout's exact error: the first token, in span sort order, that a
# span of another role already holds.
@pytest.mark.parametrize(
    "opinions, message",
    [
        (  # an expression nested inside a target
            [opinion(targets=[span("t", 0, 4)], expressions=[span("e", 1, 2)])],
            "cross-role overlap at token 1 (TARGET vs EXPRESSION)",
        ),
        (  # same start: the shorter span sorts first
            [opinion(holders=[span("h", 1, 3)], targets=[span("t", 1, 2)],
                     expressions=[span("e", 5, 6)])],
            "cross-role overlap at token 1 (TARGET vs HOLDER)",
        ),
        (  # identical ranges: the role name breaks the tie
            [opinion(holders=[span("h", 2, 3)], targets=[span("t", 2, 3)],
                     expressions=[span("e", 5, 6)])],
            "cross-role overlap at token 2 (HOLDER vs TARGET)",
        ),
        (  # touching expressions merge to [0, 4), which a target then overlaps
            [opinion(targets=[span("t", 3, 5)], expressions=[span("e", 0, 2)]),
             opinion(expressions=[span("e", 2, 4)])],
            "cross-role overlap at token 3 (EXPRESSION vs TARGET)",
        ),
        (  # overlapping holders merge to [0, 3), which a target then overlaps
            [opinion(holders=[span("h", 0, 2), span("h", 1, 3)], targets=[span("t", 2, 4)],
                     expressions=[span("e", 6, 7)])],
            "cross-role overlap at token 2 (HOLDER vs TARGET)",
        ),
        (  # three roles in a chain: the first collision is reported
            [opinion(holders=[span("h", 0, 3)], targets=[span("t", 2, 5)],
                     expressions=[span("e", 4, 6)])],
            "cross-role overlap at token 2 (HOLDER vs TARGET)",
        ),
        (  # touching spans of different roles are fine; a later overlap is not
            [opinion(holders=[span("h", 0, 1)], targets=[span("t", 1, 2)],
                     expressions=[span("e", 2, 4), span("e", 6, 7)]),
             opinion(targets=[span("t", 5, 7)], expressions=[span("e", 2, 4)])],
            "cross-role overlap at token 6 (TARGET vs EXPRESSION)",
        ),
        (  # touching targets hold token 3 before the expression that starts there
            [opinion(targets=[span("t", 3, 4), span("t", 4, 6)], expressions=[span("e", 3, 5)])],
            "cross-role overlap at token 3 (TARGET vs EXPRESSION)",
        ),
    ],
)
def test_encode_cross_role_overlap_exact_message(opinions, message):
    s = sent("x", [f"w{i}" for i in range(7)], opinions=opinions)
    with pytest.raises(ValidationError) as err:
        encode(s)
    assert str(err.value) == f"sentence 'x': {message}"


def test_decode_simple_run():
    assert decode(["B-TARG", "I-TARG", "O"]) == {span("t", 0, 2)}


def test_decode_repairs_orphan_inside():
    assert decode(["O", "I-EXP", "I-EXP"]) == {span("e", 1, 3)}


def test_decode_repairs_role_switch():
    assert decode(["B-TARG", "I-EXP"]) == {span("t", 0, 1), span("e", 1, 2)}


def test_decode_b_after_b_splits():
    assert decode(["B-TARG", "B-TARG"]) == {span("t", 0, 1), span("t", 1, 2)}


def test_decode_rejects_unknown_label():
    with pytest.raises(ValidationError):
        decode(["B-THING"])


def test_decode_names_the_position_of_an_unknown_label():
    with pytest.raises(ValidationError, match="position 0"):
        decode(["B-THING"])
    with pytest.raises(ValidationError, match="position 2: unknown BIO label 'X'"):
        decode(["B-EXP", "I-EXP", "X"])


def test_round_trip_on_random_sentences():
    rng = random.Random(99)
    for k in range(300):
        s = random_overlap_free_sentence(rng, f"s{k}")
        assert decode(encode(s)) == s.spans()


def _random_layout(rng, sent_id):
    """A sentence of up to 8 tokens with up to 5 spans of any role, which may
    overlap or touch; one opinion holds them, so at least one is an expression."""
    n = rng.randint(1, 8)
    spans = []
    for _ in range(rng.randint(0, 5)):
        start = rng.randrange(n)
        spans.append(Span(rng.choice(ROLES), start, rng.randint(start + 1, n)))
    if spans and not any(s.role is Role.EXPRESSION for s in spans):
        spans[0] = Span(Role.EXPRESSION, spans[0].start, spans[0].end)
    by_role = {role: [s for s in spans if s.role is role] for role in ROLES}
    opinions = [opinion(*by_role.values())] if spans else []
    return sent(sent_id, [f"w{i}" for i in range(n)], opinions=opinions)


def _labels_or_refusal(encoder, sentence):
    """The labels, or the refusal's message up to the roles that ``encode`` names."""
    try:
        return encoder(sentence)
    except ValidationError as err:
        return str(err).split(" (")[0]


def test_encode_equals_the_union_reference_on_random_layouts():
    # Labels agree where no roles overlap; elsewhere both refuse at the same
    # sentence and token (the roles named may come in another order), and
    # the overlap filter affects exactly the sentences the reference refuses.
    rng = random.Random(25)
    layouts = [_random_layout(rng, f"s{k}") for k in range(3000)]
    refused = set()
    for s in layouts:
        expected = _labels_or_refusal(reference_encode, s)
        assert _labels_or_refusal(encode, s) == expected, s
        if isinstance(expected, str):
            assert expected.startswith(f"sentence '{s.id}': cross-role overlap at token ")
            refused.add(s.id)
    assert 300 < len(refused) < 2700
    _, affected = filter_overlapping(Dataset("layouts", layouts))
    assert set(affected) == refused


_SUFFIX_ROLE = {"HOLDER": Role.HOLDER, "TARG": Role.TARGET, "EXP": Role.EXPRESSION}


def reference_decode(labels):
    """decode written as a role-tracking scan, kept as an independent
    reference: a B- label, an O or a change of role closes the open span,
    and any label but O opens one when none is open."""
    spans = set()
    open_role = None
    open_start = 0
    for i, label in enumerate(labels):
        role = None if label == "O" else _SUFFIX_ROLE[label.split("-", 1)[1]]
        starts = label.startswith("B-")
        if open_role is not None and (role is not open_role or starts or role is None):
            spans.add(Span(open_role, open_start, i))
            open_role = None
        if role is not None and open_role is None:
            open_role, open_start = role, i
    if open_role is not None:
        spans.add(Span(open_role, open_start, len(labels)))
    return spans


def test_decode_equals_reference_on_every_short_sequence():
    sequences = [seq for n in range(5) for seq in itertools.product(BIO_LABELS, repeat=n)]
    assert len(sequences) == 2801
    for labels in sequences:
        assert decode(labels) == reference_decode(labels), labels


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(BIO_LABELS), min_size=0, max_size=15))
def test_decode_total_over_alphabet(labels):
    spans = decode(labels)
    for sp in spans:
        assert 0 <= sp.start < sp.end <= len(labels)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(BIO_LABELS), min_size=1, max_size=15))
def test_repair_idempotence(labels):
    # encoding the spans decoded from any sequence yields well-formed BIO
    spans = decode(labels)
    if not spans:
        return
    expressions = {s for s in spans if s.role is Role.EXPRESSION}
    # tuples need an expression anchor; park a synthetic one past the
    # decoded spans when the sequence had none (no expression exists, so
    # no same-role union or overlap can result)
    if not expressions:
        expressions = {span("e", len(labels), len(labels) + 1)}
    s = sent(
        "re",
        [f"w{i}" for i in range(len(labels) + 1)],
        opinions=[
            opinion(
                holders={x for x in spans if x.role is Role.HOLDER},
                targets={x for x in spans if x.role is Role.TARGET},
                expressions=expressions,
            )
        ],
    )
    labels2 = encode(s)
    for i, label in enumerate(labels2):
        if label.startswith("I-"):
            assert labels2[i - 1] in (f"B{label[1:]}", label)
