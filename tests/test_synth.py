from helpers import dataset_to_dict
from sentigraph import Role, encode
from sentigraph.relation import generate_instances
from sentigraph.synth import (
    EXPRESSIONS_1,
    EXPRESSIONS_2,
    FILLERS,
    HOLDERS,
    TARGETS_1,
    TARGETS_2,
    generate_corpus,
)


def _vocab(role_words, multi):
    out = set(role_words)
    for parts in multi:
        out.update(parts)
    return out


def test_role_vocabularies_disjoint():
    holders = set(HOLDERS)
    expressions = _vocab(EXPRESSIONS_1, EXPRESSIONS_2)
    targets = _vocab(TARGETS_1, TARGETS_2)
    fillers = set(FILLERS) | {"and"}
    groups = [holders, expressions, targets, fillers]
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            assert not (groups[i] & groups[j])


def test_corpus_is_deterministic():
    a = dataset_to_dict(generate_corpus(80, seed=4))
    b = dataset_to_dict(generate_corpus(80, seed=4))
    assert a == b
    c = dataset_to_dict(generate_corpus(80, seed=5))
    assert a != c


def test_corpus_encodes_cleanly():
    ds = generate_corpus(120, seed=9)
    for sentence in ds.sentences:
        labels = encode(sentence)
        assert len(labels) == len(sentence.tokens)


def test_corpus_word_role_mapping_is_functional():
    # disjoint vocabularies: a word is always labeled with the same role
    ds = generate_corpus(150, seed=2)
    word_role = {}
    for sentence in ds.sentences:
        roles = ["O"] * len(sentence.tokens)
        for sp in sentence.spans():
            for i in range(sp.start, sp.end):
                roles[i] = sp.role.value
        for tok, role in zip(sentence.tokens, roles):
            assert word_role.setdefault(tok.text, role) == role


def test_gold_relation_is_exactly_gap_at_most_two():
    ds = generate_corpus(250, seed=13)
    labels = {True: 0, False: 0}
    for sentence in ds.sentences:
        entities = sentence.spans(Role.HOLDER) | sentence.spans(Role.TARGET)
        expressions = sentence.spans(Role.EXPRESSION)
        for inst in generate_instances(sentence, entities, expressions, gold=sentence.opinions):
            first, second = sorted((inst.entity, inst.expression), key=lambda s: s.start)
            gap = second.start - first.end
            assert inst.label == (gap <= 2)
            labels[inst.label] += 1
    assert labels[True] > 20 and labels[False] > 20


def test_corpus_mixes_strata():
    ds = generate_corpus(200, seed=8)
    target_counts = [len(s.spans(Role.TARGET)) for s in ds.sentences]
    assert any(c == 0 for c in target_counts)
    assert any(c == 1 for c in target_counts)
    assert any(c >= 2 for c in target_counts)
    group_sizes = {k: 0 for k in range(4)}
    for s in ds.sentences:
        group_sizes[s.distinct_role_count()] += 1
    assert all(group_sizes[k] > 0 for k in range(4))
