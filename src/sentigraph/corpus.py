"""Data model and dataset I/O for opinion extraction.

Holds the token/span/opinion containers shared by every pipeline stage,
plus the dataset-level operations: JSON (de)serialization, distribution
statistics, cross-role overlap filtering, and group up-sampling. BIO
labels and the CoNLL format live in ``span_codec``.

JSON dataset schema (one file per dataset)::

    {"name": str,
     "sentences": [
        {"id": str, "text": str,
         "tokens": [{"text": str, "start": int, "end": int, "pos": str|null}, ...],
         "opinions": [{"holders": [[s, e], ...],
                       "targets": [[s, e], ...],
                       "expressions": [[s, e], ...],
                       "polarity": str|null}, ...]}]}

Span pairs are half-open token-index ranges. Token ``start``/``end`` are
character offsets (Unicode code points) into the sentence text; a token's
range must be non-empty and in order, and ``text[start:end]`` must equal
its ``text``. An error names the sentence and the token.

``JSON_FORMAT`` states the artifact format once: every JSON file has the
bytes of ``json.dump(obj, fh, **JSON_FORMAT)`` plus a newline, and the CLI
prints reports and stats with the same arguments. ``write_json_object``
writes models, reports and stats with ``json.dump``. Datasets (one
sentence at a time) and the JSON-lines rows of ``relation`` and
``aggregator`` (as ``json.dumps(row, sort_keys=True, ensure_ascii=False)``)
are large, so they are formatted from fixed templates to the same bytes.

Every writer goes through ``replacing``: a write that fails part-way
leaves any earlier file at the target path as it was.
"""

from __future__ import annotations

import json
import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from json.encoder import encode_basestring
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ParseError, ValidationError


class Role(Enum):
    HOLDER = "HOLDER"
    TARGET = "TARGET"
    EXPRESSION = "EXPRESSION"


class OverlapPolicy(Enum):
    DROP_SENTENCE = "DROP_SENTENCE"
    PRIORITY_KEEP = "PRIORITY_KEEP"


@dataclass(frozen=True)
class Token:
    text: str
    char_start: int
    char_end: int
    pos: Optional[str] = None


@dataclass(frozen=True)
class Span:
    """Half-open token-index range with a role."""

    role: Role
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValidationError(
                f"span: invalid token range [{self.start}, {self.end})"
            )

    # Spans are hashed and sorted often, and the role's Enum.__hash__ and
    # Enum.value run in Python, so the hash leaves the role out (equal spans
    # still hash equal, whatever the string-hash seed) and sort_key reads
    # the member's stored value.
    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def sort_key(self) -> Tuple[int, int, str]:
        return (self.start, self.end, self.role._value_)


# The OpinionTuple field that holds the spans of each role.
_ROLE_FIELD = {Role.HOLDER: "holders", Role.TARGET: "targets", Role.EXPRESSION: "expressions"}
_ROLE_FIELDS = tuple(_ROLE_FIELD.values())


@dataclass(frozen=True)
class OpinionTuple:
    """One opinion: holder/target span sets anchored by expression spans.

    ``polarity`` is stored verbatim for round-trip fidelity and never
    consumed by any pipeline stage.
    """

    holders: frozenset = frozenset()
    targets: frozenset = frozenset()
    expressions: frozenset = frozenset()
    polarity: Optional[str] = None

    def __post_init__(self):
        for name in _ROLE_FIELDS:
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if not self.expressions:
            raise ValidationError("opinion tuple has no expression span")
        for role, name in _ROLE_FIELD.items():
            for span in getattr(self, name):
                if span.role is not role:
                    raise ValidationError(
                        f"opinion tuple: {name} contains a span with role {span.role.value}"
                    )

    def spans(self) -> frozenset:
        return self.holders | self.targets | self.expressions


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence and its opinions; it checks each token's range, order and text."""

    id: str
    text: str
    tokens: Tuple[Token, ...] = ()
    opinions: Tuple[OpinionTuple, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "opinions", tuple(self.opinions))
        if not self.id:
            raise ValidationError("sentence id must be non-empty")
        prev_end = 0
        for i, tok in enumerate(self.tokens):
            if not 0 <= tok.char_start < tok.char_end:
                raise ValidationError(f"sentence '{self.id}', token {i}: invalid character "
                                      f"range [{tok.char_start}, {tok.char_end})")
            if tok.char_start < prev_end:
                raise ValidationError(f"sentence '{self.id}', token {i}: starts at character "
                                      f"{tok.char_start}, before the end of the token before it")
            prev_end = tok.char_end
            covered = self.text[tok.char_start:tok.char_end]
            if covered != tok.text:
                raise ValidationError(
                    f"sentence '{self.id}', token {i}: text[{tok.char_start}:{tok.char_end}] "
                    f"is {covered!r}, not the token text {tok.text!r}"
                )
        for opinion in self.opinions:
            self.check_spans(opinion.spans())

    @classmethod
    def from_words(cls, sent_id: str, words: Sequence[str], pos: Sequence[Optional[str]],
                   opinions: Iterable[OpinionTuple] = ()) -> Sentence:
        """The sentence whose text is ``words`` joined by single spaces, with one
        token per word, tagged with the ``pos`` at the same index."""
        tokens, offset = [], 0
        for word, tag in zip(words, pos, strict=True):
            tokens.append(Token(word, offset, offset + len(word), tag))
            offset += len(word) + 1
        return cls(sent_id, " ".join(words), tokens, opinions)

    def check_spans(self, spans: Iterable[Span]) -> None:
        """Raise ``ValidationError`` for the first span that runs past the last token."""
        n = len(self.tokens)
        for span in spans:
            if span.end > n:
                raise ValidationError(
                    f"sentence '{self.id}': span [{span.start}, {span.end}) "
                    f"exceeds token count {n}"
                )

    def spans(self, role: Optional[Role] = None) -> set:
        """Distinct spans across all opinions, optionally filtered by role."""
        fields = _ROLE_FIELDS if role is None else (_ROLE_FIELD[role],)
        out = set()
        for opinion in self.opinions:
            for name in fields:
                out |= getattr(opinion, name)
        return out

    def distinct_role_count(self) -> int:
        return len({s.role for s in self.spans()})


@dataclass(frozen=True)
class Dataset:
    name: str
    sentences: Tuple[Sentence, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))
        seen = set()
        for s in self.sentences:
            if s.id in seen:
                raise ValidationError(f"duplicate sentence id '{s.id}' in dataset")
            seen.add(s.id)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def by_id(self) -> dict:
        return {s.id: s for s in self.sentences}

    def predictions(self, path: str, rows: Iterable[Tuple[str, Sequence[str], object]],
                    required: Iterable[Sentence] = ()) -> dict:
        """By id, the value of each (sentence id, token texts, value) row of predictions
        file ``path``. Raise ``ValidationError``, naming ``path``, for a repeated or unknown
        id, token texts not the sentence's, or a sentence of ``required`` that no row gives."""
        sentences, values = self.by_id(), {}
        for sent_id, texts, value in rows:
            if sent_id in values:
                raise ValidationError(f"{path}: duplicate sentence id '{sent_id}'")
            if sent_id not in sentences:
                raise ValidationError(f"{path}: unknown sentence id '{sent_id}'")
            tokens = sentences[sent_id].tokens
            if len(texts) != len(tokens):
                raise ValidationError(f"{path}: sentence '{sent_id}': dataset has {len(tokens)} "
                                      f"tokens but predictions file has {len(texts)}")
            for i, (tok, text) in enumerate(zip(tokens, texts)):
                if tok.text != text:
                    raise ValidationError(f"{path}: sentence '{sent_id}', token {i}: dataset "
                                          f"has {tok.text!r} but predictions file has {text!r}")
            values[sent_id] = value
        for sentence in required:
            if sentence.id not in values:
                raise ValidationError(f"{path}: missing sentence '{sentence.id}'")
        return values


def compute_stats(sentences: Iterable[Sentence]) -> dict:
    """The stats report row of some sentences (a ``Dataset`` iterates over its own).

    Keys, in the report's column order: ``total_sentence``; then
    ``<role>_count``, ``<role>_max_count`` and ``<role>_avg_count`` for the
    roles ``source``, ``target`` and ``exp``; then ``label_group_counts``,
    which maps the number of distinct roles present in a sentence (``"0"`` to
    ``"3"``) to the number of such sentences. Averages are rounded to two
    decimals, and are 0.0 when there are no sentences. A span duplicated
    across several opinions of one sentence (same role, same range) is
    counted once.
    """
    total = 0
    counts = {role: 0 for role in Role}
    maxima = {role: 0 for role in Role}
    groups = [0, 0, 0, 0]
    for sentence in sentences:
        total += 1
        for role in Role:
            n = len(sentence.spans(role))
            counts[role] += n
            maxima[role] = max(maxima[role], n)
        groups[sentence.distinct_role_count()] += 1
    row = {"total_sentence": total}
    for role, name in ((Role.HOLDER, "source"), (Role.TARGET, "target"), (Role.EXPRESSION, "exp")):
        row[f"{name}_count"] = counts[role]
        row[f"{name}_max_count"] = maxima[role]
        row[f"{name}_avg_count"] = round(counts[role] / total, 2) if total else 0.0
    row["label_group_counts"] = {str(k): v for k, v in enumerate(groups)}
    return row


# ---------------------------------------------------------------------------
# Overlap filtering and up-sampling
# ---------------------------------------------------------------------------


def token_roles(sentence: Sentence) -> List[Optional[Role]]:
    """Each token's role, None where no span lies. Walking the spans in ``Span.sort_key``
    order, raise ``ValidationError`` at the first token a span of another role holds."""
    roles: List[Optional[Role]] = [None] * len(sentence.tokens)
    for span in sorted(sentence.spans(), key=Span.sort_key):
        for i in range(span.start, span.end):
            if roles[i] is not None and roles[i] is not span.role:
                raise ValidationError(f"sentence '{sentence.id}': cross-role overlap at token "
                                      f"{i} ({roles[i].value} vs {span.role.value})")
            roles[i] = span.role
    return roles


def filter_overlapping(
    ds: Dataset, policy: OverlapPolicy = OverlapPolicy.DROP_SENTENCE
) -> Tuple[Dataset, List[str]]:
    """Resolve cross-role token overlaps.

    DROP_SENTENCE removes every sentence in which spans of two different
    roles share a token. PRIORITY_KEEP instead truncates the lower-priority
    span (priority EXPRESSION > TARGET > HOLDER); a span swallowed whole is
    dropped, and a span split in the middle keeps its longest remaining
    piece. Returns the filtered dataset and the ids of affected sentences.
    """
    kept: List[Sentence] = []
    report: List[str] = []
    for sentence in ds.sentences:
        try:
            token_roles(sentence)
        except ValidationError:
            report.append(sentence.id)
            if policy is OverlapPolicy.PRIORITY_KEEP:
                kept.append(_truncate_sentence(sentence))
        else:
            kept.append(sentence)
    return Dataset(name=ds.name, sentences=tuple(kept)), report


def _truncate_sentence(sentence: Sentence) -> Sentence:
    blocked = set()  # tokens of the kept spans of the roles truncated so far

    def truncate(span: Span) -> Optional[Span]:
        """The longest run of unblocked tokens in ``span`` (leftmost on ties), or None."""
        best_start, best_len = span.start, 0
        run_start = span.start
        for i in range(span.start, span.end + 1):
            if i == span.end or i in blocked:
                if i - run_start > best_len:
                    best_start, best_len = run_start, i - run_start
                run_start = i + 1
        return Span(span.role, best_start, best_start + best_len) if best_len else None

    kept = {}  # span -> its truncated span, or None
    for role in (Role.EXPRESSION, Role.TARGET, Role.HOLDER):
        new = {span: truncate(span) for span in sentence.spans(role)}
        for span in filter(None, new.values()):
            blocked.update(range(span.start, span.end))
        kept.update(new)
    return replace(sentence, opinions=tuple(
        replace(o, holders={kept[h] for h in o.holders} - {None},
                targets={kept[t] for t in o.targets} - {None})
        for o in sentence.opinions))


def upsample(ds: Dataset, seed: int) -> Dataset:
    """Balance distinct-role groups by duplicating sentences with replacement.

    Sentences are grouped by how many distinct role categories they contain
    (0-3); every smaller group is padded up to the largest group's size by
    seeded sampling with replacement. Originals are always retained and
    duplicates get derived ids (``origid#k``).
    """
    if not ds.sentences:
        raise ValidationError("cannot up-sample an empty dataset")
    groups: dict = {}
    for sentence in ds.sentences:
        groups.setdefault(sentence.distinct_role_count(), []).append(sentence)
    target_size = max(len(g) for g in groups.values())
    rng = random.Random(seed)
    used_ids = {s.id for s in ds.sentences}
    # The last k given to each original: the search for a free id resumes
    # there, since restarting at 1 takes time quadratic in its duplicates.
    dup_counter: dict = {}
    duplicates: List[Sentence] = []
    for key in sorted(groups):
        group = groups[key]
        for _ in range(target_size - len(group)):
            original = rng.choice(group)
            k = dup_counter.get(original.id, 0) + 1
            while f"{original.id}#{k}" in used_ids:
                k += 1
            dup_counter[original.id] = k
            new_id = f"{original.id}#{k}"
            used_ids.add(new_id)
            duplicates.append(replace(original, id=new_id))
    return Dataset(name=ds.name, sentences=tuple(ds.sentences) + tuple(duplicates))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _require(record: dict, key: str, where: str):
    if key not in record:
        raise ParseError(f"{where}: missing key '{key}'")
    return record[key]


def _parse_span_list(pairs, role: Role, where: str) -> List[Span]:
    if not isinstance(pairs, list):
        raise ParseError(f"{where}: expected a list of [start, end] pairs")
    spans = []
    for pair in pairs:
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and type(pair[0]) is int
            and type(pair[1]) is int
        ):
            raise ParseError(f"{where}: malformed span pair {pair!r}")
        spans.append(Span(role, pair[0], pair[1]))
    return spans


def _parse_tokens(records: list, where: str) -> List[Token]:
    tokens = []
    for j, tok in enumerate(records):
        if not isinstance(tok, dict):
            raise ParseError(f"{where}, token {j}: expected an object")
        try:
            t_text, t_start, t_end = tok["text"], tok["start"], tok["end"]
        except KeyError:
            missing = next(key for key in ("text", "start", "end") if key not in tok)
            raise ParseError(f"{where}, token {j}: missing key '{missing}'") from None
        t_pos = tok.get("pos")
        if not isinstance(t_text, str):
            raise ParseError(f"{where}, token {j}: 'text' must be a string")
        if type(t_start) is not int or type(t_end) is not int:
            raise ParseError(f"{where}, token {j}: 'start'/'end' must be integers")
        if t_pos is not None and not isinstance(t_pos, str):
            raise ParseError(f"{where}, token {j}: 'pos' must be a string or null")
        tokens.append(Token(t_text, t_start, t_end, t_pos))
    return tokens


def _parse_opinion(op, sent_id: str, where: str) -> OpinionTuple:
    if not isinstance(op, dict):
        raise ParseError(f"{where}: expected an object")
    polarity = op.get("polarity")
    if polarity is not None and not isinstance(polarity, str):
        raise ParseError(f"{where}: 'polarity' must be a string or null")
    try:
        return OpinionTuple(
            holders=_parse_span_list(op.get("holders", []), Role.HOLDER, where),
            targets=_parse_span_list(op.get("targets", []), Role.TARGET, where),
            expressions=_parse_span_list(
                _require(op, "expressions", where), Role.EXPRESSION, where
            ),
            polarity=polarity,
        )
    except ValidationError as err:
        raise ValidationError(f"sentence '{sent_id}': {err}") from err


def _parse_sentence(record, where: str) -> Sentence:
    if not isinstance(record, dict):
        raise ParseError(f"{where}: expected an object")
    sent_id = _require(record, "id", where)
    if isinstance(sent_id, str) and sent_id:
        where = f"{where} (id='{sent_id}')"
    text = _require(record, "text", where)
    token_records = _require(record, "tokens", where)
    opinion_records = record.get("opinions", [])
    if not isinstance(sent_id, str) or not isinstance(text, str):
        raise ParseError(f"{where}: 'id' and 'text' must be strings")
    if not isinstance(token_records, list) or not isinstance(opinion_records, list):
        raise ParseError(f"{where}: 'tokens' and 'opinions' must be lists")
    tokens = _parse_tokens(token_records, where)
    opinions = [
        _parse_opinion(op, sent_id, f"{where}, opinion {j}")
        for j, op in enumerate(opinion_records)
    ]
    return Sentence(id=sent_id, text=text, tokens=tokens, opinions=opinions)


def dataset_from_dict(obj: dict, source: str = "<memory>") -> Dataset:
    """The dataset of a parsed JSON file. Malformed records raise
    ``ParseError`` and violated invariants ``ValidationError``; both name
    ``source``."""
    if not isinstance(obj, dict):
        raise ParseError(f"{source}: top-level value must be an object")
    name = _require(obj, "name", source)
    records = _require(obj, "sentences", source)
    if not isinstance(name, str):
        raise ParseError(f"{source}: 'name' must be a string")
    if not isinstance(records, list):
        raise ParseError(f"{source}: 'sentences' must be a list")
    try:
        sentences = [
            _parse_sentence(record, f"{source}: sentence record {i}")
            for i, record in enumerate(records)
        ]
        return Dataset(name=name, sentences=tuple(sentences))
    except ValidationError as err:
        raise ValidationError(f"{source}: {err}") from err


# ---------------------------------------------------------------------------
# File writes
# ---------------------------------------------------------------------------


@contextmanager
def replacing(path: str) -> Iterator[IO[str]]:
    """Write a new UTF-8 text file, created as a plain ``open`` creates it,
    under a temporary name beside ``path``, and move it onto ``path`` when
    the block ends. On an error the temporary file is deleted instead, so an
    earlier file at ``path`` keeps its bytes; a character that UTF-8 cannot
    encode (a lone surrogate) raises ``ValidationError``."""
    directory, name = os.path.split(path)
    temp = os.path.join(directory, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        fh = open(temp, "x", encoding="utf-8")
    except OSError as err:  # name the target, not the temporary file
        err.filename = path
        raise
    try:
        with fh:
            yield fh
        os.replace(temp, path)
    except BaseException as err:
        os.remove(temp)
        if isinstance(err, UnicodeEncodeError):
            bad = err.object[err.start:err.end]
            raise ValidationError(f"{path}: cannot write {bad!r} as UTF-8") from err
        raise


# ---------------------------------------------------------------------------
# Load / save entry points
# ---------------------------------------------------------------------------


def read_json_object(path: str) -> dict:
    """Parse a JSON file whose top-level value must be an object.

    Every failure, from reading the file to the type of its top-level
    value, raises ``ParseError`` with the path (and line, if known).
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise ParseError(f"{path}: cannot read: {err}") from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: line {err.lineno}: {err.msg}") from err
    except ValueError as err:  # bytes that are not UTF-8, over-long integers
        raise ParseError(f"{path}: {err}") from err
    except RecursionError as err:
        raise ParseError(f"{path}: values nested too deeply") from err
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return obj


# The arguments of ``json.dump`` that give every JSON artifact its bytes.
JSON_FORMAT = {"indent": 2, "sort_keys": True, "ensure_ascii": False}


def write_json_object(path: str, obj) -> None:
    """Write ``obj`` as ``json.dump(obj, fh, **JSON_FORMAT)`` writes it,
    plus a final newline; models, reports and stats are written this way."""
    with replacing(path) as fh:
        json.dump(obj, fh, **JSON_FORMAT)
        fh.write("\n")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


# The JSON text of a scalar, by exact type.
_LEAF_TEXT = {
    str: encode_basestring,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def json_scalar(value) -> str:
    """The JSON text of a ``str``, ``int``, ``float``, ``bool`` or ``None``
    (by exact type; any other type raises ``KeyError``), as
    ``write_json_object`` and ``json.dumps`` write it."""
    return _LEAF_TEXT[type(value)](value)


def load_dataset(path: str) -> Dataset:
    """Load a JSON dataset file; every invariant is validated on the way in."""
    return dataset_from_dict(read_json_object(path), source=path)


def _json_list(items: List[str], indent: str) -> str:
    """The JSON list of encoded ``items`` as ``write_json_object`` indents it
    on a line that starts with ``indent``."""
    if not items:
        return "[]"
    inner = "\n  " + indent
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _span_list_json(spans: Iterable[Span]) -> str:
    return _json_list([f"[\n              {s.start},\n              {s.end}\n            ]"
                       for s in sorted(spans, key=Span.sort_key)], "          ")


def _sentence_json(s: Sentence) -> str:
    """One item of a dataset file's ``sentences`` list, keys in sorted order."""
    opinions = [
        f'{{\n          "expressions": {_span_list_json(o.expressions)},'
        f'\n          "holders": {_span_list_json(o.holders)},'
        f'\n          "polarity": {json_scalar(o.polarity)},'
        f'\n          "targets": {_span_list_json(o.targets)}\n        }}'
        for o in s.opinions
    ]
    tokens = [
        f'{{\n          "end": {t.char_end},\n          "pos": {json_scalar(t.pos)},'
        f'\n          "start": {t.char_start},'
        f'\n          "text": {encode_basestring(t.text)}\n        }}'
        for t in s.tokens
    ]
    return (f'{{\n      "id": {encode_basestring(s.id)},'
            f'\n      "opinions": {_json_list(opinions, "      ")},'
            f'\n      "text": {encode_basestring(s.text)},'
            f'\n      "tokens": {_json_list(tokens, "      ")}\n    }}')


def save_dataset(ds: Dataset, path: str) -> None:
    """Write a JSON dataset file; JSON keeps everything a ``Dataset`` holds.
    The bytes are those of ``write_json_object`` of the schema's dict (span
    pairs in ``Span.sort_key`` order), written one sentence at a time."""
    with replacing(path) as fh:
        fh.write(f'{{\n  "name": {encode_basestring(ds.name)},\n  "sentences": ')
        sep = "["
        for sentence in ds.sentences:
            fh.write(f"{sep}\n    {_sentence_json(sentence)}")
            sep = ","
        fh.write("\n  ]\n}\n" if ds.sentences else "[]\n}\n")
