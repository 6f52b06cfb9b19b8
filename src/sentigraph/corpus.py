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
character offsets (Unicode code points) into the sentence text, and
``text[start:end]`` must equal the token's own ``text``.

Every JSON artifact (datasets, models, reports) goes through
``write_json_object``. It streams the document to the file in bounded
chunks and writes exactly the bytes of ``json.dump(obj, fh, indent=2,
sort_keys=True, ensure_ascii=False)`` followed by a newline.

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
from typing import IO, Iterable, Iterator, List, Mapping, Optional, Tuple

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

    def __post_init__(self):
        if self.char_start < 0 or self.char_start >= self.char_end:
            raise ValidationError(
                f"token {self.text!r}: invalid character range "
                f"[{self.char_start}, {self.char_end})"
            )


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
        object.__setattr__(self, "holders", frozenset(self.holders))
        object.__setattr__(self, "targets", frozenset(self.targets))
        object.__setattr__(self, "expressions", frozenset(self.expressions))
        if not self.expressions:
            raise ValidationError("opinion tuple has no expression span")
        for field_name, spans, role in (
            ("holders", self.holders, Role.HOLDER),
            ("targets", self.targets, Role.TARGET),
            ("expressions", self.expressions, Role.EXPRESSION),
        ):
            for span in spans:
                if span.role is not role:
                    raise ValidationError(
                        f"opinion tuple: {field_name} contains a span with role "
                        f"{span.role.value}"
                    )

    def spans(self) -> frozenset:
        return self.holders | self.targets | self.expressions


# The OpinionTuple field that holds the spans of each role.
_ROLE_FIELD = {Role.HOLDER: "holders", Role.TARGET: "targets", Role.EXPRESSION: "expressions"}
_ROLE_FIELDS = tuple(_ROLE_FIELD.values())


@dataclass(frozen=True)
class Sentence:
    id: str
    text: str
    tokens: Tuple[Token, ...] = ()
    opinions: Tuple[OpinionTuple, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "opinions", tuple(self.opinions))
        if not self.id:
            raise ValidationError("sentence id must be non-empty")
        prev_end = None
        for i, tok in enumerate(self.tokens):
            if prev_end is not None and tok.char_start < prev_end:
                raise ValidationError(
                    f"sentence '{self.id}': tokens overlap or are out of order "
                    f"at character offset {tok.char_start}"
                )
            prev_end = tok.char_end
            covered = self.text[tok.char_start:tok.char_end]
            if covered != tok.text:
                raise ValidationError(
                    f"sentence '{self.id}', token {i}: text[{tok.char_start}:{tok.char_end}] "
                    f"is {covered!r}, not the token text {tok.text!r}"
                )
        for opinion in self.opinions:
            self.check_spans(opinion.spans())

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
        present = 0
        for role in Role:
            n = len(sentence.spans(role))
            counts[role] += n
            maxima[role] = max(maxima[role], n)
            if n:
                present += 1
        groups[present] += 1
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


def _has_cross_role_overlap(sentence: Sentence) -> bool:
    role_at = {}  # token index -> role of the first span seen there
    for span in sentence.spans():
        for i in range(span.start, span.end):
            if role_at.setdefault(i, span.role) is not span.role:
                return True
    return False


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
        if not _has_cross_role_overlap(sentence):
            kept.append(sentence)
            continue
        report.append(sentence.id)
        if policy is OverlapPolicy.DROP_SENTENCE:
            continue
        kept.append(_truncate_sentence(sentence))
    return Dataset(name=ds.name, sentences=tuple(kept)), report


def _truncate_sentence(sentence: Sentence) -> Sentence:
    blocked = set()  # tokens of the expressions, then also of the kept targets

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

    for span in sentence.spans(Role.EXPRESSION):
        blocked.update(range(span.start, span.end))
    target_map = {t: truncate(t) for t in sentence.spans(Role.TARGET)}
    for new in target_map.values():
        if new is not None:
            blocked.update(range(new.start, new.end))
    holder_map = {h: truncate(h) for h in sentence.spans(Role.HOLDER)}

    opinions = []
    for opinion in sentence.opinions:
        holders = {holder_map[h] for h in opinion.holders} - {None}
        targets = {target_map[t] for t in opinion.targets} - {None}
        opinions.append(
            OpinionTuple(
                holders=holders,
                targets=targets,
                expressions=opinion.expressions,
                polarity=opinion.polarity,
            )
        )
    return replace(sentence, opinions=tuple(opinions))


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


def _span_pairs(spans: Iterable[Span]) -> List[List[int]]:
    return [[s.start, s.end] for s in sorted(spans, key=Span.sort_key)]


def dataset_to_dict(ds: Dataset) -> dict:
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
        with open(path, "r", encoding="utf-8") as fh:
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


# Pieces the JSON writer buffers before it writes them out.
_WRITE_CHUNK = 1 << 12
# One compact encoder for every JSON-lines row.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def write_json_object(path: str, obj) -> None:
    """Write ``obj`` as the package's one JSON artifact format: sorted keys,
    indent 2, non-ASCII characters kept, and a final newline.

    For any JSON value built from dicts with string keys, lists, tuples and
    scalars of exact type ``str``, ``int``, ``float``, ``bool`` or ``None``,
    the bytes are those of
    ``json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False)``
    followed by a newline; anything else raises ``TypeError``. ``json.dump``
    encodes indented output in pure Python, one generator step per value;
    this encoder does less per value and writes in chunks of at most
    ``_WRITE_CHUNK`` pieces, so the document is never held whole in memory.
    """
    with replacing(path) as fh:
        parts: List[str] = []
        _encode_json(obj, "\n", parts, fh)
        parts.append("\n")
        fh.write("".join(parts))


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


def _encode_json(value, newline: str, parts: List[str], fh) -> None:
    """Append the indented JSON text of ``value`` to ``parts``, flushing full
    chunks to ``fh``; ``newline`` starts the line that holds ``value``."""
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        parts.append(leaf(value))
        return
    # An object's items are its (key, value) pairs in key order, and each
    # value follows its key.
    is_object = isinstance(value, dict)
    if is_object:
        brackets, items = "{}", sorted(value.items())
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", value
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        parts.append(brackets)
        return
    inner = newline + "  "
    comma = "," + inner
    sep = brackets[0] + inner
    for item in items:
        if is_object:
            key, item = item
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            sep = f"{sep}{encode_basestring(key)}: "
        leaf = _LEAF_TEXT.get(type(item))
        if leaf is not None:
            parts.append(sep + leaf(item))
        else:
            parts.append(sep)
            _encode_json(item, inner, parts, fh)
        sep = comma
        if len(parts) >= _WRITE_CHUNK:
            fh.write("".join(parts))
            parts.clear()
    parts.append(newline + brackets[1])


def write_json_lines(path: str, rows: Iterable[Mapping]) -> None:
    """Write one compact JSON object per line, keys sorted, non-ASCII kept."""
    with replacing(path) as fh:
        for row in rows:
            fh.write(_LINE_ENCODER.encode(row) + "\n")


def finite_number(value, what: str) -> float:
    """A JSON number as a finite float; anything else raises ``ValidationError``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def load_dataset(path: str) -> Dataset:
    """Load a JSON dataset file; every invariant is validated on the way in."""
    return dataset_from_dict(read_json_object(path), source=path)


def save_dataset(ds: Dataset, path: str) -> None:
    """Write a JSON dataset file; JSON keeps everything a ``Dataset`` holds."""
    write_json_object(path, dataset_to_dict(ds))
