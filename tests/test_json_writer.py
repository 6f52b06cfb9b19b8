"""``write_json_object`` writes the bytes of ``json.dump(indent=2, sort_keys=True,
ensure_ascii=False)`` plus a newline, and writes them in bounded chunks."""

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentigraph import corpus
from sentigraph.corpus import write_json_object

EDGE_STRINGS = ("", "é", "日本語", "\x00\x1f\x7f", '"\\/', "  ", "tab\there\nnew", "😀")
EDGE_NUMBERS = (0, -1, 2**64 + 1, -(2**100), 0.0, -0.0, 5e-324, 1e308, -1e308, 1.5,
                float("nan"), float("inf"), float("-inf"))

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63)
    | st.floats()
    | st.text()
    | st.sampled_from(EDGE_STRINGS + EDGE_NUMBERS)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(st.text() | st.sampled_from(EDGE_STRINGS), children, max_size=5),
    max_leaves=40,
)


def _expected(value) -> bytes:
    return (json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=json_values)
def test_writer_matches_json_dump(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("writer") / "out.json"
    write_json_object(str(path), value)
    assert path.read_bytes() == _expected(value)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": {}, "b": [], "c": [[]], "d": [{}]}, [[[[1]]]],
    {"é": -0.0, "z": 5e-324, "a": 1e308, "m": [2**64, -(2**70)]},
    "top-level string", 3, None, True,
])
def test_writer_edge_values(tmp_path, value):
    path = tmp_path / "out.json"
    write_json_object(str(path), value)
    assert path.read_bytes() == _expected(value)


def test_writer_rejects_what_json_cannot_encode(tmp_path):
    with pytest.raises(TypeError):
        write_json_object(str(tmp_path / "a.json"), {"a": object()})


def test_failed_write_keeps_the_earlier_file(tmp_path):
    path = tmp_path / "out.json"
    write_json_object(str(path), {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json_object(str(path), {"a": [1, 2], "b": {"c": object()}})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_writer_streams_a_large_document_in_chunks(tmp_path, monkeypatch):
    value = {"rows": [{"id": f"s{i}", "span": [i, i + 1], "score": i / 7} for i in range(20000)]}
    writes = []

    class Recorder(io.StringIO):
        def __init__(self, file):
            super().__init__()
            self.file = file

        def write(self, text):
            writes.append(len(text))
            return super().write(text)

        def close(self):
            # The writer opens a temporary file and then moves it onto ``path``.
            with open(self.file, "wb") as fh:
                fh.write(self.getvalue().encode())
            super().close()

    path = tmp_path / "big.json"
    monkeypatch.setattr(corpus, "open", lambda file, *a, **k: Recorder(file), raising=False)
    write_json_object(str(path), value)
    expected = _expected(value)
    assert path.read_bytes() == expected
    assert len(writes) > 10
    assert max(writes) < len(expected) / 10
