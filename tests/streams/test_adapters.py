"""Tests for CSV/JSONL/row stream adapters."""

import pytest

from repro.delta.events import DELETE, delete, insert
from repro.errors import WorkloadError
from repro.streams.adapters import (
    event_from_dict,
    event_to_dict,
    events_from_csv,
    events_from_jsonl,
    events_from_rows,
    write_events_csv,
    write_events_jsonl,
)


def test_events_from_sequences():
    events = list(events_from_rows("R", [(1, "x"), (2, "y")]))
    assert [e.values for e in events] == [(1, "x"), (2, "y")]
    assert all(e.relation == "R" and e.sign == 1 for e in events)


def test_events_from_mappings_requires_columns():
    rows = [{"a": 1, "b": 2}]
    events = list(events_from_rows("R", rows, columns=("b", "a")))
    assert events[0].values == (2, 1)
    with pytest.raises(WorkloadError):
        list(events_from_rows("R", rows))


def test_events_from_rows_delete_sign():
    events = list(events_from_rows("R", [(1,)], sign=DELETE))
    assert events[0].sign == DELETE


def test_csv_round_trip(tmp_path):
    path = tmp_path / "stream.csv"
    events = [insert("R", 1, "x", 2.5), insert("S", 2, "comma, inside", 3)]
    events.append(events[0].inverted())
    count = write_events_csv(path, events)
    assert count == 3
    loaded = list(events_from_csv(path))
    assert loaded == events


def test_csv_value_types_are_restored(tmp_path):
    path = tmp_path / "stream.csv"
    write_events_csv(path, [insert("R", 7, 2.5, "text")])
    (event,) = list(events_from_csv(path))
    assert event.values == (7, 2.5, "text")
    assert isinstance(event.values[0], int) and isinstance(event.values[1], float)


def test_malformed_csv_rows_raise(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("insert\n")
    with pytest.raises(WorkloadError):
        list(events_from_csv(path))
    path.write_text("upsert,R,1\n")
    with pytest.raises(WorkloadError, match="unknown event kind"):
        list(events_from_csv(path))


def test_csv_round_trips_bools_and_none(tmp_path):
    """The old parser returned "True"/"None" strings for typed values."""
    path = tmp_path / "typed.csv"
    write_events_csv(path, [insert("R", True, False, None, 7)])
    (event,) = list(events_from_csv(path))
    assert event.values == (True, False, None, 7)
    assert isinstance(event.values[0], bool) and isinstance(event.values[1], bool)
    assert event.values[2] is None and isinstance(event.values[3], int)


def test_empty_files_yield_no_events(tmp_path):
    for name in ("empty.csv", "empty.jsonl"):
        path = tmp_path / name
        path.write_text("")
        reader = events_from_csv if name.endswith(".csv") else events_from_jsonl
        assert list(reader(path)) == []


def test_jsonl_round_trip_with_deletes_and_mixed_types(tmp_path):
    path = tmp_path / "stream.jsonl"
    events = [
        insert("R", 1, "x", 2.5, True, None),
        delete("R", 1, "x", 2.5, True, None),
        insert("S", "comma, inside", "True", "7"),  # strings stay strings
    ]
    assert write_events_jsonl(path, events) == 3
    loaded = list(events_from_jsonl(path))
    assert loaded == events
    assert [type(v) for v in loaded[0].values] == [type(v) for v in events[0].values]
    assert loaded[1].sign == DELETE
    assert loaded[2].values == ("comma, inside", "True", "7")


def test_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('{"kind":"insert","relation":"R","values":[1]}\n\n'
                    '{"kind":"delete","relation":"R","values":[1]}\n')
    assert [e.sign for e in events_from_jsonl(path)] == [1, -1]


def test_malformed_jsonl_raises_with_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind":"insert","relation":"R","values":[1]}\nnot json\n')
    with pytest.raises(WorkloadError, match="line 2"):
        list(events_from_jsonl(path))
    path.write_text('{"kind":"upsert","relation":"R","values":[1]}\n')
    with pytest.raises(WorkloadError, match="unknown event kind"):
        list(events_from_jsonl(path))
    path.write_text('{"kind":"insert","values":[1]}\n')
    with pytest.raises(WorkloadError, match="missing field"):
        list(events_from_jsonl(path))
    path.write_text('[1, 2, 3]\n')
    with pytest.raises(WorkloadError, match="expected an object"):
        list(events_from_jsonl(path))


def test_event_dict_round_trip_validates_shape():
    event = insert("R", 1, "x", None)
    assert event_from_dict(event_to_dict(event)) == event
    with pytest.raises(WorkloadError):
        event_from_dict({"kind": "insert", "relation": 7, "values": []})
    with pytest.raises(WorkloadError):
        event_from_dict({"kind": "insert", "relation": "R", "values": "oops"})
    with pytest.raises(WorkloadError):
        event_from_dict("not a mapping")


# -- the ingest request codec (wire and write-ahead log) ----------------------------


def test_ingest_request_round_trips_and_matches_the_per_event_codec():
    import json
    from fractions import Fraction

    from repro.streams.adapters import encode_ingest_request, events_from_request

    events = [insert("R", 1, 2.5, "x", None, True), delete("S", -3, "a\tb")]
    line = encode_ingest_request(events, batch_id="id-1")
    request = json.loads(line)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert request == {"op": "ingest", "batch_id": "id-1",
                       "events": [event_to_dict(e) for e in events]}
    decoded = events_from_request(request, line)
    assert decoded == [event_from_dict(p) for p in request["events"]] == events
    assert "batch_id" not in json.loads(encode_ingest_request(events))

    rational = [insert("R", Fraction(1, 3), Fraction(4, 2), 7)]
    line = encode_ingest_request(rational)
    (event,) = events_from_request(json.loads(line), line)
    assert event == rational[0]
    assert [type(v) for v in event.values] == [Fraction, Fraction, int]
    # Tags are looked for only when the line holds the tag bytes at all.
    (untouched,) = events_from_request(json.loads(line), b"{}")
    assert untouched.values[0] == {"__fraction__": [1, 3]}


def test_ingest_request_decoder_names_the_offending_event():
    from repro.streams.adapters import events_from_request

    good = event_to_dict(insert("R", 1))
    for bad, message in [
        ({"kind": "upsert", "relation": "R", "values": []}, r"events\[2\]: unknown event kind"),
        ({"kind": "insert", "values": []}, r"events\[2\]: missing field 'relation'"),
        ({"kind": "insert", "relation": 7, "values": []}, r"events\[2\]: malformed"),
        ({"kind": "insert", "relation": "R", "values": "oops"}, r"events\[2\]: malformed"),
        (["insert", "R"], r"events\[2\]: expected an object"),
    ]:
        with pytest.raises(WorkloadError, match=message):
            events_from_request({"events": [good, good, bad]}, b"")
    assert events_from_request({}, b"") == []
