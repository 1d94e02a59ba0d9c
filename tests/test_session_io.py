"""Session directory round trips and CSV import."""

import json

import numpy as np
import pytest

from mi_decode.errors import (
    LengthMismatch,
    MalformedMeta,
    MissingFile,
    NonNumericCell,
    RaggedRows,
    UnknownEventCode,
    UnsortedEvents,
)
from mi_decode.session import (
    META_NAME,
    SAMPLES_NAME,
    EventKind,
    EventMarker,
    Recording,
    Sensor,
    SessionKind,
    SessionMeta,
    import_csv,
    load_session,
    save_session,
)

SEED = 4001


def _recording(n=64, c=3, events=(), fs=128.0, seed=SEED):
    rng = np.random.default_rng(seed)
    # Round-trip storage is float32; start from values that survive it exactly.
    samples = rng.standard_normal((n, c)).astype(np.float32).astype(np.float64)
    labels = tuple(f"ch{i}" for i in range(c))
    return Recording(samples=samples, fs=fs, channel_labels=labels, events=tuple(events))


def _meta(n_runs=1, kind=SessionKind.Offline):
    return SessionMeta(
        subject="s01",
        sensor=Sensor.Gel,
        session_kind=kind,
        n_runs=n_runs,
    )


def _events():
    return (
        EventMarker(4, EventKind.TrialStart, 0),
        EventMarker(8, EventKind.CueLeft, 0),
        EventMarker(16, EventKind.FeedbackStart, 0),
        EventMarker(40, EventKind.FeedbackEnd, 0),
        EventMarker(50, EventKind.CueRight, 1),
    )


def test_roundtrip_is_exact(tmp_path):
    rec = _recording(events=_events())
    meta = _meta(n_runs=2)
    save_session(rec, meta, tmp_path / "sess")
    loaded = load_session(tmp_path / "sess")
    assert np.array_equal(loaded.recording.samples, rec.samples)
    assert loaded.recording.fs == rec.fs
    assert loaded.recording.channel_labels == rec.channel_labels
    assert loaded.recording.events == rec.events
    assert loaded.meta == meta


def test_roundtrip_twice_bytes_identical(tmp_path):
    rec = _recording(events=_events())
    meta = _meta(n_runs=2)
    save_session(rec, meta, tmp_path / "a")
    sess = load_session(tmp_path / "a")
    save_session(sess.recording, sess.meta, tmp_path / "b")
    for name in (META_NAME, SAMPLES_NAME):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_missing_directory(tmp_path):
    with pytest.raises(MissingFile):
        load_session(tmp_path / "nope")


@pytest.mark.parametrize("name", [META_NAME, SAMPLES_NAME])
def test_missing_one_file(tmp_path, name):
    rec = _recording()
    save_session(rec, _meta(), tmp_path / "sess")
    (tmp_path / "sess" / name).unlink()
    with pytest.raises(MissingFile):
        load_session(tmp_path / "sess")


def test_truncated_payload(tmp_path):
    rec = _recording()
    save_session(rec, _meta(), tmp_path / "sess")
    payload = tmp_path / "sess" / SAMPLES_NAME
    payload.write_bytes(payload.read_bytes()[:-4])
    with pytest.raises(LengthMismatch):
        load_session(tmp_path / "sess")


def test_malformed_json(tmp_path):
    rec = _recording()
    save_session(rec, _meta(), tmp_path / "sess")
    (tmp_path / "sess" / META_NAME).write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedMeta):
        load_session(tmp_path / "sess")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.pop("fs"),
        lambda doc: doc.update(sensor="wet"),
        lambda doc: doc.update(session_kind="offline999"),
        lambda doc: doc["events"][0].update(kind="NotAKind"),
        lambda doc: doc.update(fs=float("nan")),
        lambda doc: doc.update(fs=float("inf")),
    ],
)
def test_bad_meta_fields(tmp_path, mutate):
    rec = _recording(events=_events())
    save_session(rec, _meta(n_runs=2), tmp_path / "sess")
    meta_path = tmp_path / "sess" / META_NAME
    doc = json.loads(meta_path.read_text(encoding="utf-8"))
    mutate(doc)
    meta_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedMeta):
        load_session(tmp_path / "sess")


def test_event_run_out_of_range(tmp_path):
    rec = _recording(events=(EventMarker(8, EventKind.CueLeft, 3),))
    save_session(rec, _meta(n_runs=2), tmp_path / "sess")
    with pytest.raises(MalformedMeta):
        load_session(tmp_path / "sess")


def test_unsorted_events_rejected_at_construction():
    events = (
        EventMarker(16, EventKind.CueLeft, 0),
        EventMarker(8, EventKind.FeedbackStart, 0),
    )
    with pytest.raises(UnsortedEvents):
        _recording(events=events)


def test_event_past_end_rejected():
    with pytest.raises(ValueError):
        _recording(n=64, events=(EventMarker(64, EventKind.CueLeft, 0),))


def test_samples_are_read_only():
    rec = _recording()
    with pytest.raises(ValueError):
        rec.samples[0, 0] = 1.0


@pytest.mark.parametrize("fs", [0.0, -512.0, float("nan"), float("inf")])
def test_bad_sampling_rate_rejected(fs):
    with pytest.raises(ValueError):
        _recording(fs=fs)


def test_duplicate_channel_labels_rejected():
    with pytest.raises(ValueError):
        Recording(
            samples=np.zeros((4, 2)),
            fs=10.0,
            channel_labels=("a", "a"),
            events=(),
        )


# --- CSV import -------------------------------------------------------------

CODES = {1: EventKind.CueLeft, 2: EventKind.CueRight, 3: EventKind.FeedbackStart}


def _write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_import_csv_named_event_column(tmp_path):
    path = _write_csv(
        tmp_path / "rec.csv",
        "c3,c4,trigger\n" + "0.5,-1.25,0\n" + "1.5,2.0,1\n" + "0.25,0.75,0\n",
    )
    rec = import_csv(path, fs=16.0, event_column="trigger", label_map=CODES)
    assert rec.channel_labels == ("c3", "c4")
    assert rec.samples.shape == (3, 2)
    assert rec.samples[1, 0] == 1.5
    assert rec.events == (EventMarker(1, EventKind.CueLeft, 0),)


def test_import_csv_indexed_event_column_no_header(tmp_path):
    path = _write_csv(
        tmp_path / "rec.csv",
        "0.0,3,1.0\n" + "2.0,0,4.0\n",
    )
    rec = import_csv(path, fs=16.0, event_column=1, label_map=CODES, has_header=False)
    assert rec.channel_labels == ("ch0", "ch1")
    assert np.array_equal(rec.samples, [[0.0, 1.0], [2.0, 4.0]])
    assert rec.events == (EventMarker(0, EventKind.FeedbackStart, 0),)


def test_import_csv_without_events(tmp_path):
    path = _write_csv(tmp_path / "rec.csv", "a,b\n1,2\n3,4\n")
    rec = import_csv(path, fs=8.0)
    assert rec.events == ()
    assert rec.samples.shape == (2, 2)


def test_import_csv_every_marker_on_run_zero(tmp_path):
    path = _write_csv(tmp_path / "rec.csv", "a,ev\n0,1\n0,0\n0,2\n")
    rec = import_csv(path, fs=8.0, event_column="ev", label_map=CODES)
    assert [ev.run_index for ev in rec.events] == [0, 0]


def test_import_csv_ragged_rows(tmp_path):
    path = _write_csv(tmp_path / "rec.csv", "a,b\n1,2\n3\n")
    with pytest.raises(RaggedRows):
        import_csv(path, fs=8.0)


@pytest.mark.parametrize("header,fs", [("a,b", 0.0), ("a,b", float("nan")), ("a,a", 8.0)])
def test_import_csv_refuses_what_a_recording_refuses(tmp_path, header, fs):
    path = _write_csv(tmp_path / "rec.csv", header + "\n1,2\n3,4\n")
    with pytest.raises(MalformedMeta):
        import_csv(path, fs=fs)


def test_import_csv_empty(tmp_path):
    path = _write_csv(tmp_path / "rec.csv", "a,b\n")
    with pytest.raises(RaggedRows):
        import_csv(path, fs=8.0)


def test_import_csv_non_numeric(tmp_path):
    path = _write_csv(tmp_path / "rec.csv", "a,b\n1,oops\n")
    with pytest.raises(NonNumericCell):
        import_csv(path, fs=8.0)


def test_import_csv_unknown_code(tmp_path):
    path = _write_csv(tmp_path / "rec.csv", "a,ev\n1,9\n")
    with pytest.raises(UnknownEventCode):
        import_csv(path, fs=8.0, event_column="ev", label_map=CODES)


def test_import_csv_bad_column_name(tmp_path):
    path = _write_csv(tmp_path / "rec.csv", "a,b\n1,2\n")
    with pytest.raises(MalformedMeta):
        import_csv(path, fs=8.0, event_column="nope", label_map=CODES)


def test_import_csv_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        import_csv(tmp_path / "absent.csv", fs=8.0)
