"""The strict read rule of every JSON file the package reads: each field of
meta.json and of decoder.json's classifier and pca sections must have the
JSON type it was written with, and no file may hold NaN, Infinity or a
number that overflows."""

import contextlib
import copy
import hashlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mi_decode.classify import lda_fit
from mi_decode.cli import main
from mi_decode.dsp import PreprocessParams
from mi_decode.errors import MalformedMeta
from mi_decode.evaluate import (
    DECODER_META_NAME,
    PCA_PAYLOAD_NAME,
    Decoder,
    FeatureConfig,
    FeaturePipeline,
    load_decoder,
    save_decoder,
)
from mi_decode.features import pca_fit
from mi_decode.session import (
    META_NAME,
    EventKind,
    EventMarker,
    Recording,
    Sensor,
    SessionKind,
    SessionMeta,
    load_session,
    save_session,
)
from mi_decode.store import json_setting, read_json

from test_settings_schema import DERANDOMIZED, JSON_VALUES

# the JSON types a value of each Python type stands for when it is read back
ACCEPTED = {bool: {"bool"}, int: {"int"}, float: {"int", "float"}, str: {"str"},
            dict: {"object"}}


def refused(written):
    """JSON values that must not stand for a field written as ``written``;
    a list must hold items of its first item's type."""
    if isinstance(written, list):
        bad_items = st.lists(refused(written[0]), min_size=1, max_size=3)
        return st.one_of([s for name, s in JSON_VALUES.items() if name != "list"] + [bad_items])
    accepted = ACCEPTED[type(written)]
    return st.one_of([s for name, s in JSON_VALUES.items() if name not in accepted])


def _session(path):
    rng = np.random.default_rng(4701)
    rec = Recording(
        samples=rng.standard_normal((64, 3)).astype(np.float32),
        fs=128.0,
        channel_labels=("c3", "cz", "c4"),
        events=(EventMarker(8, EventKind.CueLeft, 0), EventMarker(40, EventKind.CueRight, 1)),
    )
    meta = SessionMeta("s01", Sensor.Gel, SessionKind.Offline, 2)
    save_session(rec, meta, path)
    return load_session, META_NAME, ()


def _decoder(path):
    """A psd+pca decoder with k=3, fit to random rows, saved to path."""
    rng = np.random.default_rng(4702)
    pca = pca_fit(rng.standard_normal((12, 5)), 3)
    clf = lda_fit(rng.standard_normal((20, 3)), np.arange(20) % 2)
    pipeline = FeaturePipeline(FeatureConfig(mode="psd+pca", k=3), pca)
    save_decoder(Decoder(PreprocessParams(), pipeline, clf, provenance={}), path)


def _pca(path):
    _decoder(path)
    return load_decoder, DECODER_META_NAME, ("pca",)


def _classifier(path):
    _decoder(path)
    return load_decoder, DECODER_META_NAME, ("classifier",)


def _fields(doc):
    """(key path, written value) of every field, and of the first event's."""
    out = [((key,), value) for key, value in sorted(doc.items())]
    for key, value in sorted(doc.get("events", [{}])[0].items()):
        out.append((("events", 0, key), value))
    return out


def _get(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _set(doc, keys, value):
    edited = copy.deepcopy(doc)
    _get(edited, keys[:-1])[keys[-1]] = value
    return edited


@pytest.mark.parametrize("write", [_session, _pca, _classifier], ids=lambda f: f.__name__[1:])
def test_every_field_of_wrong_type_is_refused(write, tmp_path):
    load, name, section = write(tmp_path)  # section: the key path of the checked object
    path = tmp_path / name
    doc = json.loads(path.read_text(encoding="utf-8"))
    fields = [(section + keys, written) for keys, written in _fields(_get(doc, section))]
    assert len(fields) >= 3

    @DERANDOMIZED
    @given(data=st.data())
    def check(data):
        keys, written = data.draw(st.sampled_from(fields))
        value = data.draw(refused(written))
        path.write_text(json.dumps(_set(doc, keys, value)), encoding="utf-8")
        with pytest.raises(MalformedMeta):
            load(tmp_path)

    for keys, written in fields:  # and each field at least once: a list of it
        path.write_text(json.dumps(_set(doc, keys, [written])), encoding="utf-8")
        with pytest.raises(MalformedMeta):
            load(tmp_path)
    check()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_read_json_refuses_non_finite_numbers(tmp_path, token):
    path = tmp_path / "doc.json"
    path.write_text('{"a": [1.5, %s]}' % token, encoding="utf-8")
    with pytest.raises(MalformedMeta, match="not finite"):
        read_json(path)


def test_pca_payload_with_a_non_finite_component_is_refused(tmp_path):
    _decoder(tmp_path)
    payload, meta = tmp_path / PCA_PAYLOAD_NAME, tmp_path / DECODER_META_NAME
    values = np.frombuffer(payload.read_bytes(), dtype="<f8").copy()
    doc = json.loads(meta.read_text(encoding="utf-8"))
    for bad in (np.nan, np.inf):
        values[2] = bad
        payload.write_bytes(values.tobytes())
        # decoder.json names the poisoned payload, so only the value check is left
        doc["pca"]["sha256"] = hashlib.sha256(values.tobytes()).hexdigest()
        meta.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(MalformedMeta, match="NaN or Inf"):
            load_decoder(tmp_path)


def test_json_setting_list_items_follow_the_first_item():
    assert json_setting([1, 2.5], [0.0], "x") == [1.0, 2.5]
    assert json_setting([["a"], []], [[""]], "x") == [["a"], []]
    for value, default in [([True], [0.0]), ([[1.0], 2.0], [[0.0]]), (["a", 1], [""]),
                           ([10**400], [0.0])]:
        with pytest.raises(MalformedMeta):
            json_setting(value, default, "x")


# --- the CLI: one error line for each poisoned file -------------------------


@pytest.fixture(scope="module")
def cli_dirs(small_decoder, small_online, tmp_path_factory):
    root = tmp_path_factory.mktemp("poison")
    save_decoder(small_decoder, root / "decoder")
    save_session(small_online.recording, small_online.meta, root / "session")
    return root


POISON = "@@poison@@"

# (file, key path, JSON text put there); the tokens go in as raw JSON text
NON_FINITE = [
    (f, keys, token)
    for f, keys in [
        ("session/meta.json", ("fs",)),
        ("decoder/decoder.json", ("pca", "mean", 0)),
        ("decoder/decoder.json", ("pca", "explained_variance_ratio", 0)),
        ("decoder/decoder.json", ("classifier", "weights", 0)),
        ("decoder/decoder.json", ("classifier", "bias")),
        ("decoder/decoder.json", ("preprocess", "low_hz")),
        ("config", ("theta",)),
    ]
    for token in ["NaN", "Infinity", "-Infinity", "1e999"]
]
# the poisoned files that loaded, and were used, before the strict read rule
WRONG_TYPE = [
    ("decoder/decoder.json", ("features", "k"), "8.9"),
    ("session/meta.json", ("events", 0, "sample_index"), "1024.7"),
    ("session/meta.json", ("fs",), '"512"'),
    ("session/meta.json", ("n_runs",), "true"),
]


@pytest.mark.parametrize(
    "name,keys,token",
    [pytest.param(*case, id=f"{case[0]}:{'.'.join(map(str, case[1]))}={case[2]}")
     for case in NON_FINITE + WRONG_TYPE],
)
def test_poisoned_file_exits_1_with_one_error_line(cli_dirs, tmp_path, name, keys, token):
    for d in ("decoder", "session"):
        shutil.copytree(cli_dirs / d, tmp_path / d)
    argv = ["eval-samples", "--decoder", str(tmp_path / "decoder"),
            "--session", str(tmp_path / "session")]
    if name == "config":
        path, doc = tmp_path / "cfg.json", {}
        argv += ["--config", str(path)]
    else:
        path = tmp_path / name
        doc = json.loads(path.read_text(encoding="utf-8"))
    text = json.dumps(_set(doc, keys, POISON), indent=2, sort_keys=True)
    path.write_text(text.replace(json.dumps(POISON), token), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    lines = err.getvalue().splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error: MalformedMeta: "), lines

