"""Property tests over the settings table (``cli.SETTINGS``): one JSON type
rule at both boundaries, --config files and decoder.json, and flags that
resolve exactly as the config keys they stand for."""

import contextlib
import copy
import io
import json
import shutil
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mi_decode.cli import SETTINGS, _resolve, build_parser, main
from mi_decode.dsp import PreprocessParams
from mi_decode.errors import MalformedMeta
from mi_decode.evaluate import DECODER_META_NAME, FeatureConfig, load_decoder, save_decoder
from mi_decode.features import WelchSpec

# a fixed profile: every run draws the same examples, and none is stored
DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=25)

JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(),  # NaN and Infinity too, which json reads back
    "str": st.text(max_size=6),
    "list": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
# the JSON types that stand for a setting, by the type of its default
ACCEPTED = {bool: {"bool"}, int: {"int"}, float: {"int", "float"}, str: {"str"},
            list: {"list"}}
FINITE = st.floats(allow_nan=False, allow_infinity=False)

# the arguments each subcommand needs besides its settings
REQUIRED = {
    "generate": ("--out",),
    "import-csv": ("--csv", "--out"),
    "train": ("--session", "--out"),
    "pca-sweep": ("--session",),
    "repro": ("--study",),
    "eval-trials": ("--decoder", "--session"),
    "replay": ("--decoder", "--session"),
    "grid-search": ("--decoder", "--session"),
}


def base_argv(command, root):
    argv = [command]
    for flag in REQUIRED[command]:
        argv += [flag, str(root / flag.lstrip("-"))]
    return argv


def refused_values(default, choices=None, nullable=False):
    """JSON values that must not stand for a setting with this default."""
    accepted = ACCEPTED[type(default)] | ({"null"} if nullable else set())
    out = [s for name, s in JSON_VALUES.items() if name not in accepted]
    if isinstance(default, list):  # a list that holds a non-number
        bad = st.one_of(st.none(), st.booleans(), st.text(max_size=3))
        out.append(st.tuples(st.lists(FINITE, max_size=2), bad).map(lambda t: t[0] + [t[1]]))
    if choices is not None:  # the right type, but not a choice
        right = st.integers() if isinstance(default, int) else st.text(max_size=8)
        out.append(right.filter(lambda v: v not in choices))
    return st.one_of(out)


def accepted_values(setting):
    """Values a flag can spell and a config file can hold alike."""
    if setting.choices is not None:
        return st.sampled_from(setting.choices)
    if isinstance(setting.default, bool):
        # a switch that is off by default has no flag to turn it off
        return st.booleans() if setting.default else st.just(True)
    if isinstance(setting.default, list):
        return st.lists(FINITE, max_size=4)
    return FINITE if isinstance(setting.default, float) else st.integers()


def flag_argv(setting, value):
    if isinstance(value, bool):
        return [setting.flag if value else "--no-" + setting.flag[2:]]
    if isinstance(value, list):
        return [f"{setting.flag}={','.join(map(str, value))}"]
    return [f"{setting.flag}={value}"]


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.key)
def test_config_value_of_wrong_type_or_choice_exits_1(setting, tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    path = root / "cfg.json"

    @DERANDOMIZED
    @given(value=refused_values(setting.default, setting.choices))
    def check(value):
        path.write_text(json.dumps({setting.key: value}), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(base_argv(setting.commands[0], root) + ["--config", str(path)])
        lines = err.getvalue().strip().splitlines()
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error: MalformedMeta: ")

    check()


DECODER_FIELDS = (
    [("preprocess", f) for f in fields(PreprocessParams)]
    + [("features", f) for f in fields(FeatureConfig) if f.name != "welch"]
    + [("features", f) for f in fields(WelchSpec)]
)


@pytest.fixture(scope="module")
def saved_decoder(small_decoder, tmp_path_factory):
    path = tmp_path_factory.mktemp("decoder")
    save_decoder(small_decoder, path)
    return path


@pytest.mark.parametrize(
    "section,field", DECODER_FIELDS, ids=lambda x: x if isinstance(x, str) else x.name
)
def test_decoder_json_field_of_wrong_type_is_refused(
    saved_decoder, tmp_path_factory, section, field
):
    broken = tmp_path_factory.mktemp("broken")
    shutil.copytree(saved_decoder, broken, dirs_exist_ok=True)
    doc = json.loads((saved_decoder / DECODER_META_NAME).read_text(encoding="utf-8"))

    # only k may be null: modes without PCA save it so
    @DERANDOMIZED
    @given(value=refused_values(field.default, nullable=field.name == "k"))
    def check(value):
        edited = copy.deepcopy(doc)
        edited[section][field.name] = value
        (broken / DECODER_META_NAME).write_text(json.dumps(edited), encoding="utf-8")
        with pytest.raises(MalformedMeta):
            load_decoder(broken)

    check()


@pytest.mark.parametrize("setting", SETTINGS, ids=lambda s: s.key)
def test_flag_and_config_key_resolve_alike(setting, tmp_path_factory):
    root = tmp_path_factory.mktemp("resolve")
    path = root / "cfg.json"
    parser = build_parser()

    @DERANDOMIZED
    @given(value=accepted_values(setting))
    def check(value):
        path.write_text(json.dumps({setting.key: value}), encoding="utf-8")
        for command in setting.commands:
            argv = base_argv(command, root)
            by_flag = _resolve(parser.parse_args(argv + flag_argv(setting, value)))
            by_file = _resolve(parser.parse_args(argv + ["--config", str(path)]))
            assert by_flag[setting.key] == value
            assert json.dumps(by_flag, sort_keys=True) == json.dumps(by_file, sort_keys=True)

    check()
