"""The settings table: the README documents every key, in order, every
built-in default survives the trip through ``resolved.ini``, and any INI
text is read or refused as a ``ConfigError``."""
from __future__ import annotations

import pathlib
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from modwatch import config as C
from modwatch.errors import ConfigError

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_sections() -> dict[str, list[str]]:
    text = README.read_text()
    block = text[text.index("## Configuration"):]
    block = block[block.index("```ini\n") + len("```ini\n"):]
    block = block[:block.index("```")]
    sections: dict[str, list[str]] = {}
    for line in block.splitlines():
        match = re.match(r"\[(\w+)\]", line)
        if match:
            keys = sections[match.group(1)] = []
            line = line[match.end():]
        keys.extend(k.strip() for k in line.split(",") if k.strip())
    return sections


def test_readme_lists_every_setting_in_order():
    table = [(section, list(keys)) for section, keys in C.SETTINGS.items()]
    assert list(_readme_sections().items()) == table


def test_every_default_round_trips_through_its_parser():
    for section, keys in C.SETTINGS.items():
        for key, default in keys.items():
            text = C.format_value(default)
            value = C.parse_value(section, key, text)
            assert value == default and type(value) is type(default), (section, key, text)


def test_every_flag_names_a_setting():
    named = [s for settings in C.FLAGS.values() for s in settings]
    for setting in [*named, *C.FLAG_NAMES, *C.CHOICES]:
        section, key = setting.split(".")
        assert key in C.SETTINGS[section], setting
    assert set(C.FLAG_NAMES) | set(C.CHOICES) <= set(named)
    for setting, choices in C.CHOICES.items():
        section, key = setting.split(".")
        assert C.SETTINGS[section][key] in choices, setting


def test_resolved_config_holds_a_percent_as_written(tmp_path):
    # no setting interpolates, so a value is written and read back verbatim
    path = tmp_path / "resolved.ini"
    C.write_resolved_config(path, {"eval": {"mode": "50%(x)s %"}})
    assert C.load_config_file(path) == {"eval": {"mode": "50%(x)s %"}}


# pieces that reach every branch of the reader: real sections and keys,
# headers, separators, interpolation syntax, comments and odd bytes
_SECTIONS = st.sampled_from([*C.SETTINGS, "DEFAULT", "nope", ""])
_KEYS = st.sampled_from([k for keys in C.SETTINGS.values() for k in keys] + ["typo", ""])
_TEXT = st.text(st.sampled_from("0123456789.,-+eE%()s[]=:;# \tnaif\r\xe9"), max_size=12)
_LINE = st.one_of(
    st.builds(lambda s: f"[{s}]", _SECTIONS),
    st.builds(lambda k, sep, v: f"{k}{sep}{v}", _KEYS, st.sampled_from([" = ", ":", "="]), _TEXT),
    _TEXT,
)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_LINE, max_size=8), tail=st.binary(max_size=3))
def test_random_ini_is_read_or_refused_with_exit_2(tmp_path_factory, lines, tail):
    path = tmp_path_factory.mktemp("ini") / "fuzz.ini"
    path.write_bytes("\n".join(lines).encode("utf-8") + tail)
    try:
        loaded = C.load_config_file(path)
        for section in loaded:
            C.resolve_section(loaded, section)
    except ConfigError:  # exit code 2
        pass
