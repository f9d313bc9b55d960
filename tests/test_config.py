"""The settings table: the README documents every key, in order, and every
built-in default survives the trip through ``resolved.ini``."""
from __future__ import annotations

import pathlib
import re

from modwatch import config as C

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
