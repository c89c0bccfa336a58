"""Helpers shared by several test modules."""

import json


def indented(line: str) -> str:
    """A tree's one-line JSON as the indented text that the golden
    constants and digests were taken from; `line` must be exactly one
    sorted line."""
    value = json.loads(line)
    assert line == json.dumps(value, sort_keys=True) + "\n"
    return json.dumps(value, sort_keys=True, indent=2) + "\n"
