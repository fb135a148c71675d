"""The allow-list of ``tests/reach.py`` names real lines, each for a reason.

``reach.py`` itself traces all of tier-1, so it runs as a CI step of its own.
"""

import json

import reach


def test_every_allow_list_anchor_is_the_text_of_one_line():
    entries = json.loads(reach.ALLOW.read_text(encoding="utf-8"))
    allowed = reach.allowed_lines()  # raises unless each anchor is on exactly one line
    assert len(allowed) == len(entries) <= 5  # and no two entries share a line
    assert all(reason.strip() for reason in allowed.values())
