"""Every output in the golden manifest matches its recorded sha256.

A failure names the output that changed. Re-record only on purpose, with
`PYTHONPATH=src python tests/golden.py --record`, and say which entries
moved and why.
"""

import pytest

from golden import digest, load_manifest, outputs


def test_the_manifest_lists_every_output():
    assert sorted(load_manifest()) == sorted(outputs())


@pytest.mark.parametrize("name", sorted(outputs()))
def test_output_matches_its_recorded_digest(name):
    assert digest(name) == load_manifest()[name]
