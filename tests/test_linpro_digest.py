"""linpro's exact outputs on 203 fixed instances match ``golden/linpro_digest.json``.

See ``linpro_digest`` for what each entry holds and how to regenerate it.
"""

import json

import pytest

import linpro_digest

GOLDEN = json.loads(linpro_digest.GOLDEN.read_text())
CASES = linpro_digest.cases()


def test_golden_names_every_case():
    assert list(GOLDEN) == [name for name, _ in CASES]


@pytest.mark.parametrize("name, inst", CASES, ids=[name for name, _ in CASES])
def test_linpro_outputs_match_the_golden_digest(name, inst):
    assert linpro_digest.digest(inst) == GOLDEN[name]
