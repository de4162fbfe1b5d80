"""Config fuzz: one bad leaf in a shipped config never crashes the CLI.

Each example replaces one leaf of ``configs/fig2a.json`` with a drawn
value.  ``ionotto validate`` must then either accept the config (exit
code 0) or reject it as a configuration error (exit code 2); any other
exception is a loader hole.  A config that ``validate`` accepts must
also get through a one-point closed-form ``ionotto sweep`` with exit
code 0 or 2.
"""

import json
import math
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ionotto.cli import main

BASE = json.loads(
    (Path(__file__).resolve().parent.parent / "configs" / "fig2a.json").read_text()
)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _leaf_paths(child, path + (index,))
    else:
        yield path


LEAVES = tuple(_leaf_paths(BASE))

# integers past the float range, of either sign
HUGE_INTS = st.integers(min_value=2**1024, max_value=10**400).flatmap(
    lambda n: st.sampled_from([n, -n])
)
BAD_VALUES = st.one_of(
    HUGE_INTS,
    st.sampled_from([math.inf, -math.inf, math.nan, 0, 0.0, None, True, False]),
    st.integers(max_value=-1),
    st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(leaf=st.sampled_from(LEAVES), value=BAD_VALUES)
def test_one_bad_leaf_exits_0_or_2(tmp_path, leaf, value):
    document = json.loads(json.dumps(BASE))
    parent = document
    for key in leaf[:-1]:
        parent = parent[key]
    parent[leaf[-1]] = value
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(document))
    code = main(["validate", str(path)])
    assert code in (0, 2)
    if code == 0:
        output = tmp_path / "fuzzed.csv"
        assert main(
            ["sweep", str(path), "--modes", "closed_form", "--xi-points", "1",
             "--output", str(output)]
        ) in (0, 2)
