"""Config fuzz: one bad leaf in a shipped config never crashes the CLI.

Each example replaces one leaf of ``configs/fig2a.json`` with a drawn
value.  ``ionotto validate`` must then either accept the config (exit
code 0) or reject it as a configuration error (exit code 2); any other
exception is a loader hole.  A config that ``validate`` accepts must
also get through a one-point closed-form ``ionotto sweep`` with exit
code 0 or 2.

Bad values are rejected before any row runs, so a second property
replaces one to three leaves with values of the leaf's own kind and
range (finite positive quantities, whitelisted units and names, small
``fock_dim``, short grids).  When ``validate`` accepts the result, a
one-point closed-form and effective ``ionotto sweep`` must exit 0 and
write both rows without an error.
"""

import json
import math
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ionotto.cli import main
from ionotto.cycle import CycleMode
from ionotto.reservoirs import BathKind

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


def _write_config(tmp_path, edits):
    """``configs/fig2a.json`` with each (leaf, value) edit applied."""
    document = json.loads(json.dumps(BASE))
    for leaf, value in edits:
        parent = document
        for key in leaf[:-1]:
            parent = parent[key]
        parent[leaf[-1]] = value
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(document))
    return path


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(leaf=st.sampled_from(LEAVES), value=BAD_VALUES)
def test_one_bad_leaf_exits_0_or_2(tmp_path, leaf, value):
    path = _write_config(tmp_path, [(leaf, value)])
    code = main(["validate", str(path)])
    assert code in (0, 2)
    if code == 0:
        output = tmp_path / "fuzzed.csv"
        assert main(
            ["sweep", str(path), "--modes", "closed_form", "--xi-points", "1",
             "--output", str(output)]
        ) in (0, 2)


def _in_range(leaf):
    """Values of the kind and range that ``leaf`` takes in a valid config."""
    key = leaf[-1]
    if isinstance(key, int):  # an entry of sweep.modes
        return st.sampled_from([mode.value for mode in CycleMode])
    return {
        "value": st.floats(min_value=1e-3, max_value=1e8),
        "unit": st.sampled_from(["rad_per_us", "rad_per_ms", "dimensionless"]),
        "kind": st.sampled_from([kind.value for kind in BathKind]),
        "fock_dim": st.integers(min_value=2, max_value=8),
        "xi_points": st.integers(min_value=1, max_value=5),
        "xi_max": st.floats(min_value=0.0, max_value=1.0),
        "output": st.sampled_from(["fuzzed.csv", "out/fuzzed.csv"]),
    }[key]


IN_RANGE_EDITS = st.lists(
    st.sampled_from(LEAVES).flatmap(lambda leaf: st.tuples(st.just(leaf), _in_range(leaf))),
    min_size=1,
    max_size=3,
)


@pytest.mark.filterwarnings(
    # validate reports a low adiabatic ratio as a warning by design
    "ignore:.*adiabatic elimination quality degrades:RuntimeWarning"
)
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edits=IN_RANGE_EDITS)
def test_in_range_leaves_run_the_sweep(tmp_path, edits):
    path = _write_config(tmp_path, edits)
    code = main(["validate", str(path)])
    assert code in (0, 2)
    if code == 0:
        output = tmp_path / "fuzzed.csv"
        assert main(
            ["sweep", str(path), "--modes", "closed_form,effective", "--xi-points", "1",
             "--output", str(output)]
        ) == 0
        rows = output.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["closed_form", "effective"]
        assert not any("error=" in row for row in rows)
