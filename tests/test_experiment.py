import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtqsim.experiment import dump_json

# keys and strings: any text, surrogates included, plus the characters JSON escapes
text = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", '"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "\U0001f600", "\ud800"]
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2e-308])
    | text
)
values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(text, kids, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values)
@example({})
@example([])
@example({"a": {}, "b": [], "c": ()})
def test_dump_json_writes_the_stdlib_bytes(x):
    assert dump_json(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "x",
    [{1: "a"}, {(0, 1): "a"}, {"a": [{2: None}]}, {1, 2}, {"a": frozenset()}, object(), [object()]],
    ids=["int-key", "tuple-key", "nested-int-key", "set", "frozenset", "object", "object-in-list"],
)
def test_dump_json_rejects_what_is_not_a_report_value(x):
    with pytest.raises(TypeError):
        dump_json(x)
