"""The JSON schema and the parser agree: every document the schema rejects,
the parser rejects too, and the CLI answers any document with an exit code,
never a traceback."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loadshed import cli
from loadshed.scenario import loads_scenario

from test_scenario import CONFIG_DIR

SCHEMA = json.loads((CONFIG_DIR.parent / "docs" / "scenario.schema.json").read_text())
VALIDATOR = jsonschema.Draft7Validator(SCHEMA)
FAMILIES = ("line", "line-periodic", "random-periodic", "random")


def generated_documents() -> dict[str, dict]:
    """``loadshed gen`` output for each graph family (3 regions, 4 loads)."""
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for family in FAMILIES:
            path = Path(tmp) / f"{family}.json"
            argv = ["--quiet", "gen", "--regions", "3", "--loads", "4", "--seed", "1",
                    "--graph", family, "-o", str(path)]
            assert cli.main(argv) == 0
            docs[family] = json.loads(path.read_text())
    return docs


DOCUMENTS = {
    **{p.stem: json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))},
    **generated_documents(),
}


def test_schema_is_valid_draft7():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_documents_pass_schema_and_load(name):
    doc = DOCUMENTS[name]
    VALIDATOR.validate(doc)
    loads_scenario(json.dumps(doc))


def locations(node, out=None) -> list[tuple[object, object]]:
    """Every (container, key) pair below ``node``: object entries and array items."""
    out = [] if out is None else out
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            locations(value, out)
    return out


NUMBERS = st.integers(-10**4, 10**4) | st.floats(allow_nan=False, allow_infinity=False)
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, True, False])
ANY_VALUE = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4) | SPECIAL,
    lambda inner: (
        st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner, max_size=2)
    ),
    max_leaves=4,
)
FIELD_NAMES = (
    st.sampled_from(["id", "kind", "window", "rows", "power", "seed", "bogus"])
    | st.text(max_size=6)
)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(draw(st.integers(1, 2))):
        container, key = draw(st.sampled_from(locations(doc)))
        action = draw(st.sampled_from(["drop", "add", "retype", "renumber", "special"]))
        if action == "drop":
            del container[key]
        elif action == "add":
            objects = [doc] + [c[k] for c, k in locations(doc) if isinstance(c[k], dict)]
            draw(st.sampled_from(objects))[draw(FIELD_NAMES)] = draw(ANY_VALUE)
        elif action == "retype":
            old = container[key]
            container[key] = draw(ANY_VALUE.filter(lambda v: type(v) is not type(old)))
        elif action == "renumber":  # out-of-range values
            container[key] = draw(NUMBERS)
        else:
            container[key] = draw(SPECIAL)
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_documents())
def test_schema_rejections_are_parser_rejections(doc):
    text = json.dumps(doc)
    parsed = True
    try:
        loads_scenario(text)
    except ValueError:
        parsed = False
    if not VALIDATOR.is_valid(doc):
        assert not parsed, f"schema rejects, parser accepts: {text}"

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(path), "--max-rounds", "50", "--quiet"])
    assert code in (0, 2, 3)
    if not parsed:
        assert code == 2
