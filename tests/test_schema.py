"""The JSON schema and the parser agree: the schema describes the parser's
field tables, every document the parser accepts is schema-valid, a
schema-valid document is never rejected for an unknown or missing key nor,
once its numbers are clean, for a number of the wrong kind, and the CLI
answers any document with an exit code, never a traceback."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loadshed import cli, scenario
from loadshed.scenario import ScenarioError, loads_scenario

from test_scenario import CONFIG_DIR

SCHEMA = json.loads((CONFIG_DIR.parent / "docs" / "scenario.schema.json").read_text())
VALIDATOR = jsonschema.Draft7Validator(SCHEMA)
FAMILIES = ("line", "line-periodic", "random-periodic", "random")


def _json_integer(checker, value) -> bool:
    return type(value) is int


def _finite_number(checker, value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max  # False for NaN


# Draft 7 counts 3000.0 as an integer and NaN as a number; this walk of the
# schema marks a document's numbers as clean: finite, never booleans, and
# JSON integers wherever the schema says "integer"
CLEAN_NUMBERS = jsonschema.validators.extend(
    jsonschema.Draft7Validator,
    type_checker=jsonschema.Draft7Validator.TYPE_CHECKER.redefine_many(
        {"integer": _json_integer, "number": _finite_number}
    ),
)(SCHEMA)
TYPE_MESSAGES = ("must be an integer", "must be a finite number")


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
    CLEAN_NUMBERS.validate(doc)
    loads_scenario(json.dumps(doc))


@pytest.mark.parametrize(
    "where, value",
    [
        (("version",), 1.0),
        (("max_rounds",), 3000.0),
        (("regions", 0, "loads", 0, "id"), 1e300),
        (("regions", 0, "loads", 0, "power"), math.nan),
        (("deficit",), math.inf),
        (("x0",), 10**400),
    ],
    ids=["version-float", "max-rounds-float", "id-1e300", "power-nan", "deficit-inf",
         "x0-huge-integer"],
)
def test_unclean_numbers_are_schema_valid(where, value):
    # the values Draft 7 admits and the parser rejects for their kind are
    # exactly the ones the walk does not mark clean
    doc = copy.deepcopy(DOCUMENTS["two_region_step_example"])
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    assert VALIDATOR.is_valid(doc) and not CLEAN_NUMBERS.is_valid(doc)
    with pytest.raises(ScenarioError, match="|".join(TYPE_MESSAGES)):
        loads_scenario(json.dumps(doc))


OBJECTS = {  # each JSON object's schema and the parser's field table for it
    "root": (SCHEMA, scenario._ROOT),
    "graph": (SCHEMA["properties"]["graph"], scenario._GRAPH),
    "step": (SCHEMA["properties"]["step"], scenario._STEP),
    "estimator": (SCHEMA["properties"]["estimator"], scenario._ESTIMATOR),
    "region": (SCHEMA["definitions"]["discrete_region"], scenario._REGION),
    "load": (SCHEMA["definitions"]["load"], scenario._LOAD),
    "continuous-region": (SCHEMA["definitions"]["continuous_region"],
                          scenario._CONTINUOUS_REGION),
}
JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", float: "number"}


@pytest.mark.parametrize("name", sorted(OBJECTS))
def test_field_tables_match_schema(name):
    schema, table = OBJECTS[name]
    properties = schema["properties"]
    assert schema["additionalProperties"] is False
    assert sorted(table) == sorted(properties)
    assert sorted(schema.get("required", [])) == sorted(k for k, e in table.items() if len(e) == 1)
    for key, (kind, *default) in table.items():
        prop = properties[key]
        if default and default[0] is not None:
            assert prop["default"] == default[0], key
        else:
            assert "default" not in prop, key
        types = {b["type"] for b in prop.get("oneOf", [prop]) if "type" in b}
        if types:
            assert JSON_TYPES[kind] in types, key
        # a oneOf's const or null branch is the value accepted outside the kind
        outside = [b.get("const") for b in prop.get("oneOf", [])
                   if b.get("type", "null") == "null"]
        assert outside == default[1:], key
        for value in prop.get("enum", [prop["const"]] if "const" in prop else []):
            assert type(value) is kind, key


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
    error = None
    try:
        loads_scenario(text)
    except ValueError as exc:
        error = str(exc)
    if error is None:
        assert VALIDATOR.is_valid(doc), f"parser accepts, schema rejects: {text}"
    elif VALIDATOR.is_valid(doc):
        # the converse: the schema states every rule on which keys an object holds
        assert not error.startswith(("unknown field", "missing field")), text
        # and, for clean numbers, which kind each number is
        if CLEAN_NUMBERS.is_valid(doc):
            assert not any(message in error for message in TYPE_MESSAGES), text
    # `run --max-rounds 50` runs the document with its max_rounds replaced
    try:
        loads_scenario(json.dumps({**doc, "max_rounds": 50}))
        parsed = True
    except ValueError:
        parsed = False

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["run", str(path), "--max-rounds", "50", "--quiet"])
    assert code in (0, 2, 3)
    if not parsed:
        assert code == 2
