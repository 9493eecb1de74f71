"""The JSON inputs (layout descriptor, scenario spec, conversion params) are
read with closed keys: every case starts from a shipped file and changes one
value, and the ParseError names the file and the key path."""

import json

import pytest

from mrio_footprint import fileio, indicators, scenario
from mrio_footprint.errors import ParseError

LAYOUT = fileio.data_path("exiobase3_layout.example.json")
SPEC = fileio.data_path("scenarios/good-life.json")
PARAMS = fileio.data_path("uk-2012-params.json")


def edited(tmp_path, source, keys, value):
    """A copy of the JSON file ``source`` with the value at ``keys`` set."""
    document = json.loads(source.read_text(encoding="utf-8"))
    target = document
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / source.name
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def assert_rejected(load, path, key_path):
    with pytest.raises(ParseError) as excinfo:
        load(path)
    assert excinfo.value.path == str(path)
    assert key_path in str(excinfo.value)


def test_shipped_layout_example_loads():
    layout = fileio.load_layout(LAYOUT)
    assert (layout["delimiter"], layout["year"], layout["files"]["transactions"]) == (
        "tab", 2012, "z.tsv")
    assert [(e["name"], e["kind"]) for e in layout["extensions"]] == [
        ("labour", "labour"), ("energy", "energy"), ("emissions", "emissions"),
        ("material", "material")]
    assert layout["extensions"][0]["workers_per_unit"] == 1000.0
    assert layout["extensions"][3]["material_flags"] == {
        "Domestic Extraction Used": "used", "Unused Domestic Extraction": "unused"}
    assert len(layout["ingest_warnings"]) == 1


def test_shipped_params_load():
    params = indicators.load_conversion_params(PARAMS)
    assert params == indicators.ConversionParams(
        working_age_population=41_500_000.0, total_population=63_700_000.0,
        weeks_worked_per_year=46.6, working_life_share=0.8)


@pytest.mark.parametrize("keys, value, key_path", [
    (("currency",), "EUR", "layout.currency"),
    (("files", "transaction"), "z.tsv", "layout.files.transaction"),
    (("extensions", 1, "direct_fil"), "direct.tsv", "layout.extensions[1].direct_fil"),
    (("hours_per_worker_year",), True, "layout.hours_per_worker_year"),
    (("extensions", 0, "workers_per_unit"), "1000", "layout.extensions[0].workers_per_unit"),
    (("extensions", 0, "kind"), "labor", "layout.extensions[0].kind"),
    (("year",), None, "layout.year is required"),
    (("extensions",), {}, "layout.extensions is {}; it must be a list"),
], ids=["unknown key", "unknown nested key", "unknown key in a list", "boolean number",
        "string number", "misspelt kind", "null required key", "object for a list"])
def test_layout_keys_are_closed(tmp_path, keys, value, key_path):
    assert_rejected(fileio.load_layout, edited(tmp_path, LAYOUT, keys, value), key_path)


@pytest.mark.parametrize("keys, value, key_path", [
    (("goverment_factor",), 0.5, "scenario spec.goverment_factor"),
    (("adjustments",), [{"source": "Housing", "fractoin": 0.1}],
     "scenario spec.adjustments[0].fractoin"),
    (("category_targets", "Housing"), True, "scenario spec.category_targets.Housing"),
    (("category_targets", "Housing"), "132517", "scenario spec.category_targets.Housing"),
    (("government_factor",), "0.5", "scenario spec.government_factor"),
], ids=["unknown key", "unknown nested key", "boolean number", "string number",
        "string factor"])
def test_spec_keys_are_closed(tmp_path, keys, value, key_path):
    assert_rejected(scenario.load_scenario_spec, edited(tmp_path, SPEC, keys, value), key_path)


@pytest.mark.parametrize("keys, value, key_path", [
    (("weeks_worked",), 30, "conversion params.weeks_worked"),
    (("working_life_share",), True, "conversion params.working_life_share"),
    (("total_population",), "63700000", "conversion params.total_population"),
], ids=["unknown key", "boolean number", "string number"])
def test_params_keys_are_closed(tmp_path, keys, value, key_path):
    assert_rejected(indicators.load_conversion_params, edited(tmp_path, PARAMS, keys, value),
                    key_path)


@pytest.mark.parametrize("load, source, once", [
    (fileio.load_layout, LAYOUT, '"kind": "labour",'),
    (scenario.load_scenario_spec, SPEC, '"name": "good-life",'),
    (indicators.load_conversion_params, PARAMS, '"total_population": 63700000,'),
], ids=["layout", "spec", "params"])
def test_repeated_key_is_rejected(tmp_path, load, source, once):
    text = source.read_text(encoding="utf-8")
    assert once in text
    path = tmp_path / source.name
    path.write_text(text.replace(once, once + " " + once), encoding="utf-8")
    assert_rejected(load, path, repr(once.split('"')[1]))


def test_repeated_extension_name_is_rejected(tmp_path):
    path = edited(tmp_path, LAYOUT, ("extensions", 2, "name"), "energy")
    assert_rejected(fileio.load_layout, path, "layout.extensions[2].name")


@pytest.mark.parametrize("index, key, value", [
    (0, "direct_file", "direct_labour.tsv"),
    (3, "direct_file", "direct_material.tsv"),
    (1, "material_flags", {"gross energy use": "used"}),
    (1, "workers_per_unit", 1000.0),
], ids=["direct use of labour", "direct use of material", "material flags of energy",
        "workers per unit of energy"])
def test_key_read_only_for_another_kind_is_rejected(tmp_path, index, key, value):
    path = edited(tmp_path, LAYOUT, ("extensions", index, key), value)
    assert_rejected(fileio.load_layout, path, f"layout.extensions[{index}].{key}")


def test_direct_use_of_an_extension_without_kind_is_rejected(tmp_path):
    path = edited(tmp_path, LAYOUT, ("extensions", 1, "kind"), None)
    assert_rejected(fileio.load_layout, path, "layout.extensions[1].direct_file")


@pytest.mark.parametrize("unit, accepted", [("1000 persons", False), ("hours", True)])
def test_labour_without_workers_per_unit_must_be_in_hours(tmp_path, unit, accepted):
    path = edited(tmp_path, LAYOUT, ("extensions", 0, "workers_per_unit"), None)
    path = edited(tmp_path, path, ("extensions", 0, "unit"), unit)
    if accepted:
        assert fileio.load_layout(path)["extensions"][0]["unit"] == "hours"
    else:
        assert_rejected(fileio.load_layout, path, "layout.extensions[0].unit")
