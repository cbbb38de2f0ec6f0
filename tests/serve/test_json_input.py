"""Malformed JSON input over HTTP: a ``400`` with a JSON error, never a
dropped connection, and the dataset untouched by the rejected request."""

import pytest

from repro.dataset.examples import employee_salary_table
from repro.serve import ProfilerService

from _serve_helpers import http_get, http_post, http_request, running_server

TOKEN = "test-json-input-token"
AUTH = {"Authorization": f"Bearer {TOKEN}",
        "Content-Type": "application/json"}
ROWS = employee_salary_table().num_rows
#: One well-formed row of the demo table, as a list and as a mapping.
ROW = ["sec", 1, 20, "A", 10.0, 2.0, 1]
NAMES = employee_salary_table().attribute_names


@pytest.fixture()
def service():
    service = ProfilerService(auth_token=TOKEN)
    service.add_dataset("demo", employee_salary_table())
    return service


def _rows_of(url, name):
    """The dataset's row count, from the listing and from a discovery."""
    _, _, listing = http_get(url + "/datasets")
    listed = {d["name"]: d["num_rows"] for d in listing["datasets"]}
    status, _, result = http_post(url + "/discover", {
        "dataset": name, "request": {"threshold": 0.1},
    })
    assert status == 200
    assert result["num_rows"] == listed[name]
    return listed[name]


def _assert_json_400(status, payload, words):
    assert status == 400
    assert isinstance(payload, dict), payload
    assert words in payload["error"]


@pytest.mark.parametrize("dataset", [["demo"], {"a": 1}, 3, True])
def test_dataset_must_be_a_string_or_null(service, dataset):
    with running_server(service) as (url, _):
        status, _, payload = http_post(url + "/discover", {
            "dataset": dataset, "request": {"threshold": 0.1},
        })
        _assert_json_400(status, payload, "dataset must be a string")
        status, _, payload = http_post(url + "/discover", {
            "dataset": dataset, "stream": True,
        })
        _assert_json_400(status, payload, "dataset must be a string")
        assert _rows_of(url, "demo") == ROWS
        # null still names the only dataset.
        status, _, result = http_post(url + "/discover", {"dataset": None})
        assert status == 200 and result["num_rows"] == ROWS


@pytest.mark.parametrize("bad_cell", [{"a": 1}, [1, 2], []])
@pytest.mark.parametrize("shape", ["list", "mapping"])
def test_append_cells_must_be_json_scalars(service, bad_cell, shape):
    bad_row = list(ROW)
    bad_row[2] = bad_cell
    rows = [ROW, bad_row]
    if shape == "mapping":
        rows = [dict(zip(NAMES, row)) for row in rows]
    with running_server(service) as (url, _):
        for body in ({"rows": rows},
                     {"rows": rows, "request": {"threshold": 0.1}}):
            status, _, payload = http_post(
                url + "/datasets/demo/append", body
            )
            _assert_json_400(status, payload, "row 1 has a cell")
        assert _rows_of(url, "demo") == ROWS
        # A well-formed append of the same shape still goes through.
        status, _, payload = http_post(url + "/datasets/demo/append",
                                       {"rows": rows[:1]})
        assert status == 200
        assert _rows_of(url, "demo") == ROWS + 1


@pytest.mark.parametrize("bad_cell", [{"a": 1}, [1, 2]])
def test_upload_cells_must_be_json_scalars(service, bad_cell):
    with running_server(service) as (url, _):
        status, _, payload = http_request(
            "PUT", url + "/datasets/fresh",
            body={"attributes": ["x", "y"],
                  "rows": [[1, 2], [2, bad_cell]]},
            headers=AUTH,
        )
        _assert_json_400(status, payload, "row 1 has a cell")
        _, _, listing = http_get(url + "/datasets")
        assert [d["name"] for d in listing["datasets"]] == ["demo"]
        assert _rows_of(url, "demo") == ROWS
        # The name is still free.
        status, _, payload = http_request(
            "PUT", url + "/datasets/fresh",
            body={"attributes": ["x", "y"], "rows": [[1, 2], [2, 4]]},
            headers=AUTH,
        )
        assert status == 201 and payload["num_rows"] == 2


def test_duplicate_attributes_are_a_bad_request(service):
    with running_server(service) as (url, _):
        status, _, payload = http_post(url + "/discover", {
            "dataset": "demo",
            "request": {"threshold": 0.1, "attributes": ["pos", "pos"]},
        })
        _assert_json_400(status, payload, "must not repeat a name")
        assert _rows_of(url, "demo") == ROWS
