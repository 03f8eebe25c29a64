"""Tests for the ``dag_plan`` request kind through the service stack."""

import json

import pytest

from repro.service import (
    PARANOID_KINDS,
    REQUEST_KINDS,
    BatchEngine,
    EngineConfig,
    RequestError,
    apply_paranoid,
    dag_plan_request,
    execute_request,
    parse_request,
    request_key,
    run_payload,
)


def _strip(record):
    record = dict(record)
    record.pop("seconds", None)
    return record


class TestDagPlanRequests:
    def test_kind_registered(self):
        assert "dag_plan" in REQUEST_KINDS
        assert "dag_plan" in PARANOID_KINDS

    def test_constructor_matches_parse(self):
        built = dag_plan_request("attention", 4096, baseline=True)
        parsed = parse_request(
            {
                "kind": "dag_plan",
                "scenario": "attention",
                "buffer_elems": 4096,
                "baseline": True,
            }
        )
        assert request_key(built) == request_key(parsed)

    def test_nested_params_form_equivalent(self):
        flat = parse_request(
            {"kind": "dag_plan", "scenario": "moe", "buffer_elems": 4096}
        )
        nested = parse_request(
            {
                "kind": "dag_plan",
                "params": {"scenario": "moe", "buffer_elems": 4096},
            }
        )
        assert request_key(flat) == request_key(nested)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "dag_plan"},  # missing scenario + buffer
            {"kind": "dag_plan", "scenario": "attention"},
            {"kind": "dag_plan", "scenario": 7, "buffer_elems": 4096},
            {"kind": "dag_plan", "scenario": "attention",
             "buffer_elems": 4096, "bogus": 1},
            {"kind": "dag_plan", "scenario": "attention",
             "buffer_elems": 4096, "max_group": 0},
            {"kind": "dag_plan", "scenario": "attention",
             "buffer_elems": 4096, "max_group": -1},
        ],
    )
    def test_malformed_requests_raise(self, payload):
        with pytest.raises(RequestError):
            parse_request(payload)

    def test_paranoid_changes_key(self):
        base = dag_plan_request("attention", 4096)
        paranoid = apply_paranoid(base)
        assert paranoid.param_dict["paranoid"] is True
        assert request_key(base) != request_key(paranoid)


class TestDagPlanExecution:
    def test_record_shape(self):
        record = execute_request(
            dag_plan_request("attention", 4096, baseline=True)
        )
        assert record["scenario"] == "attention"
        assert record["buffer_elems"] == 4096
        assert record["graph"]
        assert record["total_memory_access"] >= record["ideal_memory_access"]
        assert record["total_memory_access"] <= record["chain_memory_access"]
        assert record["total_memory_access"] == sum(
            segment["memory_access"] for segment in record["segments"]
        )
        baseline = record["baseline"]
        assert baseline["agrees"] is True
        assert baseline["exhausted"] is True
        assert baseline["total_memory_access"] is not None
        assert record["total_memory_access"] <= baseline["total_memory_access"]

    def test_record_is_pure_json_and_deterministic(self):
        payload = {
            "kind": "dag_plan",
            "scenario": "decode",
            "buffer_elems": 4096,
            "baseline": True,
        }
        first = _strip(run_payload(payload))
        second = _strip(run_payload(payload))
        assert first["ok"] and second["ok"]
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_certify_attaches_certificate(self):
        record = execute_request(dag_plan_request("moe", 4096, certify=True))
        certification = record["certification"]
        assert certification["ok"] is True
        names = {check["name"] for check in certification["checks"]}
        assert {"cover", "topology", "cost_audit", "bound"} <= names

    def test_paranoid_certifies_with_probe(self):
        record = execute_request(
            dag_plan_request("attention", 4096, paranoid=True)
        )
        certification = record["certification"]
        assert certification["ok"] is True
        names = {check["name"] for check in certification["checks"]}
        assert "optimality_probe" in names

    def test_unknown_scenario_is_permanent(self):
        record = run_payload(
            {"kind": "dag_plan", "scenario": "nope", "buffer_elems": 4096}
        )
        assert record["ok"] is False
        assert record["error"]["category"] == "permanent"

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "dag_plan", "scenario": "attention", "buffer_elems": 1},
            {"kind": "graph_plan", "model": "Bert", "buffer_elems": 1},
        ],
        ids=["dag_plan", "graph_plan"],
    )
    def test_infeasible_buffer_is_a_permanent_infeasible_error(self, payload):
        record = run_payload(payload)
        assert record["ok"] is False
        assert record["error"]["type"] == "InfeasibleError"
        assert record["error"]["category"] == "permanent"

    def test_unknown_model_is_permanent(self):
        record = run_payload(
            {
                "kind": "dag_plan",
                "scenario": "attention",
                "buffer_elems": 4096,
                "model": "nope",
            }
        )
        assert record["ok"] is False
        assert record["error"]["category"] == "permanent"


class TestDagPlanBatch:
    def _requests(self):
        from repro.plan import SCENARIO_BUFFERS, list_scenarios

        return [
            dag_plan_request(scenario, buffer_elems, baseline=True)
            for scenario in list_scenarios()
            for buffer_elems in SCENARIO_BUFFERS
        ]

    def test_jobs_invariant_byte_identity(self):
        requests = self._requests()
        serial = BatchEngine(EngineConfig(jobs=1)).run_batch(requests)
        threaded = BatchEngine(EngineConfig(jobs=2)).run_batch(requests)
        assert serial.errors == threaded.errors == 0
        serial_lines = [
            json.dumps(_strip(e.record), sort_keys=True)
            for e in serial.entries
        ]
        threaded_lines = [
            json.dumps(_strip(e.record), sort_keys=True)
            for e in threaded.entries
        ]
        assert serial_lines == threaded_lines

    def test_acceptance_matrix_served(self):
        """All 8 scenario/buffer cells agree with the baseline when served."""
        report = BatchEngine(EngineConfig(jobs=2)).run_batch(self._requests())
        assert report.errors == 0
        for entry in report.entries:
            result = entry.record["result"]
            assert result["baseline"]["agrees"] is True, result["scenario"]

    def test_cache_answers_repeat(self):
        request = dag_plan_request("attention", 4096)
        engine = BatchEngine(EngineConfig(jobs=1, cache_size=8))
        engine.run_batch([request])
        report = engine.run_batch([request])
        assert report.cache.hits >= 1
        assert report.cached_answers == 1
