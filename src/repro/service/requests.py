"""Structured analysis requests and their content-addressed keys.

Every query the library can answer from the command line has a request
form here: a ``kind`` naming the analysis plus a flat ``params`` mapping.
Requests are *canonicalized* -- defaults applied, values coerced, keys
sorted -- so that two payloads meaning the same analysis always produce the
same :func:`request_key` (a SHA-256 digest of the canonical JSON), no
matter the insertion order or representation of the incoming dict.  The
key is what the engine's result cache is addressed by.

Request kinds
-------------
``intra``             optimize one ``M x K x L`` matmul at a buffer size
``fusion``            fusion decision for an ``(M,K,L) -> (M,L,N)`` chain
``graph_plan``        graph-level fusion plan for a Table II model
``dag_plan``          DAG-scale plan (joins + retention) for a scenario
``platform_compare``  Fig. 10-style platform comparison for one model
``sweep_point``       one (operator, buffer) point of the MA(BS) sweep
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple


class RequestError(ValueError):
    """Raised for malformed or unknown analysis requests.

    ``kind`` carries the request kind when it was recognizable, so the
    service's circuit breaker can attribute parse failures to a kind
    even though the request never reached a worker.
    """

    def __init__(self, message: str, kind: Optional[str] = None):
        super().__init__(message)
        self.kind = kind


#: Per-kind parameter schema: name -> (type, required, default).
_BOOL = "bool"
_INT = "int"
_STR = "str"

_SCHEMAS: Dict[str, Dict[str, Tuple[str, bool, Any]]] = {
    "intra": {
        "m": (_INT, True, None),
        "k": (_INT, True, None),
        "l": (_INT, True, None),
        "buffer_elems": (_INT, True, None),
        "convention": (_STR, False, "single"),
        "certify": (_BOOL, False, False),
        "paranoid": (_BOOL, False, False),
    },
    "fusion": {
        "m": (_INT, True, None),
        "k": (_INT, True, None),
        "l": (_INT, True, None),
        "n": (_INT, True, None),
        "buffer_elems": (_INT, True, None),
        "include_cross": (_BOOL, False, False),
        "convention": (_STR, False, "single"),
        "certify": (_BOOL, False, False),
        "paranoid": (_BOOL, False, False),
    },
    "graph_plan": {
        "model": (_STR, True, None),
        "buffer_elems": (_INT, True, None),
        "enable_fusion": (_BOOL, False, True),
        "max_group": (_INT, False, 3),
    },
    "dag_plan": {
        "scenario": (_STR, True, None),
        "buffer_elems": (_INT, True, None),
        "model": (_STR, False, ""),
        "enable_fusion": (_BOOL, False, True),
        "max_group": (_INT, False, 3),
        "retention": (_BOOL, False, True),
        "baseline": (_BOOL, False, False),
        "budget": (_INT, False, 4096),
        "certify": (_BOOL, False, False),
        "paranoid": (_BOOL, False, False),
    },
    "platform_compare": {
        "model": (_STR, True, None),
        "buffer_elems": (_INT, True, None),
    },
    "sweep_point": {
        "m": (_INT, True, None),
        "k": (_INT, True, None),
        "l": (_INT, True, None),
        "buffer_elems": (_INT, True, None),
        "convention": (_STR, False, "single"),
    },
}

REQUEST_KINDS: Tuple[str, ...] = tuple(sorted(_SCHEMAS))

#: Request kinds that understand the ``certify``/``paranoid`` params.
PARANOID_KINDS: Tuple[str, ...] = tuple(
    sorted(kind for kind, schema in _SCHEMAS.items() if "paranoid" in schema)
)


@dataclass(frozen=True)
class AnalysisRequest:
    """One canonicalized analysis query.

    Construct through :func:`parse_request` (or the ``*_request`` helpers),
    which validate and normalize; ``params`` holds the full canonical
    parameter set with defaults applied.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = field(default=())

    @property
    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def canonical_payload(self) -> Dict[str, Any]:
        """The canonical JSON-able form (sorted params, defaults applied)."""
        return {"kind": self.kind, "params": dict(self.params)}


def _coerce(kind: str, name: str, spec: str, value: Any) -> Any:
    if spec == _INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise RequestError(
                f"{kind} request: param {name!r} must be an integer, "
                f"got {value!r}",
                kind=kind,
            )
        return int(value)
    if spec == _BOOL:
        if not isinstance(value, bool):
            raise RequestError(
                f"{kind} request: param {name!r} must be a boolean, "
                f"got {value!r}",
                kind=kind,
            )
        return bool(value)
    if not isinstance(value, str):
        raise RequestError(
            f"{kind} request: param {name!r} must be a string, got {value!r}",
            kind=kind,
        )
    return str(value)


def parse_request(payload: Mapping[str, Any]) -> AnalysisRequest:
    """Validate and canonicalize a raw request mapping.

    Accepts either ``{"kind": ..., "params": {...}}`` or the flat form
    ``{"kind": ..., <param>: ...}``.  Unknown kinds, unknown params, missing
    required params, and wrong types all raise :class:`RequestError`.
    """

    if not isinstance(payload, Mapping):
        raise RequestError(f"request must be a mapping, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in _SCHEMAS:
        raise RequestError(
            f"unknown request kind {kind!r}; choose from {', '.join(REQUEST_KINDS)}"
        )
    raw = payload.get("params")
    if raw is None:
        raw = {key: value for key, value in payload.items() if key != "kind"}
    if not isinstance(raw, Mapping):
        raise RequestError(
            f"{kind} request: params must be a mapping", kind=kind
        )
    schema = _SCHEMAS[kind]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise RequestError(
            f"{kind} request: unknown params {unknown}", kind=kind
        )
    params: Dict[str, Any] = {}
    for name, (spec, required, default) in schema.items():
        if name in raw:
            params[name] = _coerce(kind, name, spec, raw[name])
        elif required:
            raise RequestError(
                f"{kind} request: missing required param {name!r}",
                kind=kind,
            )
        else:
            params[name] = default
    if params.get("max_group", 1) < 1:
        raise RequestError(
            f"{kind} request: param 'max_group' must be at least 1, "
            f"got {params['max_group']}",
            kind=kind,
        )
    return AnalysisRequest(
        kind=kind, params=tuple(sorted(params.items()))
    )


def apply_paranoid(request: AnalysisRequest) -> AnalysisRequest:
    """Rewrite a request to run under paranoid certification.

    Kinds that do not understand the ``paranoid`` param pass through
    untouched.  Note the rewrite changes the request's canonical payload
    and therefore its :func:`request_key` -- paranoid and ordinary runs of
    the same analysis are distinct cache entries by design (their result
    records differ: only the former carries a certificate).
    """

    if request.kind not in PARANOID_KINDS:
        return request
    params = request.param_dict
    if params.get("paranoid"):
        return request
    params["paranoid"] = True
    return AnalysisRequest(
        kind=request.kind, params=tuple(sorted(params.items()))
    )


def request_key(request: AnalysisRequest) -> str:
    """Stable content-addressed key: SHA-256 over the canonical JSON."""
    canonical = json.dumps(
        request.canonical_payload(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def intra_request(
    m: int,
    k: int,
    l: int,
    buffer_elems: int,
    convention: str = "single",
    certify: bool = False,
    paranoid: bool = False,
) -> AnalysisRequest:
    return parse_request(
        {
            "kind": "intra",
            "m": m, "k": k, "l": l,
            "buffer_elems": buffer_elems,
            "convention": convention,
            "certify": certify,
            "paranoid": paranoid,
        }
    )


def fusion_request(
    m: int,
    k: int,
    l: int,
    n: int,
    buffer_elems: int,
    include_cross: bool = False,
    convention: str = "single",
    certify: bool = False,
    paranoid: bool = False,
) -> AnalysisRequest:
    return parse_request(
        {
            "kind": "fusion",
            "m": m, "k": k, "l": l, "n": n,
            "buffer_elems": buffer_elems,
            "include_cross": include_cross,
            "convention": convention,
            "certify": certify,
            "paranoid": paranoid,
        }
    )


def graph_plan_request(
    model: str,
    buffer_elems: int,
    enable_fusion: bool = True,
    max_group: int = 3,
) -> AnalysisRequest:
    return parse_request(
        {
            "kind": "graph_plan",
            "model": model,
            "buffer_elems": buffer_elems,
            "enable_fusion": enable_fusion,
            "max_group": max_group,
        }
    )


def dag_plan_request(
    scenario: str,
    buffer_elems: int,
    model: str = "",
    enable_fusion: bool = True,
    max_group: int = 3,
    retention: bool = True,
    baseline: bool = False,
    budget: int = 4096,
    certify: bool = False,
    paranoid: bool = False,
) -> AnalysisRequest:
    return parse_request(
        {
            "kind": "dag_plan",
            "scenario": scenario,
            "buffer_elems": buffer_elems,
            "model": model,
            "enable_fusion": enable_fusion,
            "max_group": max_group,
            "retention": retention,
            "baseline": baseline,
            "budget": budget,
            "certify": certify,
            "paranoid": paranoid,
        }
    )


def sweep_point_request(
    m: int, k: int, l: int, buffer_elems: int, convention: str = "single"
) -> AnalysisRequest:
    return parse_request(
        {
            "kind": "sweep_point",
            "m": m, "k": k, "l": l,
            "buffer_elems": buffer_elems,
            "convention": convention,
        }
    )
