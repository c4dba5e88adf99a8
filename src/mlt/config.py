"""Scenario files: strict JSON in, validated Scenario out.

Files are self-describing (a schema_version field) and strictly checked:
unknown fields anywhere in the document, and a field given twice in one
object, are rejected so typos fail loudly instead of silently falling back
to defaults or to the last value.

One builder serves both parse_scenario and collect_violations.  Structural
problems (bad JSON, wrong types, unknown or missing fields, numbers that are
NaN or infinite) raise ConfigError at once.  A structurally sound document
whose contents break a domain invariant (a probe schedule past the session
end, a zero promise element) does not stop the build: each component that
fails to construct is recorded as "<component>: <message>", the
cross-component rules of simulator.scenario_violations are added, and the
Scenario is built only when that list is empty.  parse_scenario raises one
ValueError listing every violation; collect_violations returns the list.
"""

from __future__ import annotations

import json
import math

from .agents import AttributeGenerator, ProbeSchedule, ProviderProfile, ReporterProfile
from .evaluation import Thresholds
from .session import (
    CONTINUOUS,
    AttributeSchema,
    AttributeSpec,
    ServiceSession,
    numerize,
)
from .simulator import (
    Bystander,
    Consumer,
    ConsumerUsage,
    Scenario,
    scenario_violations,
)
from .trust import AggregationParams

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """The document is malformed: bad JSON, wrong types, unknown fields."""


def _check_obj(d, path, required=(), optional=()):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown field(s): {', '.join(unknown)}")
    missing = sorted(k for k in required if k not in d)
    if missing:
        raise ConfigError(f"{path}: missing field(s): {', '.join(missing)}")


def _finite(v, path) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal too large for a float
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    return x


def _num(d, path, key, default=None):
    if key not in d:
        return default
    return _finite(d[key], f"{path}.{key}")


def _int(d, path, key, default=None):
    if key not in d:
        return default
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    _finite(v, f"{path}.{key}")  # integer fields are used as floats too
    return v


def _str(d, path, key, default=None):
    if key not in d:
        return default
    v = d[key]
    if not isinstance(v, str):
        raise ConfigError(f"{path}.{key}: expected a string, got {v!r}")
    return v


def _list(d, path, key):
    v = d.get(key)
    if not isinstance(v, list):
        raise ConfigError(f"{path}.{key}: expected a list")
    return v


def _attribute(d, path):
    _check_obj(d, path, required=("name",), optional=("kind", "unit", "levels", "base"))
    kind = _str(d, path, "kind", CONTINUOUS)
    levels = d.get("levels", [])
    if not isinstance(levels, list) or not all(isinstance(s, str) for s in levels):
        raise ConfigError(f"{path}.levels: expected a list of strings")
    return AttributeSpec(
        name=_str(d, path, "name"),
        kind=kind,
        unit=_str(d, path, "unit", ""),
        ordinal_levels=tuple(levels),
        ordinal_base=_int(d, path, "base", 1),
    )


def _session(d):
    path = "session"
    _check_obj(
        d,
        path,
        required=(
            "id", "location", "start_time", "end_time",
            "provider_id", "service_type", "attributes", "promise",
        ),
    )
    loc = _list(d, path, "location")
    if len(loc) != 2:
        raise ConfigError(f"{path}.location: expected [latitude, longitude]")
    location = tuple(_finite(x, f"{path}.location[{i}]") for i, x in enumerate(loc))
    schema = AttributeSchema(
        tuple(_attribute(a, f"{path}.attributes[{i}]") for i, a in enumerate(_list(d, path, "attributes")))
    )
    promise_raw = _list(d, path, "promise")
    for i, entry in enumerate(promise_raw):
        if not isinstance(entry, str):
            _finite(entry, f"{path}.promise[{i}]")
    return ServiceSession(
        id=_str(d, path, "id"),
        location=location,
        start_time=_num(d, path, "start_time"),
        end_time=_num(d, path, "end_time"),
        provider_id=_str(d, path, "provider_id"),
        service_type=_str(d, path, "service_type"),
        promise=numerize(schema, promise_raw),
        schema=schema,
    )


def _provider(d, session):
    path = "provider"
    _check_obj(d, path, required=("attributes",), optional=("honesty_gap",))
    gens = []
    for i, g in enumerate(_list(d, path, "attributes")):
        gpath = f"{path}.attributes[{i}]"
        _check_obj(g, gpath, required=("mean",), optional=("jitter_stddev", "drift_per_hour"))
        gens.append(
            AttributeGenerator(
                mean=_num(g, gpath, "mean"),
                jitter_stddev=_num(g, gpath, "jitter_stddev", 0.0),
                drift_per_hour=_num(g, gpath, "drift_per_hour", 0.0),
            )
        )
    honesty_gap = _num(d, path, "honesty_gap", 0.0)
    if session is None:  # the session failed to build, so there is no promise
        return None
    return ProviderProfile(promise=session.promise, attributes=tuple(gens), honesty_gap=honesty_gap)


def _reporter(d, path):
    _check_obj(d, path, required=("kind",), optional=("bias_offset", "strategy"))
    return ReporterProfile(
        kind=_str(d, path, "kind"),
        bias_offset=_num(d, path, "bias_offset", 0.0),
        malicious_strategy=_str(d, path, "strategy", None),
    )


def _bystander(d, i):
    path = f"bystanders[{i}]"
    _check_obj(d, path, required=("reporter", "schedule"), optional=("id",))
    spath = f"{path}.schedule"
    s = d["schedule"]
    _check_obj(s, spath, required=("first_offset", "interval", "count"))
    return Bystander(
        id=_str(d, path, "id", f"b{i:02d}"),
        profile=_reporter(d["reporter"], f"{path}.reporter"),
        schedule=ProbeSchedule(
            first_offset=_num(s, spath, "first_offset"),
            interval=_num(s, spath, "interval"),
            count=_int(s, spath, "count"),
        ),
    )


def _consumer(d, i):
    path = f"consumers[{i}]"
    _check_obj(
        d, path,
        required=("reporter", "usage_start", "usage_end", "sample_interval"),
        optional=("id",),
    )
    return Consumer(
        id=_str(d, path, "id", f"c{i:02d}"),
        profile=_reporter(d["reporter"], f"{path}.reporter"),
        usage=ConsumerUsage(
            usage_start=_num(d, path, "usage_start"),
            usage_end=_num(d, path, "usage_end"),
            sample_interval=_num(d, path, "sample_interval"),
        ),
    )


def _params(d):
    if d is None:
        return AggregationParams()
    path = "params"
    _check_obj(d, path, optional=("alpha", "beta", "mode"))
    return AggregationParams(
        alpha=_num(d, path, "alpha", AggregationParams.alpha),
        beta=_num(d, path, "beta", AggregationParams.beta),
        mode=_str(d, path, "mode", AggregationParams.mode),
    )


def _thresholds(v):
    if v is None:
        return Thresholds()
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError("thresholds: expected [low_cut, high_cut]")
    return Thresholds(*(_finite(x, f"thresholds[{i}]") for i, x in enumerate(v)))


_TOP_REQUIRED = ("schema_version", "session", "provider", "bystanders", "consumers", "query_time", "seed")
_TOP_OPTIONAL = ("params", "thresholds")


def _check_top(doc):
    _check_obj(doc, "$", required=_TOP_REQUIRED, optional=_TOP_OPTIONAL)
    version = _int(doc, "$", "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"$.schema_version: expected {SCHEMA_VERSION}, got {version}")
    _list(doc, "$", "bystanders")
    _list(doc, "$", "consumers")


def _build(doc) -> tuple[Scenario | None, Thresholds | None, list[str]]:
    """The scenario builder: (scenario, thresholds, []) or (None, None, violations)."""
    _check_top(doc)
    query_time = _num(doc, "$", "query_time")
    seed = _int(doc, "$", "seed")
    violations: list[str] = []

    def build(label, make, *args):
        # ConfigError is a ValueError too, but a malformed document stops the build
        try:
            return make(*args)
        except ConfigError:
            raise
        except ValueError as e:
            violations.append(f"{label}: {e}")
            return None

    session = build("session", _session, doc["session"])
    provider = build("provider", _provider, doc["provider"], session)
    bystanders = [build(f"bystander {i}", _bystander, b, i) for i, b in enumerate(doc["bystanders"])]
    consumers = [build(f"consumer {i}", _consumer, c, i) for i, c in enumerate(doc["consumers"])]
    params = build("params", _params, doc.get("params"))
    thresholds = build("thresholds", _thresholds, doc.get("thresholds"))
    bystanders = tuple(b for b in bystanders if b is not None)
    consumers = tuple(c for c in consumers if c is not None)
    violations += scenario_violations(session, provider, bystanders, consumers, query_time, seed)
    if violations:
        return None, None, violations
    scenario = Scenario(session, provider, bystanders, consumers, params, query_time, seed)
    return scenario, thresholds, []


def parse_scenario(doc) -> tuple[Scenario, Thresholds]:
    """Build a Scenario (plus classification thresholds) from a parsed document.

    Raises ConfigError for a malformed document, else one ValueError that
    lists every domain-invariant violation.
    """
    scenario, thresholds, violations = _build(doc)
    if violations:
        raise ValueError("; ".join(violations))
    return scenario, thresholds


def collect_violations(doc) -> list[str]:
    """List every domain-invariant violation in a structurally valid document.

    Structural problems still raise ConfigError; domain problems come back
    one message per broken component or rule, so a user can fix a file in
    one pass.
    """
    return _build(doc)[2]


def load_scenario_file(path) -> tuple[Scenario, Thresholds]:
    """Read, check, and build a scenario from a JSON file."""
    doc = read_document(path)
    return parse_scenario(doc)


def _unique_fields(pairs) -> dict:
    """A JSON object's fields, rejecting a field given twice (json keeps the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"field {key!r} is given more than once")
        obj[key] = value
    return obj


def read_document(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_fields)
    except ConfigError as e:  # a ValueError too, but not a JSON syntax error
        raise ConfigError(f"{path}: {e}") from None
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except OSError as e:  # a directory, no permission, a failed read
        raise ConfigError(f"{path}: cannot read the scenario file ({e.strerror or e})") from None
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{path}: not valid JSON ({e})") from None
