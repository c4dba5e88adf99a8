"""Scenario files: strict JSON in, validated Scenario out.

Files are self-describing (a schema_version field) and strictly checked:
unknown fields anywhere in the document, and a field given twice in one
object, are rejected so typos fail loudly instead of silently falling back
to defaults or to the last value.

Each JSON object is read through one field table that names each file key
once, with its reader and the model argument it fills.  _fields rejects
unknown, then missing keys, reads only the keys the document gives, and
passes them on as keyword arguments, so an omitted key takes the model
dataclass's own default.  A key that is given is read: null is not omitted.

One builder serves both parse_scenario and collect_violations.  Structural
problems (bad JSON, wrong types, unknown or missing fields, numbers that are
NaN or infinite) raise ConfigError.  Each component (the session, the
provider, each reporter) is read whole, its nested objects left as plain
fields, before any model in it is built, so a domain fault never hides a
structural one.  A domain fault (a probe schedule past the session end, a
zero promise element) does not stop the build: each component that fails to
construct is recorded as "<component>: <message>", the cross-component rules
of simulator.scenario_violations are added, and the Scenario is built only
when that list is empty.  parse_scenario raises one ValueError listing every
violation; collect_violations returns the list.
"""

from __future__ import annotations

import json
import math

from .agents import AttributeGenerator, ProbeSchedule, ProviderProfile, ReporterProfile
from .evaluation import Thresholds
from .session import AttributeSchema, AttributeSpec, ServiceSession, numerize
from .simulator import Bystander, Consumer, ConsumerUsage, Scenario, scenario_violations
from .trust import AggregationParams

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """The document is malformed: bad JSON, wrong types, unknown fields."""


def _fields(d, path, table, required) -> dict:
    """The keyword arguments that object d gives, read through table.

    The first `required` keys of table must be given; the rest may be omitted.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = sorted(set(d) - set(table))
    if unknown:
        raise ConfigError(f"{path}: unknown field(s): {', '.join(unknown)}")
    missing = sorted(k for k in list(table)[:required] if k not in d)
    if missing:
        raise ConfigError(f"{path}: missing field(s): {', '.join(missing)}")
    kw = {}
    for key, entry in table.items():
        if key in d:
            arg, read = entry if isinstance(entry, tuple) else (key, entry)
            kw[arg] = read(d[key], f"{path}.{key}")
    return kw


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


def _integer(v, path) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    _finite(v, path)  # integer fields are used as floats too
    return v


def _string(v, path) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string, got {v!r}")
    return v


def _list(v, path) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list")
    return v


def _items(read):
    """A reader for a list: each item read by read, giving a tuple."""
    return lambda v, path: tuple(read(x, f"{path}[{i}]") for i, x in enumerate(_list(v, path)))


def _object(table, required):
    """A reader for an object: the fields that table reads, left unbuilt."""
    return lambda v, path: _fields(v, path, table, required)


def _levels(v, path) -> list:
    if not isinstance(v, list) or not all(isinstance(s, str) for s in v):
        raise ConfigError(f"{path}: expected a list of strings")
    return v


def _location(v, path) -> tuple:
    if len(_list(v, path)) != 2:
        raise ConfigError(f"{path}: expected [latitude, longitude]")
    return _items(_finite)(v, path)


def _promise(v, path) -> list:
    for i, entry in enumerate(_list(v, path)):
        if not isinstance(entry, str):
            _finite(entry, f"{path}[{i}]")
    return v  # numerized as written once the schema is built


def _version(v, path) -> int:
    if _integer(v, path) != SCHEMA_VERSION:
        raise ConfigError(f"{path}: expected {SCHEMA_VERSION}, got {v}")
    return v


def _given(v, path):
    return v


# Field tables, one per file object: file key -> reader, or (model argument,
# reader) where the two names differ.  Required keys come first.
_ATTRIBUTE = {
    "name": _string, "kind": _string, "unit": _string,
    "levels": ("ordinal_levels", _levels), "base": ("ordinal_base", _integer),
}
_SESSION = {
    "id": _string, "location": _location, "start_time": _finite, "end_time": _finite,
    "provider_id": _string, "service_type": _string,
    "attributes": _items(_object(_ATTRIBUTE, required=1)), "promise": _promise,
}
_GENERATOR = {"mean": _finite, "jitter_stddev": _finite, "drift_per_hour": _finite}
_PROVIDER = {"attributes": _items(_object(_GENERATOR, required=1)), "honesty_gap": _finite}
_REPORTER = {"kind": _string, "bias_offset": _finite, "strategy": ("malicious_strategy", _string)}
_SCHEDULE = {"first_offset": _finite, "interval": _finite, "count": _integer}
_BYSTANDER = {
    "reporter": _object(_REPORTER, required=1), "schedule": _object(_SCHEDULE, required=3),
    "id": _string,
}
_CONSUMER = {  # the ConsumerUsage fields sit in the consumer object itself
    "reporter": _object(_REPORTER, required=1),
    "usage_start": _finite, "usage_end": _finite, "sample_interval": _finite,
    "id": _string,
}
_PARAMS = {"alpha": _finite, "beta": _finite, "mode": _string}
# _build builds the components given as they are, to collect their violations.
_TOP = {
    "schema_version": _version, "session": _given, "provider": _given,
    "bystanders": _list, "consumers": _list, "query_time": _finite, "seed": _integer,
    "params": _given, "thresholds": _given,
}


def _session(d):
    kw = _fields(d, "session", _SESSION, required=8)
    schema = AttributeSchema(tuple(AttributeSpec(**a) for a in kw.pop("attributes")))
    return ServiceSession(**{**kw, "promise": numerize(schema, kw["promise"])})


def _provider(d):
    kw = _fields(d, "provider", _PROVIDER, required=1)
    generators = tuple(AttributeGenerator(**a) for a in kw.pop("attributes"))
    return ProviderProfile(generators, **kw)


def _bystander(d, i):
    kw = _fields(d, f"bystanders[{i}]", _BYSTANDER, required=2)
    profile, schedule = ReporterProfile(**kw["reporter"]), ProbeSchedule(**kw["schedule"])
    return Bystander(kw.get("id", f"b{i:02d}"), profile, schedule)


def _consumer(d, i):
    kw = _fields(d, f"consumers[{i}]", _CONSUMER, required=4)
    profile = ReporterProfile(**kw.pop("reporter"))
    return Consumer(kw.pop("id", f"c{i:02d}"), profile, ConsumerUsage(**kw))


def _params(d):
    return AggregationParams(**_fields(d, "params", _PARAMS, required=0))


def _thresholds(v):
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError("thresholds: expected [low_cut, high_cut]")
    return Thresholds(*(_finite(x, f"thresholds[{i}]") for i, x in enumerate(v)))


def _build(doc) -> tuple[Scenario | None, Thresholds | None, list[str]]:
    """The scenario builder: (scenario, thresholds, []) or (None, None, violations)."""
    top = _fields(doc, "$", _TOP, required=7)
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

    session = build("session", _session, top["session"])
    provider = build("provider", _provider, top["provider"])
    bystanders = [build(f"bystander {i}", _bystander, b, i) for i, b in enumerate(top["bystanders"])]
    consumers = [build(f"consumer {i}", _consumer, c, i) for i, c in enumerate(top["consumers"])]
    # an omitted block takes its model's default: Scenario's params, or Thresholds()
    params = {"params": build("params", _params, top["params"])} if "params" in top else {}
    thresholds = build("thresholds", _thresholds, top["thresholds"]) if "thresholds" in top else Thresholds()
    bystanders = tuple(b for b in bystanders if b is not None)
    consumers = tuple(c for c in consumers if c is not None)
    query_time, seed = top["query_time"], top["seed"]
    violations += scenario_violations(session, provider, bystanders, consumers, query_time, seed)
    if violations:
        return None, None, violations
    scenario = Scenario(session, provider, bystanders, consumers, query_time=query_time, seed=seed, **params)
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
    except (ValueError, RecursionError) as e:  # JSONDecodeError, non-UTF-8 bytes, deep nesting
        raise ConfigError(f"{path}: not valid JSON ({e})") from None
