#!/usr/bin/env python3
"""CI validator for catdb.report/v1 artifacts.

Rejects the silent-corruption modes a plain `json.tool` round-trip lets
through:
  * JsonWriter serializes non-finite doubles (inf/NaN from a divide-by-zero
    upstream) as `null` — a syntactically valid report with a poisoned
    scalar. Any `null`, `NaN`, `Infinity` or `-Infinity` anywhere in the
    document fails the check.
  * A report that ran zero cells ("results": []) is vacuous and fails.
  * A wrong or missing schema tag fails, so consumers never parse a layout
    they do not understand.
  * `"kind": "scenario"` result entries (emitted by scenario-file runs) must
    carry a complete summary object — scenario name, sweep kind, positive
    dataset/plan/cell counts, and an `fnv1a:`-prefixed 16-hex-digit digest of
    the canonical scenario text — so a truncated or hand-edited section
    cannot masquerade as a scenario provenance stamp.

Usage: check_report.py <report.json> [<report.json> ...]
"""

import json
import re
import sys

SCHEMA = "catdb.report/v1"

SWEEP_KINDS = ("latency_sweep", "pair_sweep", "serving_sweep")
DIGEST_RE = re.compile(r"^fnv1a:[0-9a-f]{16}$")


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def reject_constant(token):
    # json.load calls this for the bare tokens NaN/Infinity/-Infinity, which
    # the Python parser would otherwise happily accept.
    raise ValueError(f"non-finite JSON constant {token!r}")


def find_null(value, path):
    """Returns the JSON path of the first null in `value`, or None."""
    if value is None:
        return path
    if isinstance(value, dict):
        for k, v in value.items():
            found = find_null(v, f"{path}.{k}")
            if found:
                return found
    elif isinstance(value, list):
        for i, v in enumerate(value):
            found = find_null(v, f"{path}[{i}]")
            if found:
                return found
    return None


def check_scenario_entry(path, i, entry):
    where = f"{path}: results[{i}]"
    summary = entry.get("scenario")
    if not isinstance(summary, dict):
        fail(f"{where}: scenario entry without a `scenario` object")
    for key in ("scenario", "sweep_kind", "digest"):
        if not isinstance(summary.get(key), str) or not summary[key]:
            fail(f"{where}: scenario.{key} must be a nonempty string")
    if summary["sweep_kind"] not in SWEEP_KINDS:
        fail(f"{where}: scenario.sweep_kind is {summary['sweep_kind']!r}, "
             f"want one of {SWEEP_KINDS}")
    # A serving sweep has no datasets/plans, so those may be 0; a scenario
    # that ran zero cells is vacuous.
    for key, lo in (("datasets", 0), ("plans", 0), ("cells", 1)):
        n = summary.get(key)
        if not isinstance(n, int) or isinstance(n, bool) or n < lo:
            fail(f"{where}: scenario.{key} must be an integer >= {lo}")
    if not DIGEST_RE.match(summary["digest"]):
        fail(f"{where}: scenario.digest {summary['digest']!r} does not match "
             f"fnv1a:<16 hex digits>")


def check(path):
    try:
        with open(path) as f:
            report = json.load(f, parse_constant=reject_constant)
    except ValueError as e:
        fail(f"{path}: {e}")
    null_path = find_null(report, "$")
    if null_path:
        fail(f"{path}: null at {null_path} (a non-finite double upstream?)")
    if report.get("schema") != SCHEMA:
        fail(f"{path}: schema is {report.get('schema')!r}, want {SCHEMA!r}")
    results = report.get("results")
    if not isinstance(results, list) or not results:
        fail(f"{path}: no results")
    scenarios = 0
    for i, entry in enumerate(results):
        if isinstance(entry, dict) and entry.get("kind") == "scenario":
            check_scenario_entry(path, i, entry)
            scenarios += 1
    suffix = f", {scenarios} scenario section(s)" if scenarios else ""
    print(f"ok: {path} ({len(results)} results{suffix})")


def main():
    if len(sys.argv) < 2:
        fail(f"usage: {sys.argv[0]} <report.json> [...]")
    for path in sys.argv[1:]:
        check(path)


if __name__ == "__main__":
    main()
