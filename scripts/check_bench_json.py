#!/usr/bin/env python3
"""Validate BENCH_<name>.json reports emitted by the bench binaries.

Checks (stdlib only, exit status 0 = all files valid):
  * schema_version in {1, 2} and every top-level key of that version
    present (v2 adds the "resources" block — older v1 reports, e.g. the
    committed BENCH_campaign_parallel.json baseline, stay valid);
  * the span tree is well-formed (recursive field/type checks, min <= max,
    children are trees);
  * metrics arrays carry the expected sample shapes;
  * telemetry is either null or {records, dropped} with per-type field
    checks on every record;
  * per-solver residual norms in solver_iteration records are monotonically
    non-increasing in step order;
  * when results.methods.OMP.fit_seconds is present, the "omp.fit" span
    subtree accounts for >= 90% of it (the ISSUE acceptance criterion);
  * every embedded campaign report (an object carrying "attempted" and
    "failed_attempts_by_code", wherever it sits under results) is
    internally consistent: durability fields present and typed, error
    histogram covers the full taxonomy (including "deadline-exceeded" and
    "io-error"), quarantine reasons bounded to 256 bytes, counts add up;
  * the parallel-executor "execution" object (when present): workers >= 1,
    scheduling counters non-negative, and workers_quarantined < workers
    (the pool never retires its last worker); likewise the optional
    checkpoint shard-merge counters, the pool-telemetry fields
    (pool_queue_highwater, pool_backpressure_stalls, busy/idle seconds,
    progress_heartbeats), and the nested resource-usage block;
  * tool == "model_serve" reports (bench/model_serve.cpp): the registry
    round-trip block must attest bit-identical predict AND gradient, the
    scalar block must carry a positive throughput, the batch sweep must be
    a non-empty map of positive-integer batch sizes each with rows /
    checksum / evals_per_second / speedup_vs_scalar, the protocol
    counters must show every attempted frame round-tripped and every
    corrupted frame rejected, and the eval_batch codec frame must carry
    its byte count, a u32 CRC and non-negative encode/decode MB/s rates;
  * tool == "model_server" reports (examples/model_server.cpp --report):
    serving counters present, non-negative, and internally consistent
    (evals <= requests served).

Usage: check_bench_json.py BENCH_a.json [BENCH_b.json ...]
"""

import json
import sys

SUPPORTED_SCHEMA_VERSIONS = (1, 2)
TOP_LEVEL_KEYS = (
    "schema_version", "tool", "generated_unix_ms", "tracing", "spans",
    "metrics", "telemetry", "results",
)
V2_TOP_LEVEL_KEYS = TOP_LEVEL_KEYS + ("resources",)
RESOURCE_INT_KEYS = (
    "max_rss_kb", "current_rss_kb", "minor_faults", "major_faults",
    "voluntary_ctx_switches", "involuntary_ctx_switches",
)
RESOURCE_FLOAT_KEYS = ("user_cpu_seconds", "system_cpu_seconds")
SPAN_KEYS = (
    "name", "count", "total_seconds", "min_seconds", "max_seconds",
    "cpu_seconds", "children",
)
RECORD_FIELDS = {
    "solver_iteration": {
        "solver": str, "step": int, "selected": int,
        "max_correlation": (int, float, type(None)),
        "residual_norm": (int, float, type(None)), "active_count": int,
    },
    "cv_fold": {
        "solver": str, "fold": int, "path_steps": int, "best_lambda": int,
        "best_rmse": (int, float, type(None)), "skipped": bool,
    },
    "campaign_sample": {
        "sample": int, "attempts": int, "succeeded": bool,
        "recovered": bool, "error_code": str,
    },
}


ERROR_CODE_NAMES = (
    "ok", "singular-matrix", "no-convergence", "numerical-domain",
    "unclassified", "deadline-exceeded", "io-error", "protocol-error",
    "version-mismatch", "overloaded", "connection-timeout",
)
MAX_QUARANTINE_REASON = 256
CAMPAIGN_CHECKPOINT_COUNTERS = (
    "records", "flushes", "rewrites", "resumed_samples",
)


class ValidationError(Exception):
    pass


def fail(path, message):
    raise ValidationError(f"{path}: {message}")


def check_number(doc_path, node, key):
    value = node.get(key)
    # Non-finite doubles serialize as null; accept that.
    if value is not None and not isinstance(value, (int, float)):
        fail(doc_path, f"'{key}' must be a number or null, got {value!r}")


def check_span(doc_path, node, depth=0):
    if depth > 200:
        fail(doc_path, "span tree deeper than 200 levels")
    if not isinstance(node, dict):
        fail(doc_path, f"span node must be an object, got {type(node).__name__}")
    for key in SPAN_KEYS:
        if key not in node:
            fail(doc_path, f"span node missing '{key}'")
    if not isinstance(node["name"], str):
        fail(doc_path, "span 'name' must be a string")
    if not isinstance(node["count"], int) or node["count"] < 0:
        fail(doc_path, f"span '{node['name']}' has bad count {node['count']!r}")
    for key in ("total_seconds", "min_seconds", "max_seconds", "cpu_seconds"):
        check_number(doc_path, node, key)
    if node["count"] > 0 and None not in (node["min_seconds"], node["max_seconds"]):
        if node["min_seconds"] > node["max_seconds"]:
            fail(doc_path, f"span '{node['name']}': min > max")
    if not isinstance(node["children"], list):
        fail(doc_path, f"span '{node['name']}': children must be an array")
    for child in node["children"]:
        check_span(doc_path, child, depth + 1)


def check_metrics(doc_path, metrics):
    if not isinstance(metrics, dict):
        fail(doc_path, "'metrics' must be an object")
    for kind in ("counters", "gauges", "histograms"):
        samples = metrics.get(kind)
        if not isinstance(samples, list):
            fail(doc_path, f"metrics.{kind} must be an array")
        for sample in samples:
            if not isinstance(sample.get("name"), str):
                fail(doc_path, f"metrics.{kind} entry without a string name")
            if kind == "histograms":
                bounds = sample.get("upper_bounds")
                counts = sample.get("bucket_counts")
                if not isinstance(bounds, list) or not isinstance(counts, list):
                    fail(doc_path, f"histogram '{sample['name']}' malformed")
                if len(counts) != len(bounds) + 1:
                    fail(doc_path,
                         f"histogram '{sample['name']}': {len(counts)} buckets "
                         f"for {len(bounds)} bounds (want bounds+1)")
                if sum(counts) != sample.get("count"):
                    fail(doc_path,
                         f"histogram '{sample['name']}': bucket sum "
                         f"{sum(counts)} != count {sample.get('count')}")
            else:
                check_number(doc_path, sample, "value")


def check_telemetry(doc_path, telemetry):
    if telemetry is None:
        return []
    if not isinstance(telemetry, dict):
        fail(doc_path, "'telemetry' must be null or an object")
    records = telemetry.get("records")
    if not isinstance(records, list):
        fail(doc_path, "telemetry.records must be an array")
    if not isinstance(telemetry.get("dropped"), int):
        fail(doc_path, "telemetry.dropped must be an integer")
    for i, record in enumerate(records):
        rtype = record.get("type")
        fields = RECORD_FIELDS.get(rtype)
        if fields is None:
            fail(doc_path, f"record {i}: unknown type {rtype!r}")
        for field, expected in fields.items():
            if field not in record:
                fail(doc_path, f"record {i} ({rtype}): missing '{field}'")
            value = record[field]
            if not isinstance(value, expected) or isinstance(value, bool) != (
                    expected is bool):
                fail(doc_path,
                     f"record {i} ({rtype}): '{field}' has bad value {value!r}")
    return records


def check_residual_monotonicity(doc_path, records):
    """Within each uninterrupted per-solver fit, residuals must not grow."""
    previous = {}  # solver -> (step, residual_norm)
    for record in records:
        if record.get("type") != "solver_iteration":
            continue
        solver = record["solver"]
        step, norm = record["step"], record["residual_norm"]
        if norm is None:
            continue
        last = previous.get(solver)
        # step resets to 0 at the start of each new fit.
        if last is not None and step == last[0] + 1 and norm > last[1] + 1e-9:
            fail(doc_path,
                 f"{solver} residual rose at step {step}: "
                 f"{last[1]} -> {norm}")
        previous[solver] = (step, norm)


def total_named(node, name):
    """Sum of total_seconds over every span named `name` (like
    SpanStats::total_named: subtrees under a matching node are not
    double-counted because a span cannot nest inside itself except as a
    recursion chain, which the total already includes)."""
    if node.get("name") == name:
        return node.get("total_seconds") or 0.0
    return sum(total_named(child, name)
               for child in node.get("children", []))


def check_omp_fit_coverage(doc_path, doc):
    methods = doc.get("results", {}).get("methods")
    if not isinstance(methods, dict):
        return None
    fit_seconds = methods.get("OMP", {}).get("fit_seconds")
    if not isinstance(fit_seconds, (int, float)) or fit_seconds <= 0:
        return None
    if not doc["tracing"]["compiled"] or not doc["tracing"]["enabled"]:
        return None
    covered = total_named(doc["spans"], "omp.fit")
    if covered == 0.0:
        fail(doc_path, "results report OMP fit_seconds but no 'omp.fit' span")
    ratio = covered / fit_seconds
    if ratio < 0.90:
        fail(doc_path,
             f"'omp.fit' spans cover only {ratio:.1%} of OMP fit_seconds "
             f"({covered:.4f}s of {fit_seconds:.4f}s)")
    return ratio


def check_resources(doc_path, where, resources):
    """Validates a resource-usage block (schema v2; obs/resource.hpp).
    Used both for the top-level "resources" sample and for the delta nested
    in a campaign report's execution object."""
    def bad(message):
        fail(doc_path, f"resources at {where}: {message}")

    if not isinstance(resources, dict):
        bad("must be an object")
    if not isinstance(resources.get("valid"), bool):
        bad("'valid' must be a boolean")
    for key in RESOURCE_INT_KEYS:
        value = resources.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            bad(f"'{key}' must be a non-negative integer, got {value!r}")
    for key in RESOURCE_FLOAT_KEYS:
        value = resources.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or value < 0:
            bad(f"'{key}' must be a non-negative number, got {value!r}")
    # No current_rss <= max_rss cross-check: ru_maxrss is updated lazily by
    # the kernel and can trail /proc/self/statm by a page or two.


def is_campaign_report(node):
    return (isinstance(node, dict) and "attempted" in node
            and "failed_attempts_by_code" in node)


def check_campaign_report(doc_path, where, report):
    def bad(message):
        fail(doc_path, f"campaign report at {where}: {message}")

    for key in ("attempted", "succeeded", "recovered", "total_retries"):
        if not isinstance(report.get(key), int) or report[key] < 0:
            bad(f"'{key}' must be a non-negative integer")
    for key in ("fit_allowed", "truncated"):
        if not isinstance(report.get(key), bool):
            bad(f"'{key}' must be a boolean")
    for key in ("success_fraction", "min_success_fraction"):
        if not isinstance(report.get(key), (int, float)):
            bad(f"'{key}' must be a number")
    if report["succeeded"] > report["attempted"]:
        bad(f"succeeded {report['succeeded']} > attempted "
            f"{report['attempted']}")

    checkpoint = report.get("checkpoint")
    if not isinstance(checkpoint, dict):
        bad("'checkpoint' must be an object")
    for key in CAMPAIGN_CHECKPOINT_COUNTERS:
        if not isinstance(checkpoint.get(key), int) or checkpoint[key] < 0:
            bad(f"checkpoint.{key} must be a non-negative integer")
    if not isinstance(checkpoint.get("failed"), bool):
        bad("checkpoint.failed must be a boolean")
    # Shard-merge counters (emitted since the parallel executor landed);
    # optional so pre-shard reports stay valid.
    for key in ("shards_merged", "shards_recovered", "shard_duplicate_rows"):
        if key in checkpoint and (not isinstance(checkpoint[key], int)
                                  or checkpoint[key] < 0):
            bad(f"checkpoint.{key} must be a non-negative integer")

    execution = report.get("execution")
    if execution is not None:
        if not isinstance(execution, dict):
            bad("'execution' must be an object")
        if not isinstance(execution.get("workers"), int) or \
                execution["workers"] < 1:
            bad("execution.workers must be an integer >= 1")
        for key in ("workers_quarantined", "worker_infra_failures",
                    "tasks_stolen"):
            if not isinstance(execution.get(key), int) or execution[key] < 0:
                bad(f"execution.{key} must be a non-negative integer")
        if execution["workers_quarantined"] >= execution["workers"]:
            bad("execution.workers_quarantined must leave at least one "
                "active worker (the pool never retires the last one)")
        # Pool-telemetry and heartbeat fields (emitted since schema v2);
        # optional so v1-era reports stay valid.
        for key in ("pool_queue_highwater", "pool_backpressure_stalls",
                    "progress_heartbeats"):
            if key in execution and (not isinstance(execution[key], int)
                                     or execution[key] < 0):
                bad(f"execution.{key} must be a non-negative integer")
        for key in ("pool_busy_seconds", "pool_idle_seconds"):
            if key in execution and (
                    not isinstance(execution[key], (int, float))
                    or isinstance(execution[key], bool)
                    or execution[key] < 0):
                bad(f"execution.{key} must be a non-negative number")
        if "resources" in execution:
            check_resources(doc_path, f"{where}.execution.resources",
                            execution["resources"])

    histogram = report.get("failed_attempts_by_code")
    if not isinstance(histogram, dict):
        bad("'failed_attempts_by_code' must be an object")
    for name in ERROR_CODE_NAMES:
        if not isinstance(histogram.get(name), int) or histogram[name] < 0:
            bad(f"failed_attempts_by_code missing/invalid '{name}'")
    for name in histogram:
        if name not in ERROR_CODE_NAMES:
            bad(f"failed_attempts_by_code has unknown code '{name}'")

    quarantined = report.get("quarantined")
    if not isinstance(quarantined, list):
        bad("'quarantined' must be an array")
    if len(quarantined) > report["attempted"]:
        bad(f"{len(quarantined)} quarantined > {report['attempted']} "
            "attempted")
    for i, entry in enumerate(quarantined):
        if not isinstance(entry.get("sample"), int) or entry["sample"] < 0:
            bad(f"quarantined[{i}].sample must be a non-negative integer")
        if entry.get("code") not in ERROR_CODE_NAMES or entry["code"] == "ok":
            bad(f"quarantined[{i}].code is {entry.get('code')!r}")
        reason = entry.get("reason")
        if not isinstance(reason, str):
            bad(f"quarantined[{i}].reason must be a string")
        if len(reason.encode("utf-8")) > MAX_QUARANTINE_REASON:
            bad(f"quarantined[{i}].reason exceeds {MAX_QUARANTINE_REASON} "
                "bytes")


def _require_int(doc_path, where, node, key, minimum=0):
    value = node.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or \
            value < minimum:
        fail(doc_path, f"{where}: '{key}' must be an integer >= {minimum}, "
                       f"got {value!r}")
    return value


def _require_number(doc_path, where, node, key, minimum=None):
    value = node.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        fail(doc_path, f"{where}: '{key}' must be a number, got {value!r}")
    if minimum is not None and value < minimum:
        fail(doc_path, f"{where}: '{key}' must be >= {minimum}, got {value!r}")
    return value


def check_model_serve_results(doc_path, results):
    """Shape of bench/model_serve.cpp reports: fit provenance, the
    bit-identical registry round trip, scalar/batched throughput, and the
    wire-protocol robustness counters."""
    for key in ("variables", "coefficients", "training_samples", "lambda"):
        _require_int(doc_path, "results", results, key, minimum=1)
    _require_number(doc_path, "results", results, "test_error", minimum=0)

    round_trip = results.get("round_trip")
    if not isinstance(round_trip, dict):
        fail(doc_path, "results.round_trip must be an object")
    _require_int(doc_path, "round_trip", round_trip, "probes", minimum=1)
    _require_int(doc_path, "round_trip", round_trip, "version", minimum=1)
    for key in ("predict_identical", "gradient_identical"):
        if round_trip.get(key) is not True:
            fail(doc_path,
                 f"round_trip.{key} must be true: the registry must "
                 "reproduce the fitted model bit for bit")
    fingerprint = round_trip.get("dictionary_fingerprint")
    if not isinstance(fingerprint, str) or len(fingerprint) != 16 or \
            any(c not in "0123456789abcdef" for c in fingerprint):
        fail(doc_path, "round_trip.dictionary_fingerprint must be 16 lowercase"
                       f" hex digits, got {fingerprint!r}")

    scalar = results.get("scalar")
    if not isinstance(scalar, dict):
        fail(doc_path, "results.scalar must be an object")
    _require_int(doc_path, "scalar", scalar, "evals", minimum=1)
    _require_number(doc_path, "scalar", scalar, "checksum")
    _require_number(doc_path, "scalar", scalar, "seconds", minimum=0)
    _require_number(doc_path, "scalar", scalar, "evals_per_second", minimum=0)

    batch = results.get("batch")
    if not isinstance(batch, dict) or not batch:
        fail(doc_path, "results.batch must be a non-empty object keyed by "
                       "batch size")
    for size, entry in batch.items():
        where = f"batch[{size}]"
        if not size.isdigit() or int(size) < 1:
            fail(doc_path, f"{where}: key must be a positive integer string")
        if not isinstance(entry, dict):
            fail(doc_path, f"{where}: must be an object")
        _require_int(doc_path, where, entry, "rows", minimum=1)
        _require_number(doc_path, where, entry, "checksum")
        _require_number(doc_path, where, entry, "evals_per_second", minimum=0)
        _require_number(doc_path, where, entry, "speedup_vs_scalar",
                        minimum=0)

    protocol = results.get("protocol")
    if not isinstance(protocol, dict):
        fail(doc_path, "results.protocol must be an object")
    attempted = _require_int(doc_path, "protocol", protocol,
                             "frames_attempted", minimum=1)
    for key in ("frames_round_tripped", "corrupted_frames_rejected"):
        if _require_int(doc_path, "protocol", protocol, key) != attempted:
            fail(doc_path,
                 f"protocol.{key} is {protocol[key]} but {attempted} frames "
                 "were attempted: the wire layer must round-trip every good "
                 "frame and reject every corrupted one")
    _require_int(doc_path, "protocol", protocol, "batch_frame_bytes",
                 minimum=1)
    if _require_int(doc_path, "protocol", protocol,
                    "batch_frame_crc") > 0xFFFFFFFF:
        fail(doc_path, "protocol.batch_frame_crc must fit in a u32, got "
                       f"{protocol['batch_frame_crc']}")
    for key in ("encode_mb_per_second", "decode_mb_per_second"):
        _require_number(doc_path, "protocol", protocol, key, minimum=0)

    check_server_counters(doc_path, "server", results.get("server"))


def check_server_counters(doc_path, where, server):
    """The overload/deadline/reload counter block shared by the model_serve
    bench (`results.server`) and the model_server report (`results`): every
    extracted frame is either admitted or shed, and the reload counters are
    present even when zero so regressions cannot hide as missing keys."""
    if not isinstance(server, dict):
        fail(doc_path, f"results.{where} must be an object"
             if where != "results" else "results must be an object")
    for key in ("accepted", "shed", "timed_out", "idle_closed",
                "reloads", "reload_failures"):
        _require_int(doc_path, where, server, key, minimum=0)
    requests = _require_int(doc_path, where, server, "requests", minimum=0)
    if server["accepted"] + server["shed"] != requests:
        fail(doc_path,
             f"{where}: accepted {server['accepted']} + shed "
             f"{server['shed']} != requests {requests}: admission control "
             "must account for every extracted frame")


def check_model_server_results(doc_path, results):
    """Shape of examples/model_server.cpp --report output."""
    for key in ("connections", "requests", "evals", "batch_rows",
                "protocol_errors", "request_errors"):
        _require_int(doc_path, "results", results, key)
    if not isinstance(results.get("signal_cancelled"), bool):
        fail(doc_path, "results.signal_cancelled must be a boolean")
    if results["evals"] > results["requests"]:
        fail(doc_path, f"results.evals {results['evals']} > requests "
                       f"{results['requests']}: every eval is one request")
    check_server_counters(doc_path, "results", results)


def find_campaign_reports(node, where="results"):
    """Campaign reports may be embedded anywhere under results (e.g.
    clean_report / faulted_report in campaign_overhead, results.campaign in
    durable_campaign); walk the whole value."""
    if is_campaign_report(node):
        yield where, node
        return
    if isinstance(node, dict):
        for key, value in node.items():
            yield from find_campaign_reports(value, f"{where}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from find_campaign_reports(value, f"{where}[{i}]")


def check_file(doc_path):
    with open(doc_path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("schema_version") not in SUPPORTED_SCHEMA_VERSIONS:
        fail(doc_path,
             f"schema_version {doc.get('schema_version')!r} not in "
             f"{SUPPORTED_SCHEMA_VERSIONS}")
    required = (V2_TOP_LEVEL_KEYS if doc["schema_version"] >= 2
                else TOP_LEVEL_KEYS)
    for key in required:
        if key not in doc:
            fail(doc_path, f"missing top-level key '{key}'")
    if not isinstance(doc["tool"], str) or not doc["tool"]:
        fail(doc_path, "'tool' must be a non-empty string")
    if not isinstance(doc["generated_unix_ms"], int) or doc["generated_unix_ms"] <= 0:
        fail(doc_path, "'generated_unix_ms' must be a positive integer")
    tracing = doc["tracing"]
    if not isinstance(tracing, dict) or not all(
            isinstance(tracing.get(k), bool) for k in ("compiled", "enabled")):
        fail(doc_path, "'tracing' must be {compiled: bool, enabled: bool}")
    if not isinstance(doc["results"], dict):
        fail(doc_path, "'results' must be an object")

    check_span(doc_path, doc["spans"])
    if doc["schema_version"] >= 2:
        check_resources(doc_path, "top-level", doc["resources"])
    check_metrics(doc_path, doc["metrics"])
    records = check_telemetry(doc_path, doc["telemetry"])
    check_residual_monotonicity(doc_path, records)
    ratio = check_omp_fit_coverage(doc_path, doc)
    campaign_reports = list(find_campaign_reports(doc["results"]))
    for where, report in campaign_reports:
        check_campaign_report(doc_path, where, report)
    if doc["tool"] == "model_serve":
        check_model_serve_results(doc_path, doc["results"])
    elif doc["tool"] == "model_server":
        check_model_server_results(doc_path, doc["results"])

    detail = f"{len(records)} telemetry records"
    if ratio is not None:
        detail += f", omp.fit covers {ratio:.1%} of OMP fit_seconds"
    if campaign_reports:
        detail += f", {len(campaign_reports)} campaign report(s)"
    print(f"OK {doc_path}: tool={doc['tool']}, {detail}")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for doc_path in argv[1:]:
        try:
            check_file(doc_path)
        except (ValidationError, OSError, json.JSONDecodeError, KeyError,
                TypeError) as error:
            print(f"FAIL {doc_path}: {error}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
