#!/usr/bin/env python3
"""Tests for scripts/check_bench_json.py (run by ctest as
`scripts.check_bench_json`).

Builds minimal schema-v2 reports in a tempdir and verifies the serve-layer
validation: a well-formed model_serve report passes, and each guarded
defect — unequal protocol counters, a batch frame CRC wider than a u32, a
missing decode rate, a non-bit-identical round trip, a missing batch
table, a malformed fingerprint — fails the gate. Same for
the model_server --report shape (eval/request accounting, the
signal_cancelled flag).

Usage: check_bench_json_test.py <repo_root>
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else \
    Path(__file__).resolve().parent.parent.parent
CHECKER = REPO_ROOT / "scripts" / "check_bench_json.py"


def envelope(tool, results):
    """Smallest document that satisfies the schema-v2 envelope checks."""
    return {
        "schema_version": 2,
        "tool": tool,
        "generated_unix_ms": 1,
        "tracing": {"compiled": False, "enabled": False},
        "spans": {"name": "", "count": 0, "total_seconds": 0,
                  "min_seconds": 0, "max_seconds": 0, "cpu_seconds": 0,
                  "children": []},
        "resources": {"valid": False, "max_rss_kb": 0, "current_rss_kb": 0,
                      "minor_faults": 0, "major_faults": 0,
                      "voluntary_ctx_switches": 0,
                      "involuntary_ctx_switches": 0,
                      "user_cpu_seconds": 0, "system_cpu_seconds": 0},
        "metrics": {"counters": [], "gauges": [], "histograms": []},
        "telemetry": {"records": [], "dropped": 0},
        "results": results,
    }


SERVE_RESULTS = {
    "variables": 6, "coefficients": 7, "training_samples": 40, "lambda": 3,
    "test_error": 0.05, "fit_seconds": 0.01,
    "round_trip": {"probes": 100, "predict_identical": True,
                   "gradient_identical": True, "version": 1,
                   "dictionary_fingerprint": "0123456789abcdef"},
    "scalar": {"evals": 1000, "checksum": 0.25, "seconds": 0.001,
               "evals_per_second": 1.0e6},
    "batch": {"16": {"rows": 4096, "checksum": 0.5,
                     "evals_per_second": 4.0e6, "speedup_vs_scalar": 4.0}},
    "protocol": {"frames_attempted": 64, "frames_round_tripped": 64,
                 "corrupted_frames_rejected": 64,
                 "batch_frame_bytes": 2224160, "batch_frame_crc": 2133988063,
                 "encode_mb_per_second": 1200.0,
                 "decode_mb_per_second": 1600.0},
    "server": {"requests": 16, "accepted": 8, "shed": 8, "timed_out": 1,
               "idle_closed": 0, "reloads": 1, "reload_failures": 1,
               "burst_overloaded": 8, "healthy_evals": 1,
               "retry_after_hint_ms": 25},
}

SERVER_RESULTS = {
    "connections": 3, "requests": 7, "evals": 2, "batch_rows": 128,
    "protocol_errors": 1, "request_errors": 1, "signal_cancelled": True,
    "accepted": 5, "shed": 2, "timed_out": 1, "idle_closed": 0,
    "reloads": 1, "reload_failures": 0,
}

failures = []


def check(condition, label):
    print(("ok   " if condition else "FAIL ") + label)
    if not condition:
        failures.append(label)


def run_checker(tmp, doc, name="report.json"):
    path = Path(tmp) / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(path)],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def serve_doc(mutate=None):
    doc = envelope("model_serve", copy.deepcopy(SERVE_RESULTS))
    if mutate:
        mutate(doc["results"])
    return doc


def server_doc(mutate=None):
    doc = envelope("model_server", copy.deepcopy(SERVER_RESULTS))
    if mutate:
        mutate(doc["results"])
    return doc


def main():
    with tempfile.TemporaryDirectory() as tmp:
        code, out = run_checker(tmp, serve_doc())
        check(code == 0 and "tool=model_serve" in out,
              f"well-formed model_serve report passes\n{out}")

        def unequal_protocol(r):
            r["protocol"]["corrupted_frames_rejected"] = 63
        code, out = run_checker(tmp, serve_doc(unequal_protocol))
        check(code == 1 and "corrupted_frames_rejected" in out,
              "protocol counter short of frames_attempted rejected")

        def wide_crc(r):
            r["protocol"]["batch_frame_crc"] = 1 << 32
        code, out = run_checker(tmp, serve_doc(wide_crc))
        check(code == 1 and "batch_frame_crc" in out,
              "batch frame CRC wider than a u32 rejected")

        def no_decode_rate(r):
            del r["protocol"]["decode_mb_per_second"]
        code, out = run_checker(tmp, serve_doc(no_decode_rate))
        check(code == 1 and "decode_mb_per_second" in out,
              "missing batch frame decode rate rejected")

        def drifted(r):
            r["round_trip"]["predict_identical"] = False
        code, out = run_checker(tmp, serve_doc(drifted))
        check(code == 1 and "predict_identical" in out,
              "non-bit-identical round trip rejected")

        def no_batch(r):
            r["batch"] = {}
        code, out = run_checker(tmp, serve_doc(no_batch))
        check(code == 1 and "batch" in out, "empty batch table rejected")

        def bad_batch_key(r):
            r["batch"]["zero"] = r["batch"].pop("16")
        code, _ = run_checker(tmp, serve_doc(bad_batch_key))
        check(code == 1, "non-numeric batch-size key rejected")

        def bad_fingerprint(r):
            r["round_trip"]["dictionary_fingerprint"] = "0123456789ABCDEF"
        code, out = run_checker(tmp, serve_doc(bad_fingerprint))
        check(code == 1 and "fingerprint" in out,
              "uppercase fingerprint rejected (must be 16 lowercase hex)")

        def no_scalar(r):
            del r["scalar"]
        code, _ = run_checker(tmp, serve_doc(no_scalar))
        check(code == 1, "missing scalar block rejected")

        def bool_lambda(r):
            r["lambda"] = True
        code, _ = run_checker(tmp, serve_doc(bool_lambda))
        check(code == 1, "boolean where integer expected rejected")

        code, out = run_checker(tmp, server_doc())
        check(code == 0 and "tool=model_server" in out,
              f"well-formed model_server report passes\n{out}")

        def more_evals_than_requests(r):
            r["evals"] = r["requests"] + 1
        code, out = run_checker(tmp, server_doc(more_evals_than_requests))
        check(code == 1 and "evals" in out,
              "evals exceeding requests rejected")

        def stringy_flag(r):
            r["signal_cancelled"] = "yes"
        code, _ = run_checker(tmp, server_doc(stringy_flag))
        check(code == 1, "non-boolean signal_cancelled rejected")

        def negative_counter(r):
            r["connections"] = -1
        code, _ = run_checker(tmp, server_doc(negative_counter))
        check(code == 1, "negative connection counter rejected")

        # Overload accounting: every request is exactly one of accepted /
        # shed, in both the bench's server block and the server report.
        def unbalanced_admission(r):
            r["shed"] = r["shed"] + 1
        code, out = run_checker(tmp, server_doc(unbalanced_admission))
        check(code == 1 and "accepted" in out,
              "server report with accepted + shed != requests rejected")
        def unbalanced_bench(r):
            r["server"]["accepted"] = r["server"]["accepted"] - 1
        code, out = run_checker(tmp, serve_doc(unbalanced_bench))
        check(code == 1 and "accepted" in out,
              "bench server block with accepted + shed != requests rejected")

        def missing_shed_counter(r):
            del r["shed"]
        code, out = run_checker(tmp, server_doc(missing_shed_counter))
        check(code == 1 and "shed" in out,
              "server report without shed counter rejected")

        def negative_reloads(r):
            r["server"]["reloads"] = -1
        code, out = run_checker(tmp, serve_doc(negative_reloads))
        check(code == 1 and "reloads" in out,
              "negative reload counter rejected")

        def stringy_timeouts(r):
            r["timed_out"] = "1"
        code, _ = run_checker(tmp, server_doc(stringy_timeouts))
        check(code == 1, "non-integer timed_out counter rejected")

        # The serve checks are keyed on the tool name: other tools with
        # arbitrary results are untouched by them.
        code, _ = run_checker(tmp, envelope("some_other_bench",
                                            {"free_form": 1}))
        check(code == 0, "serve checks do not apply to other tools")

    if failures:
        print(f"\n{len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("\nall check_bench_json self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
