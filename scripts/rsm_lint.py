#!/usr/bin/env python3
"""rsm-lint: project-specific invariant checker for the sparse-RSM tree.

The campaign/observability/durability layers rely on invariants that the
type system cannot express and unit tests only probe pointwise — this
linter enforces them mechanically (stdlib only, no libclang):

  error-code-coverage   every ErrorCode enumerator is named in
                        error_code_name() and mirrored in the campaign
                        failure-histogram schema (check_bench_json.py);
                        kNumErrorCodes equals the enumerator count; the
                        serving client's ERROR_CODE_NAMES list
                        (serve_client.py) matches the enum in order,
                        since it indexes by the wire u8 code.
  macro-side-effects    RSM_DCHECK / RSM_TRACE_SPAN arguments must be
                        side-effect-free: both compile out (NDEBUG,
                        -DRSM_TRACING=OFF), so a ++/assignment/mutating
                        call inside one silently changes release behavior.
  unseeded-rng          no rand()/srand()/std::random_device outside the
                        seeded RNG factory (src/stats/rng.*) — determinism
                        is the paper's whole point.
  throw-taxonomy        src/ may only throw rsm::Error and its
                        StructuredError subclasses; a bare std:: throw
                        bypasses the campaign retry/quarantine taxonomy.
  include-cpp           no #include of a .cpp file.
  header-hygiene        every src/ header starts with #pragma once; with
                        --emit-header-hygiene the linter also generates
                        one TU per public header so the build proves each
                        header is self-sufficient.
  banned-functions      strcpy/strcat/sprintf/vsprintf/gets/atoi/atol/
                        atof are banned in favor of bounded/checked
                        alternatives (snprintf, std::from_chars, the
                        util/ parsers).
  span-name-literal     RSM_TRACE_SPAN takes a string literal: the span
                        tree stores the char* and compares by pointer, so
                        a dynamic name is a lifetime bug (trace.hpp).
  metric-name-literal   metrics().counter/gauge/histogram names must start
                        with a string literal: dashboards, check_bench_json
                        and bench_compare.py key on stable metric names, so
                        a fully dynamic name silently drops out of every
                        comparison (suffix concatenation onto a literal
                        prefix is fine).
  no-raw-thread         no std::thread/std::jthread/std::async outside
                        src/util/ — all parallelism goes through
                        rsm::ThreadPool so worker retirement, exception
                        backstops, queue draining, and cooperative
                        shutdown hold everywhere (std::this_thread is
                        fine: sleeping/yielding is not spawning).
  no-naked-mutex        no std::mutex/std::shared_mutex/std::lock_guard/
                        std::unique_lock/std::condition_variable & co
                        outside src/util/sync.* — locking goes through
                        rsm::Mutex + MutexLock/ReaderLock/CondVar so
                        every lock carries Clang Thread Safety
                        annotations and a deadlock-detection rank
                        (util/sync.hpp; ranks in docs/static-analysis.md).
  one-wire-codec        no byte-lane shift (`<< (8 * i)` / `>> (8 * i)`)
                        in src/ outside src/io/wire.cpp — checkpoint logs,
                        model artifacts and RSF1 frames all encode and
                        decode little-endian fields through io::put_* and
                        the bounds-checked io::WireReader (io/wire.hpp).

Usage:
  rsm_lint.py                          # lint the whole tree, exit 0/1
  rsm_lint.py --list-rules
  rsm_lint.py --only macro-side-effects,unseeded-rng
  rsm_lint.py --disable banned-functions
  rsm_lint.py path/to/file.cpp ...     # lint specific files
  rsm_lint.py --emit-header-hygiene OUTDIR   # also generate hygiene TUs

Per-line suppression: append a comment `rsm-lint-allow(<rule>)`.
Fixture trees used to test the linter itself live under tests/lint/fixtures
and are skipped unless named explicitly on the command line.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SCAN_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".cpp", ".hpp"}
FIXTURE_MARKER = "lint/fixtures"

ALLOW_RE = re.compile(r"rsm-lint-allow\(([a-z0-9-]+)\)")


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line  # 1-based; 0 = whole file
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else str(self.path)
        return f"{where}: [{self.rule}] {self.message}"


class SourceFile:
    """One scanned file with comment/string-stripped views for matching."""

    def __init__(self, path, root):
        self.path = path
        self.rel = path.relative_to(root).as_posix() if root in path.parents or path == root else path.as_posix()
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.lines = self.text.splitlines()
        self.code_lines = _strip_comments_and_strings(self.text).splitlines()

    def allowed(self, line_no, rule):
        if 1 <= line_no <= len(self.lines):
            for m in ALLOW_RE.finditer(self.lines[line_no - 1]):
                if m.group(1) == rule:
                    return True
        return False


def _strip_comments_and_strings(text):
    """Replaces comment and string/char-literal contents with spaces,
    preserving line structure and the enclosing quote characters."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def _extract_macro_args(code_text, macro):
    """Yields (line_no, argument-text) for each `macro(...)` invocation,
    balancing parentheses (arguments may span lines)."""
    for m in re.finditer(rf"\b{macro}\s*\(", code_text):
        # Skip the macro's own #define.
        line_start = code_text.rfind("\n", 0, m.start()) + 1
        if code_text[line_start:m.start()].lstrip().startswith("#"):
            continue
        depth, i = 1, m.end()
        while i < len(code_text) and depth > 0:
            if code_text[i] == "(":
                depth += 1
            elif code_text[i] == ")":
                depth -= 1
            i += 1
        line_no = code_text.count("\n", 0, m.start()) + 1
        yield line_no, code_text[m.end():i - 1]


# --------------------------------------------------------------------------
# Rules. Each is a function (files, repo_root) -> [Finding].

SIDE_EFFECT_MACROS = ("RSM_DCHECK", "RSM_TRACE_SPAN")
# Assignment that is not ==, !=, <=, >=, or part of a lambda capture init.
ASSIGN_RE = re.compile(r"(?<![=!<>+\-*/%&|^])=(?![=])")
COMPOUND_ASSIGN_RE = re.compile(r"(\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<=|>>=)")
INCDEC_RE = re.compile(r"(\+\+|--)")
MUTATING_CALL_RE = re.compile(
    r"\.\s*(push_back|pop_back|emplace\w*|insert|erase|clear|reset|resize|"
    r"assign|swap|store|fetch_add|fetch_sub|exchange|request_cancel|"
    r"increment|observe|set)\s*\(")


def rule_macro_side_effects(files, _root):
    findings = []
    for f in files:
        code = "\n".join(f.code_lines)
        for macro in SIDE_EFFECT_MACROS:
            for line_no, arg in _extract_macro_args(code, macro):
                if f.allowed(line_no, "macro-side-effects"):
                    continue
                reason = None
                if INCDEC_RE.search(arg):
                    reason = "increment/decrement"
                elif COMPOUND_ASSIGN_RE.search(arg):
                    reason = "compound assignment"
                elif ASSIGN_RE.search(arg):
                    reason = "assignment"
                else:
                    m = MUTATING_CALL_RE.search(arg)
                    if m:
                        reason = f"mutating call .{m.group(1)}()"
                if reason:
                    findings.append(Finding(
                        "macro-side-effects", f.rel, line_no,
                        f"{macro} argument has a side effect ({reason}); "
                        f"it compiles out under NDEBUG/RSM_TRACING=OFF — "
                        f"hoist the expression to a named local"))
    return findings


RNG_RE = re.compile(r"std\s*::\s*random_device|(?<![\w:])s?rand\s*\(")
RNG_FACTORY_PATHS = ("src/stats/rng.hpp", "src/stats/rng.cpp")


def rule_unseeded_rng(files, _root):
    findings = []
    for f in files:
        if f.rel in RNG_FACTORY_PATHS:
            continue
        for i, line in enumerate(f.code_lines, 1):
            if RNG_RE.search(line) and not f.allowed(i, "unseeded-rng"):
                findings.append(Finding(
                    "unseeded-rng", f.rel, i,
                    "nondeterministic RNG source; use the seeded factories "
                    "in src/stats/rng.hpp (determinism invariant)"))
    return findings


RSM_ERROR_TYPES = (
    "Error", "StructuredError", "SingularMatrixError", "ConvergenceError",
    "NumericalDomainError", "DeadlineExceededError", "IoError",
    "ProtocolError", "VersionMismatchError",
)
THROW_RE = re.compile(r"\bthrow\b\s*([^;]*)")


def rule_throw_taxonomy(files, _root):
    allowed_heads = set(RSM_ERROR_TYPES)
    allowed_heads.update("rsm::" + t for t in RSM_ERROR_TYPES)
    findings = []
    for f in files:
        if not f.rel.startswith("src/"):
            continue
        for i, line in enumerate(f.code_lines, 1):
            for m in THROW_RE.finditer(line):
                expr = m.group(1).strip()
                if expr == "" or expr.startswith(")"):  # rethrow `throw;`
                    continue
                head = re.match(r"[A-Za-z_][\w:]*", expr)
                if head and head.group(0) in allowed_heads:
                    continue
                if f.allowed(i, "throw-taxonomy"):
                    continue
                findings.append(Finding(
                    "throw-taxonomy", f.rel, i,
                    f"src/ throws non-taxonomy type "
                    f"`{expr[:40]}`; raise rsm::Error or a StructuredError "
                    f"subclass so the campaign layer can classify it"))
    return findings


INCLUDE_CPP_RE = re.compile(r'#\s*include\s*[<"][^<">]*\.cpp[">]')


def rule_include_cpp(files, _root):
    findings = []
    for f in files:
        # Raw lines: the include path sits inside the (stripped) quotes.
        for i, line in enumerate(f.lines, 1):
            if INCLUDE_CPP_RE.search(line) and not f.allowed(i, "include-cpp"):
                findings.append(Finding(
                    "include-cpp", f.rel, i,
                    "#include of a .cpp file (ODR hazard); include the "
                    "header or add the source to the build"))
    return findings


BANNED_FUNCTIONS = {
    "strcpy": "bounded copy (snprintf / std::string)",
    "strcat": "std::string concatenation",
    "sprintf": "snprintf or std::format-style helpers",
    "vsprintf": "vsnprintf",
    "gets": "std::getline",
    "atoi": "std::from_chars or the util/ checked parsers",
    "atol": "std::from_chars or the util/ checked parsers",
    "atof": "std::from_chars or the util/ checked parsers",
}
BANNED_RE = re.compile(
    r"(?<![\w:.])(" + "|".join(BANNED_FUNCTIONS) + r")\s*\(")


def rule_banned_functions(files, _root):
    findings = []
    for f in files:
        for i, line in enumerate(f.code_lines, 1):
            for m in BANNED_RE.finditer(line):
                if f.allowed(i, "banned-functions"):
                    continue
                name = m.group(1)
                findings.append(Finding(
                    "banned-functions", f.rel, i,
                    f"banned function {name}(); use "
                    f"{BANNED_FUNCTIONS[name]}"))
    return findings


SPAN_LITERAL_RE = re.compile(r'^\s*"')


def rule_span_name_literal(files, _root):
    findings = []
    for f in files:
        code = "\n".join(f.code_lines)
        raw = f.text  # need the original to see the literal's quotes
        for m in re.finditer(r"\bRSM_TRACE_SPAN\s*\(", code):
            line_start = code.rfind("\n", 0, m.start()) + 1
            if code[line_start:m.start()].lstrip().startswith("#"):
                continue
            line_no = code.count("\n", 0, m.start()) + 1
            arg = raw[m.end():raw.find(")", m.end())]
            if not SPAN_LITERAL_RE.search(arg) and \
                    not f.allowed(line_no, "span-name-literal"):
                findings.append(Finding(
                    "span-name-literal", f.rel, line_no,
                    "RSM_TRACE_SPAN name must be a string literal (the "
                    "span tree stores the pointer; see obs/trace.hpp)"))
    return findings


METRIC_CALL_RE = re.compile(r"\.\s*(counter|gauge|histogram)\s*\(")


def rule_metric_name_literal(files, _root):
    # The stripped view preserves offsets and quote characters, so the
    # first argument's leading `"` is visible without consulting raw text.
    findings = []
    for f in files:
        code = "\n".join(f.code_lines)
        for m in METRIC_CALL_RE.finditer(code):
            line_start = code.rfind("\n", 0, m.start()) + 1
            if code[line_start:m.start()].lstrip().startswith("#"):
                continue
            if re.match(r'\s*"', code[m.end():m.end() + 160]):
                continue
            line_no = code.count("\n", 0, m.start()) + 1
            if f.allowed(line_no, "metric-name-literal"):
                continue
            findings.append(Finding(
                "metric-name-literal", f.rel, line_no,
                f"metrics().{m.group(1)}() name should start with a string "
                f"literal so dashboards and bench_compare.py see stable "
                f"keys; hoist intentionally dynamic names behind "
                f"rsm-lint-allow(metric-name-literal)"))
    return findings


# `\s*` around :: keeps `std :: thread` honest; `std::this_thread` cannot
# match because the token after :: must be thread/jthread/async itself.
RAW_THREAD_RE = re.compile(r"\bstd\s*::\s*(thread|jthread|async)\b")
THREAD_HOME_PREFIX = "src/util/"


def rule_no_raw_thread(files, _root):
    findings = []
    for f in files:
        if not f.rel.startswith("src/") or \
                f.rel.startswith(THREAD_HOME_PREFIX):
            continue
        for i, line in enumerate(f.code_lines, 1):
            m = RAW_THREAD_RE.search(line)
            if m and not f.allowed(i, "no-raw-thread"):
                findings.append(Finding(
                    "no-raw-thread", f.rel, i,
                    f"raw std::{m.group(1)} outside src/util/; route "
                    f"parallelism through rsm::ThreadPool "
                    f"(util/thread_pool.hpp) so retirement, exception "
                    f"backstops, and cooperative shutdown apply"))
    return findings


# Every raw locking vocabulary item the sync layer wraps. Matching the type
# name (not just declarations) also catches std::lock_guard<std::mutex>
# locals, member declarations, and template arguments in one pass.
NAKED_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(mutex|shared_mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_timed_mutex|lock_guard|unique_lock|"
    r"shared_lock|scoped_lock|condition_variable|condition_variable_any)\b")
SYNC_HOME_PATHS = ("src/util/sync.hpp", "src/util/sync.cpp")


def rule_no_naked_mutex(files, _root):
    findings = []
    for f in files:
        if f.rel in SYNC_HOME_PATHS:
            continue
        for i, line in enumerate(f.code_lines, 1):
            m = NAKED_MUTEX_RE.search(line)
            if m and not f.allowed(i, "no-naked-mutex"):
                findings.append(Finding(
                    "no-naked-mutex", f.rel, i,
                    f"raw std::{m.group(1)} outside src/util/sync.*; use "
                    f"rsm::Mutex + MutexLock/ReaderLock/CondVar "
                    f"(util/sync.hpp) so the lock carries thread-safety "
                    f"annotations and a deadlock-detection rank"))
    return findings


# A shift by a multiple of 8 indexed by a loop variable splits or assembles
# an integer one byte at a time: the job io/wire.cpp does once, bounds
# checks included.
BYTE_LANE_SHIFT_RE = re.compile(
    r"(?:<<|>>)\s*\(\s*(?:8\s*\*\s*\w+|\w+\s*\*\s*8)\s*\)")
WIRE_HOME_PATH = "src/io/wire.cpp"


def rule_one_wire_codec(files, _root):
    findings = []
    for f in files:
        if not f.rel.startswith("src/") or f.rel == WIRE_HOME_PATH:
            continue
        for i, line in enumerate(f.code_lines, 1):
            if BYTE_LANE_SHIFT_RE.search(line) and \
                    not f.allowed(i, "one-wire-codec"):
                findings.append(Finding(
                    "one-wire-codec", f.rel, i,
                    "byte-lane shift outside src/io/wire.cpp; encode and "
                    "decode little-endian fields through io::put_* and "
                    "io::WireReader (io/wire.hpp) so every byte format "
                    "shares one bounds-checked codec"))
    return findings


PRAGMA_ONCE_RE = re.compile(r"^#\s*pragma\s+once", re.MULTILINE)


def rule_header_hygiene(files, _root):
    findings = []
    for f in files:
        if not f.rel.startswith("src/") or not f.rel.endswith(".hpp"):
            continue
        if not PRAGMA_ONCE_RE.search(f.text):
            findings.append(Finding(
                "header-hygiene", f.rel, 0,
                "src/ header lacks #pragma once"))
    return findings


ENUMERATOR_RE = re.compile(r"^\s*(k[A-Z]\w*)\s*(?:=\s*[\w:]+\s*)?,", re.MULTILINE)
NUM_CODES_RE = re.compile(r"kNumErrorCodes\s*=\s*(\d+)")
CASE_RE = re.compile(
    r"case\s+ErrorCode::(k\w+)\s*:\s*return\s*\"([^\"]*)\"")


def rule_error_code_coverage(files, root):
    findings = []
    hpp = root / "src/util/errors.hpp"
    cpp = root / "src/util/errors.cpp"
    checker = root / "scripts/check_bench_json.py"
    if not hpp.exists() or not cpp.exists():
        return findings
    hpp_text = hpp.read_text(encoding="utf-8")
    enum_match = re.search(r"enum\s+class\s+ErrorCode\s*\{(.*?)\};",
                           hpp_text, re.DOTALL)
    if not enum_match:
        findings.append(Finding("error-code-coverage", "src/util/errors.hpp",
                                0, "could not locate `enum class ErrorCode`"))
        return findings
    enumerators = ENUMERATOR_RE.findall(
        _strip_comments_and_strings(enum_match.group(1)))
    cpp_text = cpp.read_text(encoding="utf-8")
    name_map = dict(CASE_RE.findall(cpp_text))

    for enumerator in enumerators:
        if enumerator not in name_map:
            findings.append(Finding(
                "error-code-coverage", "src/util/errors.cpp", 0,
                f"ErrorCode::{enumerator} has no case in error_code_name() "
                f"— reports would print '?' for it"))
    num_match = NUM_CODES_RE.search(hpp_text)
    if not num_match:
        findings.append(Finding("error-code-coverage", "src/util/errors.hpp",
                                0, "kNumErrorCodes definition not found"))
    elif int(num_match.group(1)) != len(enumerators):
        findings.append(Finding(
            "error-code-coverage", "src/util/errors.hpp", 0,
            f"kNumErrorCodes = {num_match.group(1)} but ErrorCode has "
            f"{len(enumerators)} enumerators; the campaign failure "
            f"histogram is indexed by code and would drop the tail"))
    if checker.exists():
        checker_text = checker.read_text(encoding="utf-8")
        for enumerator, dashed in name_map.items():
            if enumerator not in enumerators:
                continue
            if dashed == "ok":
                continue  # kOk is a success marker, not a failure bucket
            if f'"{dashed}"' not in checker_text:
                findings.append(Finding(
                    "error-code-coverage", "scripts/check_bench_json.py", 0,
                    f"error code name \"{dashed}\" "
                    f"(ErrorCode::{enumerator}) missing from the campaign "
                    f"report schema's ERROR_CODE_NAMES"))

    # serve_client.py decodes error frames by *indexing* its list with the
    # u8 enum value, so unlike the schema check above the list must match
    # the C++ enum in ORDER, not just membership.
    client = root / "scripts/serve_client.py"
    if client.exists():
        client_text = client.read_text(encoding="utf-8")
        list_match = re.search(
            r"ERROR_CODE_NAMES\s*=\s*\[(.*?)\]", client_text, re.DOTALL)
        if not list_match:
            findings.append(Finding(
                "error-code-coverage", "scripts/serve_client.py", 0,
                "ERROR_CODE_NAMES list not found"))
        else:
            client_names = re.findall(r'"([^"]*)"', list_match.group(1))
            cpp_names = [name_map.get(e, "?") for e in enumerators]
            if client_names != cpp_names:
                findings.append(Finding(
                    "error-code-coverage", "scripts/serve_client.py", 0,
                    f"ERROR_CODE_NAMES {client_names} does not match the "
                    f"C++ enum order {cpp_names}; the client indexes this "
                    f"list with the wire u8 code, so order is load-bearing"))
    return findings


RULES = {
    "error-code-coverage": rule_error_code_coverage,
    "macro-side-effects": rule_macro_side_effects,
    "unseeded-rng": rule_unseeded_rng,
    "throw-taxonomy": rule_throw_taxonomy,
    "include-cpp": rule_include_cpp,
    "header-hygiene": rule_header_hygiene,
    "banned-functions": rule_banned_functions,
    "span-name-literal": rule_span_name_literal,
    "metric-name-literal": rule_metric_name_literal,
    "no-raw-thread": rule_no_raw_thread,
    "no-naked-mutex": rule_no_naked_mutex,
    "one-wire-codec": rule_one_wire_codec,
}


# --------------------------------------------------------------------------
# Header-hygiene TU generation: one translation unit per src/ header so the
# build proves every public header compiles in isolation.

HYGIENE_PREAMBLE = """\
// GENERATED by scripts/rsm_lint.py --emit-header-hygiene — do not edit.
// Compiling this TU proves the header is self-sufficient.
"""


def emit_header_hygiene(root, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    headers = sorted(
        p.relative_to(root / "src").as_posix()
        for p in (root / "src").rglob("*.hpp"))
    sources = []
    for idx, header in enumerate(headers):
        stem = re.sub(r"[^A-Za-z0-9]", "_", header)
        name = f"hh_{idx:03d}_{stem}.cpp"
        (out_dir / name).write_text(
            f'{HYGIENE_PREAMBLE}#include "{header}"\n', encoding="utf-8")
        sources.append(name)
    # Prune TUs for headers that no longer exist.
    keep = set(sources)
    for stale in out_dir.glob("hh_*.cpp"):
        if stale.name not in keep:
            stale.unlink()
    listing = "".join(f"  ${{CMAKE_CURRENT_BINARY_DIR}}/header_hygiene/{s}\n"
                      for s in sources)
    (out_dir / "headers.cmake").write_text(
        "# GENERATED by scripts/rsm_lint.py --emit-header-hygiene.\n"
        f"set(RSM_HEADER_HYGIENE_SOURCES\n{listing})\n", encoding="utf-8")
    return len(headers)


# --------------------------------------------------------------------------

def collect_files(root, explicit_paths, include_fixtures):
    paths = []
    if explicit_paths:
        for p in explicit_paths:
            path = Path(p).resolve()
            if path.is_dir():
                paths.extend(sorted(path.rglob("*")))
            else:
                paths.append(path)
    else:
        for d in SCAN_DIRS:
            base = root / d
            if base.is_dir():
                paths.extend(sorted(base.rglob("*")))
    files = []
    for path in paths:
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        rel = path.as_posix()
        if FIXTURE_MARKER in rel and not (include_fixtures or explicit_paths):
            continue
        files.append(SourceFile(path, root))
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: whole tree)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the script's parent's parent)")
    parser.add_argument("--only", default="",
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--disable", default="",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--include-fixtures", action="store_true",
                        help="also scan tests/lint/fixtures")
    parser.add_argument("--emit-header-hygiene", metavar="OUTDIR",
                        help="write per-header compile-check TUs and a "
                             "headers.cmake listing into OUTDIR")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parent.parent

    selected = dict(RULES)
    if args.only:
        wanted = [r.strip() for r in args.only.split(",") if r.strip()]
        unknown = [r for r in wanted if r not in RULES]
        if unknown:
            print(f"rsm-lint: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        selected = {r: RULES[r] for r in wanted}
    for rule in (r.strip() for r in args.disable.split(",") if r.strip()):
        if rule not in RULES:
            print(f"rsm-lint: unknown rule: {rule}", file=sys.stderr)
            return 2
        selected.pop(rule, None)

    if args.emit_header_hygiene:
        count = emit_header_hygiene(root, Path(args.emit_header_hygiene))
        print(f"rsm-lint: emitted {count} header-hygiene TUs")

    files = collect_files(root, args.paths, args.include_fixtures)
    findings = []
    for rule_fn in selected.values():
        findings.extend(rule_fn(files, root))
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))
    for finding in findings:
        print(finding)
    if findings:
        print(f"rsm-lint: {len(findings)} finding(s) across "
              f"{len(selected)} rule(s)", file=sys.stderr)
        return 1
    print(f"rsm-lint: clean ({len(files)} files, {len(selected)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
