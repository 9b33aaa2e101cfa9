#!/usr/bin/env python3
"""Reference client for the model_server binary protocol.

Speaks the length-prefixed frame format of src/serve/protocol.hpp over an
AF_UNIX stream socket:

  frame   = u32 magic "RSF1" | u8 type | u32 payload_len | payload
            | u32 crc32(everything before the crc)
  payload = little-endian scalars; strings are u32 length + bytes; Real is
            the IEEE-754 binary64 bit pattern as u64.

Subcommands mirror the server's request set (list_models, eval, eval_batch,
yield, worst_case, reload), plus three CI helpers:

  malformed — sends a deliberately corrupted frame and asserts the server
              answers a clean protocol-error frame and closes the
              connection (no crash, no hang);
  smoke     — the serve-smoke CI sequence: list_models, eval, eval_batch,
              yield, worst_case, pipelined requests (several frames in one
              write, one frame split across two writes at an odd byte),
              then the malformed-frame check, asserting sane values
              throughout. Exits nonzero on the first failure.
  hammer    — the serve-chaos overload sequence: blasts a burst of eval
              frames past the server's admission budget without reading,
              asserts at least one structured `overloaded` shed and at
              least one success, then retries every shed frame with
              exponential backoff and asserts all retries land.

Requests shed with an `overloaded` error frame are retryable by contract:
the frame carries a u32 retry-after hint (milliseconds) after the message,
and `Client.request` honors it with exponential backoff up to --max-retries
attempts within the --deadline budget (0 disables retries).

Examples:
  serve_client.py --socket /tmp/rsm.sock list_models
  serve_client.py --socket /tmp/rsm.sock eval --model sram_delay --point 0,0,1.5
  serve_client.py --socket /tmp/rsm.sock yield --model sram_delay --upper 3
  serve_client.py --socket /tmp/rsm.sock smoke --model sram_delay
"""

from __future__ import annotations

import argparse
import json
import socket
import struct
import sys
import time
import zlib

MAGIC = 0x31465352  # "RSF1" little-endian
HEADER = struct.Struct("<IBI")  # magic, type, payload_len

# Request types. RELOAD is 8: 6|64 would collide with the error frame (70)
# and 7|64 with 71, so the request space skips to the next clean pair.
EVAL, EVAL_BATCH, YIELD, WORST_CASE, LIST_MODELS = 1, 2, 3, 4, 5
RELOAD = 8
# Response types (request | 64) and the error frame.
RESPONSE_BIT = 64
ERROR_RESPONSE = 70

# Mirrors rsm::ErrorCode in src/util/errors.hpp — same order, same names
# (the error frame carries the enum value as a u8 index into this list).
# rsm-lint's error-code-coverage rule cross-checks it against the C++ enum.
ERROR_CODE_NAMES = [
    "ok", "singular-matrix", "no-convergence", "numerical-domain",
    "unclassified", "deadline-exceeded", "io-error", "protocol-error",
    "version-mismatch", "overloaded", "connection-timeout",
]


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    head = HEADER.pack(MAGIC, msg_type, len(payload))
    body = head + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def put_bytes(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<I", len(raw)) + raw


def put_real(x: float) -> bytes:
    return struct.pack("<d", x)


class Reader:
    """Bounds-checked little-endian payload reader."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError(
                f"truncated payload at byte {self.pos} of {len(self.data)}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def real(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode()


class Client:
    def __init__(self, path: str, timeout: float,
                 max_retries: int = 0, deadline: float = 0.0,
                 backoff_base: float = 0.01):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.max_retries = max_retries
        self.deadline = time.monotonic() + deadline if deadline > 0 else None
        self.backoff_base = backoff_base
        self.retries_used = 0

    def close(self) -> None:
        self.sock.close()

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv_frame(self) -> tuple[int, bytes]:
        """Receives one frame; returns (type, payload)."""
        head = self._recv_exact(HEADER.size)
        magic, msg_type, length = HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"bad response magic {magic:#x}")
        rest = self._recv_exact(length + 4)
        payload, (crc,) = rest[:length], struct.unpack("<I", rest[length:])
        if zlib.crc32(head + payload) & 0xFFFFFFFF != crc:
            raise ValueError("response CRC mismatch")
        return msg_type, payload

    def _recv_exact(self, n: int) -> bytes:
        chunks = b""
        while len(chunks) < n:
            chunk = self.sock.recv(n - len(chunks))
            if not chunk:
                raise ConnectionError(
                    f"connection closed after {len(chunks)} of {n} bytes")
            chunks += chunk
        return chunks

    def request(self, msg_type: int, payload: bytes) -> bytes:
        """Sends one request; returns the response payload. An `overloaded`
        error frame is retried with exponential backoff (honoring the
        server's retry-after hint) up to max_retries times within the
        deadline; every other error frame raises ServerError immediately."""
        attempt = 0
        while True:
            try:
                return self.request_once(msg_type, payload)
            except ServerError as err:
                if err.code_name != "overloaded" or attempt >= self.max_retries:
                    raise
                delay = self.backoff_base * (2 ** attempt)
                if err.retry_after_ms is not None:
                    delay = max(delay, err.retry_after_ms / 1000.0)
                if self.deadline is not None and \
                        time.monotonic() + delay > self.deadline:
                    raise
                time.sleep(delay)
                attempt += 1
                self.retries_used += 1

    def request_once(self, msg_type: int, payload: bytes) -> bytes:
        """One send/receive round trip, no retries."""
        self.send_raw(encode_frame(msg_type, payload))
        resp_type, resp = self.recv_frame()
        if resp_type == ERROR_RESPONSE:
            raise parse_server_error(resp)
        if resp_type != (msg_type | RESPONSE_BIT):
            raise ValueError(f"unexpected response type {resp_type}")
        return resp


class ServerError(Exception):
    def __init__(self, code_name: str, message: str,
                 retry_after_ms: int | None = None):
        super().__init__(f"[{code_name}] {message}")
        self.code_name = code_name
        self.retry_after_ms = retry_after_ms


def parse_server_error(payload: bytes) -> ServerError:
    """Decodes an error frame: u8 code, string message, and — only on
    `overloaded` frames — a trailing u32 retry-after hint in ms."""
    reader = Reader(payload)
    code, message = reader.u8(), reader.string()
    name = (ERROR_CODE_NAMES[code]
            if code < len(ERROR_CODE_NAMES) else f"code-{code}")
    retry_after_ms = None
    if name == "overloaded" and reader.pos + 4 <= len(reader.data):
        retry_after_ms = reader.u32()
    return ServerError(name, message, retry_after_ms)


def parse_point(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def model_header(args: argparse.Namespace) -> bytes:
    return put_bytes(args.model) + struct.pack("<I", args.version)


def do_list_models(client: Client, args: argparse.Namespace) -> dict:
    reader = Reader(client.request(LIST_MODELS, b""))
    models = []
    for _ in range(reader.u32()):
        models.append({
            "name": reader.string(),
            "version": reader.u32(),
            "fingerprint": f"{reader.u64():016x}",
            "num_variables": reader.u32(),
            "num_terms": reader.u32(),
        })
    return {"models": models}


def do_eval(client: Client, args: argparse.Namespace) -> dict:
    point = parse_point(args.point)
    payload = model_header(args) + struct.pack("<I", len(point))
    for x in point:
        payload += put_real(x)
    reader = Reader(client.request(EVAL, payload))
    return {"value": reader.real()}


def do_eval_batch(client: Client, args: argparse.Namespace) -> dict:
    rows = [parse_point(r) for r in args.rows.split(";") if r.strip()]
    cols = len(rows[0]) if rows else 0
    payload = model_header(args) + struct.pack("<II", len(rows), cols)
    for row in rows:
        if len(row) != cols:
            raise SystemExit("eval_batch rows must have equal length")
        for x in row:
            payload += put_real(x)
    reader = Reader(client.request(EVAL_BATCH, payload))
    count = reader.u32()
    return {"values": [reader.real() for _ in range(count)]}


def do_yield(client: Client, args: argparse.Namespace) -> dict:
    payload = (model_header(args) + put_real(args.lower) + put_real(args.upper)
               + struct.pack("<QQ", args.num_samples, args.seed))
    reader = Reader(client.request(YIELD, payload))
    return {
        "yield": reader.real(),
        "standard_error": reader.real(),
        "num_samples": reader.u64(),
        "num_failures": reader.u64(),
    }


def do_worst_case(client: Client, args: argparse.Namespace) -> dict:
    payload = (model_header(args) + put_real(args.radius)
               + struct.pack("<B", 0 if args.minimize else 1))
    reader = Reader(client.request(WORST_CASE, payload))
    result = {
        "value": reader.real(),
        "sigma_distance": reader.real(),
        "iterations": reader.u32(),
        "converged": bool(reader.u8()),
    }
    n = reader.u32()
    corner = [reader.real() for _ in range(n)]
    if args.show_corner:
        result["corner"] = corner
    return result


def do_malformed(client: Client, args: argparse.Namespace) -> dict:
    """Corrupts one byte of a valid frame; the server must answer a
    protocol-error frame and close the connection."""
    frame = bytearray(encode_frame(LIST_MODELS, b""))
    frame[-1] ^= 0xFF  # flip a CRC byte: a complete frame that cannot verify
    client.send_raw(bytes(frame))
    resp_type, payload = client.recv_frame()
    if resp_type != ERROR_RESPONSE:
        raise SystemExit(f"expected error frame, got type {resp_type}")
    reader = Reader(payload)
    code, message = reader.u8(), reader.string()
    if ERROR_CODE_NAMES[code] != "protocol-error":
        raise SystemExit(f"expected protocol-error, got code {code}")
    # After a framing error the server closes the stream; a subsequent read
    # must see EOF rather than hang or crash the server.
    try:
        extra = client.sock.recv(1)
    except (ConnectionError, OSError):
        extra = b""
    if extra:
        raise SystemExit("server kept the connection open after framing error")
    return {"error_code": "protocol-error", "message": message,
            "connection_closed": True}


def do_pipelined(client: Client, args: argparse.Namespace, n: int) -> dict:
    """Sends two evals and an eval_batch in one write, then one eval split
    across two writes at an odd byte; every reply must arrive in order and
    equal, byte for byte, the reply to the same request sent alone."""
    points = [[0.25 * (i % 7) - 0.75 for i in range(n)],
              [0.5 - 0.125 * (i % 5) for i in range(n)],
              [0.0] * n]

    def eval_payload(point: list[float]) -> bytes:
        return (model_header(args) + struct.pack("<I", n)
                + b"".join(put_real(x) for x in point))

    batch_payload = (model_header(args) + struct.pack("<II", len(points), n)
                     + b"".join(put_real(x) for row in points for x in row))
    requests = [(EVAL, eval_payload(points[0])),
                (EVAL, eval_payload(points[1])),
                (EVAL_BATCH, batch_payload)]
    alone = [client.request_once(t, p) for t, p in requests]

    client.send_raw(b"".join(encode_frame(t, p) for t, p in requests))
    for i, ((msg_type, _), want) in enumerate(zip(requests, alone)):
        resp_type, payload = client.recv_frame()
        assert resp_type == msg_type | RESPONSE_BIT, \
            f"pipelined reply {i} has type {resp_type}"
        assert payload == want, f"pipelined reply {i} differs from its " \
            "reply when sent alone"

    frame = encode_frame(EVAL, eval_payload(points[1]))
    cut = len(frame) // 2 | 1
    client.send_raw(frame[:cut])
    time.sleep(0.05)  # let the server read the first part on its own
    client.send_raw(frame[cut:])
    resp_type, payload = client.recv_frame()
    assert resp_type == EVAL | RESPONSE_BIT, f"split reply type {resp_type}"
    assert payload == alone[1], "split frame's reply differs from its reply " \
        "when sent whole"
    return {"pipelined_frames": len(requests), "split_at_byte": cut}


def do_smoke(client: Client, args: argparse.Namespace) -> dict:
    """End-to-end serve-smoke sequence used by CI."""
    listing = do_list_models(client, args)["models"]
    assert listing, "registry served no models"
    target = next((m for m in listing if m["name"] == args.model), None)
    assert target is not None, f"model {args.model!r} not served"
    n = target["num_variables"]

    args.point = ",".join(["0"] * n)
    nominal = do_eval(client, args)["value"]
    assert nominal == nominal, "eval returned NaN"  # noqa: PLR0124

    args.rows = ";".join([args.point, ",".join(["0.5"] * n)])
    batch = do_eval_batch(client, args)["values"]
    assert len(batch) == 2, f"expected 2 batch values, got {len(batch)}"
    assert batch[0] == nominal, "batch row 0 disagrees with scalar eval"

    yres = do_yield(client, args)
    assert 0.0 <= yres["yield"] <= 1.0, f"yield out of range: {yres}"
    assert yres["num_samples"] == args.num_samples

    wres = do_worst_case(client, args)
    assert wres["sigma_distance"] <= args.radius + 1e-9, wres

    pipelined = do_pipelined(client, args, n)

    # Unknown model must earn a structured error, not a dead connection.
    saved, args.model = args.model, "no-such-model"
    try:
        do_eval(client, args)
        raise SystemExit("eval of unknown model unexpectedly succeeded")
    except ServerError as err:
        assert err.code_name == "io-error", err
    args.model = saved

    # Framing corruption closes this connection, so use a fresh one.
    mal_client = Client(args.socket, args.timeout)
    try:
        malformed = do_malformed(mal_client, args)
    finally:
        mal_client.close()

    # The server must still answer on a fresh connection afterwards.
    post = do_list_models(Client(args.socket, args.timeout), args)["models"]
    assert len(post) == len(listing), "listing changed after malformed frame"

    return {
        "models": len(listing),
        "nominal_value": nominal,
        "batch_matches_scalar": True,
        "yield": yres["yield"],
        "worst_case_value": wres["value"],
        "pipelined": pipelined,
        "unknown_model_error": "io-error",
        "malformed_frame": malformed,
        "ok": True,
    }


def do_reload(client: Client, args: argparse.Namespace) -> dict:
    """Asks the server to re-resolve every cached model against the registry
    and swap in the new versions (corrupt versions are skipped: the server
    keeps serving the last-good model and counts the failure)."""
    reader = Reader(client.request(RELOAD, b""))
    return {"reloaded": reader.u32(), "failed": reader.u32()}


def do_hammer(client: Client, args: argparse.Namespace) -> dict:
    """Overload smoke for the serve-chaos CI job: send a burst of eval
    frames in one write without reading any response, so the server's
    admission control must shed; then prove every shed request succeeds on
    retry with backoff while the connection stays healthy."""
    listing = do_list_models(client, args)["models"]
    target = next((m for m in listing if m["name"] == args.model), None)
    assert target is not None, f"model {args.model!r} not served"
    n = target["num_variables"]

    point_payload = (model_header(args) + struct.pack("<I", n)
                     + b"".join(put_real(0.0) for _ in range(n)))
    frame = encode_frame(EVAL, point_payload)

    client.send_raw(frame * args.burst)
    ok = shed = 0
    shed_hint = None
    for _ in range(args.burst):
        resp_type, payload = client.recv_frame()
        if resp_type == EVAL | RESPONSE_BIT:
            ok += 1
        elif resp_type == ERROR_RESPONSE:
            err = parse_server_error(payload)
            assert err.code_name == "overloaded", \
                f"burst earned unexpected error {err}"
            shed = shed + 1
            shed_hint = err.retry_after_ms
        else:
            raise SystemExit(f"unexpected response type {resp_type}")
    assert ok + shed == args.burst, "response accounting is off"
    assert ok >= 1, "a burst must not starve every request"
    assert shed >= 1, (
        f"burst of {args.burst} never tripped admission control — "
        "is the server running with a small enough budget?")
    if shed_hint is not None:
        assert shed_hint > 0, "overloaded frame carried a zero retry hint"

    # Every shed request must land on retry: pace them one at a time so
    # admission recovers between attempts.
    retried = 0
    for _ in range(shed):
        Reader(client.request(EVAL, point_payload)).real()
        retried += 1

    # The connection survived the whole episode — prove it is still in
    # frame sync with a final structured request.
    assert do_list_models(client, args)["models"], "listing died after burst"
    return {
        "burst": args.burst,
        "ok": ok,
        "shed": shed,
        "retried": retried,
        "retries_used": client.retries_used,
        "retry_after_ms": shed_hint,
    }


COMMANDS = {
    "list_models": do_list_models,
    "eval": do_eval,
    "eval_batch": do_eval_batch,
    "yield": do_yield,
    "worst_case": do_worst_case,
    "reload": do_reload,
    "malformed": do_malformed,
    "smoke": do_smoke,
    "hammer": do_hammer,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--socket", required=True,
                        help="AF_UNIX socket path the server listens on")
    parser.add_argument("--model", default="sram_delay")
    parser.add_argument("--version", type=int, default=0,
                        help="model version; 0 = latest")
    parser.add_argument("--point", default="0",
                        help="comma-separated coordinates for eval")
    parser.add_argument("--rows", default="0",
                        help="semicolon-separated rows for eval_batch")
    parser.add_argument("--lower", type=float, default=float("-inf"))
    parser.add_argument("--upper", type=float, default=3.0)
    parser.add_argument("--num-samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--radius", type=float, default=3.0)
    parser.add_argument("--minimize", action="store_true")
    parser.add_argument("--show-corner", action="store_true")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="socket timeout in seconds")
    parser.add_argument("--max-retries", type=int, default=4,
                        help="retries for overloaded requests (0 disables)")
    parser.add_argument("--deadline", type=float, default=0.0,
                        help="overall retry budget in seconds (0 = none)")
    parser.add_argument("--burst", type=int, default=64,
                        help="frames the hammer command sends in one write")
    args = parser.parse_args()

    client = Client(args.socket, args.timeout, max_retries=args.max_retries,
                    deadline=args.deadline)
    try:
        result = COMMANDS[args.command](client, args)
    except ServerError as err:
        print(json.dumps({"error": str(err)}, indent=2))
        return 1
    finally:
        client.close()
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
