// Serving-layer benchmark: fit once offline, evaluate millions online.
//
//   build/bench/model_serve [--rows 32] [--cols 32] [--train-samples 500]
//
// Fits the Table-IV-scale SRAM read-delay model (32x32 array, 1086
// variables, OMP at K = 500 like bench/table4_sram.cpp), pushes it through
// the registry round trip (save -> load must reproduce predict() and
// gradient() bit for bit), then measures the serving hot paths:
//
//   * scalar  — SparseModel::predict one point at a time (the eval RPC);
//   * batched — SparseModel::predict_batch over a batch-size sweep (the
//     eval_batch RPC), reported as throughput and speedup vs scalar; each
//     of these sweeps is timed kTimingRepeats times and reports the median;
//   * protocol — deterministic frame round-trip / corruption counts for the
//     wire layer (every corrupted frame must be rejected), and the codec's
//     encode / decode rates on a 256-row eval_batch frame (2.2 MB at the
//     default 1086 variables, the size paperbench's sram_paper serves);
//   * server — a ModelServer driven synchronously over socketpairs through
//     poll_once(), so the overload / deadline / hot-reload counters are
//     exact integers: a 12-frame burst against a pending cap of 4 sheds
//     exactly 8 while a healthy connection is untouched, a half-frame past
//     the read deadline times out exactly once, and one good + one corrupt
//     registry publish yield exactly one reload and one reload failure.
//
// The paper context for the headline number: one Spectre SRAM sample costs
// 29.13 s; a fitted model served at >1e6 evals/s replaces simulation at a
// >3e7x per-point ratio, which is what makes model-based yield/worst-case
// sweeps (figs 4-6) interactive instead of cluster-scale.
//
// BENCH_model_serve.json: deterministic science (dimensions, lambda, test
// error, round-trip bits, checksums, protocol counts, the batch frame's size
// and CRC) is exact-gated by scripts/bench_compare.py; throughput keys are
// time-like and stay informational. --min-evals-per-second /
// --min-batch-speedup / --min-decode-mb-per-s turn the acceptance
// thresholds into hard exit-status checks.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "io/crc32.hpp"
#include "io/wire.hpp"
#include "serve/model_codec.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "stats/lhs.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

/// Bit-level equality: distinguishes -0.0 from 0.0 and treats equal NaN
/// patterns as equal, which is exactly the "same artifact" claim the
/// registry makes.
bool same_bits(rsm::Real a, rsm::Real b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Each throughput sweep runs this many times and reports its median time,
/// so one sweep that loses the core on a shared machine does not set it.
constexpr int kTimingRepeats = 5;

/// Median wall time of kTimingRepeats calls of `sweep`.
template <class Sweep>
double median_seconds(Sweep&& sweep) {
  std::array<double, kTimingRepeats> seconds{};
  for (double& s : seconds) {
    rsm::WallTimer timer;
    sweep();
    s = timer.seconds();
  }
  std::ranges::nth_element(seconds, seconds.begin() + kTimingRepeats / 2);
  return seconds[kTimingRepeats / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rsm;
  using namespace rsm::bench;
  CliArgs args;
  args.add_option("rows", "32", "SRAM rows");
  args.add_option("cols", "32", "SRAM columns");
  args.add_option("train-samples", "500", "OMP training samples");
  args.add_option("scalar-evals", "1000000", "single-point predict calls");
  args.add_option("batch-rows", "2097152", "total rows per batch-size sweep");
  args.add_option("min-evals-per-second", "0",
                  "fail unless scalar throughput reaches this (0 = report "
                  "only)");
  args.add_option("min-batch-speedup", "0",
                  "fail unless batch-1024 speedup reaches this (0 = report "
                  "only)");
  args.add_option("min-decode-mb-per-s", "0",
                  "fail unless eval_batch frame decode reaches this many "
                  "MB/s (0 = report only)");
  args.parse(argc, argv);
  if (args.help_requested()) {
    std::printf("%s", args.usage("model_serve").c_str());
    return 0;
  }

  sram::SramConfig cfg;
  cfg.rows = args.get_int("rows");
  cfg.cols = args.get_int("cols");
  const sram::SramWorkload sram(cfg);
  const Index n = sram.num_variables();
  auto dict = std::make_shared<BasisDictionary>(BasisDictionary::linear(n));

  print_header("Model serving: registry round trip and evaluation throughput",
               std::to_string(n) + " variables, OMP fit at K = " +
                   args.get("train-samples"));

  BenchReport bench_report("model_serve");
  bench_report.results().set("variables", static_cast<std::int64_t>(n));
  bench_report.results().set("coefficients",
                             static_cast<std::int64_t>(dict->size()));

  // ---- Fit offline (the Table IV OMP recipe). ----
  Rng rng(44);
  const Index k_train = args.get_int("train-samples");
  const SramSamples train = simulate_sram(sram, k_train, rng);
  const SramSamples test = simulate_sram(sram, 1000, rng);
  BuildOptions opt;
  opt.method = Method::kOmp;
  opt.max_lambda = 80;
  WallTimer fit_timer;
  const BuildReport fit = build_model(dict, train.inputs, train.delays, opt);
  const double fit_seconds = fit_timer.seconds();
  const SparseModel& model = fit.model;
  const Real test_error = validate_model(model, test.inputs, test.delays);
  std::printf("fit: lambda=%ld, test error %.2f%%, %.1f s (paper-equiv "
              "simulation for K=%ld: %s)\n",
              static_cast<long>(fit.lambda), 100.0 * test_error, fit_seconds,
              static_cast<long>(k_train),
              format_seconds(static_cast<double>(k_train) *
                             kSramSimSecondsPerSample)
                  .c_str());
  bench_report.results().set("training_samples",
                             static_cast<std::int64_t>(k_train));
  bench_report.results().set("lambda", static_cast<std::int64_t>(fit.lambda));
  bench_report.results().set("test_error", static_cast<double>(test_error));
  bench_report.results().set("fit_seconds", fit_seconds);

  // ---- Registry round trip: save -> load must be the same function. ----
  const std::filesystem::path reg_root =
      std::filesystem::temp_directory_path() / "rsm_bench_model_serve";
  std::filesystem::remove_all(reg_root);
  serve::ModelRegistry registry(reg_root.string());
  const std::uint32_t version = registry.save("sram_delay", model);
  const SparseModel loaded = registry.load("sram_delay", version);

  Rng probe_rng(7);
  const Index kProbe = 1000;
  const Matrix probes = monte_carlo_normal(kProbe, n, probe_rng);
  bool predict_identical = true;
  bool gradient_identical = true;
  for (Index r = 0; r < kProbe; ++r) {
    if (!same_bits(model.predict(probes.row(r)),
                   loaded.predict(probes.row(r))))
      predict_identical = false;
    const std::vector<Real> ga = model.gradient(probes.row(r));
    const std::vector<Real> gb = loaded.gradient(probes.row(r));
    for (Index j = 0; j < n; ++j)
      if (!same_bits(ga[static_cast<std::size_t>(j)],
                     gb[static_cast<std::size_t>(j)]))
        gradient_identical = false;
  }
  std::printf("registry round trip over %ld probes: predict %s, gradient "
              "%s\n",
              static_cast<long>(kProbe),
              predict_identical ? "bit-identical" : "DIVERGED",
              gradient_identical ? "bit-identical" : "DIVERGED");
  obs::JsonValue round_trip = obs::JsonValue::object();
  round_trip.set("probes", static_cast<std::int64_t>(kProbe));
  round_trip.set("predict_identical", predict_identical);
  round_trip.set("gradient_identical", gradient_identical);
  round_trip.set("version", static_cast<std::int64_t>(version));
  char fingerprint_hex[17];
  std::snprintf(fingerprint_hex, sizeof fingerprint_hex, "%016llx",
                static_cast<unsigned long long>(
                    serve::dictionary_fingerprint(model.dictionary())));
  round_trip.set("dictionary_fingerprint", fingerprint_hex);
  bench_report.results().set("round_trip", std::move(round_trip));
  std::filesystem::remove_all(reg_root);

  // ---- Scalar throughput: the eval RPC hot path. ----
  const Index scalar_evals = args.get_int("scalar-evals");
  Real scalar_checksum = 0;
  const double scalar_seconds = median_seconds([&] {
    scalar_checksum = 0;
    for (Index i = 0; i < scalar_evals; ++i)
      scalar_checksum += model.predict(probes.row(i % kProbe));
  });
  const double scalar_eps =
      static_cast<double>(scalar_evals) / scalar_seconds;
  std::printf("scalar: %ld evals in %.3f s (median of %d sweeps) = %.2fM "
              "evals/s\n",
              static_cast<long>(scalar_evals), scalar_seconds,
              kTimingRepeats, scalar_eps / 1e6);
  obs::JsonValue scalar_json = obs::JsonValue::object();
  scalar_json.set("evals", static_cast<std::int64_t>(scalar_evals));
  scalar_json.set("checksum", static_cast<double>(scalar_checksum));
  scalar_json.set("seconds", scalar_seconds);
  scalar_json.set("evals_per_second", scalar_eps);
  bench_report.results().set("scalar", std::move(scalar_json));

  // ---- Batch sweep: the eval_batch RPC hot path. ----
  const Index batch_rows_total = args.get_int("batch-rows");
  const Index kBatchSizes[] = {16, 64, 256, 1024, 4096};
  Table table({"batch size", "rows", "Mevals/s", "speedup vs scalar"});
  obs::JsonValue batch_json = obs::JsonValue::object();
  double speedup_1024 = 0;
  for (const Index batch : kBatchSizes) {
    Matrix block(batch, n);
    for (Index r = 0; r < batch; ++r)
      std::copy(probes.row(r % kProbe).begin(), probes.row(r % kProbe).end(),
                block.row(r).begin());
    std::vector<Real> out(static_cast<std::size_t>(batch));
    const Index reps = batch_rows_total / batch;
    Real batch_checksum = 0;
    const double seconds = median_seconds([&] {
      batch_checksum = 0;
      for (Index rep = 0; rep < reps; ++rep) {
        model.predict_batch(block, out);
        batch_checksum += out[static_cast<std::size_t>(rep) %
                              static_cast<std::size_t>(batch)];
      }
    });
    const double eps = static_cast<double>(reps * batch) / seconds;
    const double speedup = eps / scalar_eps;
    if (batch == 1024) speedup_1024 = speedup;
    table.add_row({std::to_string(batch),
                   std::to_string(reps * batch),
                   format_sig(eps / 1e6, 3),
                   format_sig(speedup, 3) + "x"});
    obs::JsonValue entry = obs::JsonValue::object();
    entry.set("rows", static_cast<std::int64_t>(reps * batch));
    entry.set("checksum", static_cast<double>(batch_checksum));
    entry.set("evals_per_second", eps);
    entry.set("speedup_vs_scalar", speedup);
    batch_json.set(std::to_string(batch), std::move(entry));
  }
  bench_report.results().set("batch", std::move(batch_json));
  bench_report.results().set("timing_repeats",
                             static_cast<std::int64_t>(kTimingRepeats));
  std::printf("\n%s\n", table.render().c_str());

  // ---- Protocol layer: deterministic framing counts. ----
  const Index kFrames = 256;
  Index frames_round_tripped = 0;
  Index corrupted_rejected = 0;
  for (Index i = 0; i < kFrames; ++i) {
    std::string payload(static_cast<std::size_t>(1 + i % 97), '\0');
    for (std::size_t b = 0; b < payload.size(); ++b)
      payload[b] = static_cast<char>((static_cast<Index>(b) * 31 + i) % 251);
    std::string buffer = serve::encode_frame(
        serve::MessageType::kEvalRequest, payload);
    auto frame = serve::try_extract_frame(buffer);
    if (frame && frame->payload == payload && buffer.empty())
      ++frames_round_tripped;

    std::string corrupt = serve::encode_frame(
        serve::MessageType::kEvalRequest, payload);
    corrupt[corrupt.size() - 1 - static_cast<std::size_t>(i) % 4] ^=
        static_cast<char>(0x40);  // flip one CRC bit
    try {
      (void)serve::try_extract_frame(corrupt);
    } catch (const ProtocolError&) {
      ++corrupted_rejected;
    }
  }
  std::printf("protocol: %ld/%ld frames round-tripped, %ld/%ld corrupted "
              "frames rejected\n",
              static_cast<long>(frames_round_tripped),
              static_cast<long>(kFrames),
              static_cast<long>(corrupted_rejected),
              static_cast<long>(kFrames));

  // Codec rates on one eval_batch request frame, timed the way the server
  // and a client spend them: encode is payload assembly plus encode_frame,
  // decode is peek_frame (the CRC check) plus reading the samples back.
  const Index kBatchFrameRows = 256;
  const int kCodecReps = 64;
  std::string batch_payload;
  std::string batch_frame;
  WallTimer encode_timer;
  for (int rep = 0; rep < kCodecReps; ++rep) {
    batch_payload.clear();
    io::put_bytes(batch_payload, "srv");
    io::put_u32(batch_payload, 0);
    io::put_u32(batch_payload, static_cast<std::uint32_t>(kBatchFrameRows));
    io::put_u32(batch_payload, static_cast<std::uint32_t>(n));
    for (Index r = 0; r < kBatchFrameRows; ++r)
      io::put_reals(batch_payload, probes.row(r));
    batch_frame = serve::encode_frame(serve::MessageType::kEvalBatchRequest,
                                      batch_payload);
  }
  const double encode_seconds = encode_timer.seconds();
  std::vector<Real> decoded(static_cast<std::size_t>(kBatchFrameRows * n));
  bool batch_frame_decoded = true;
  WallTimer decode_timer;
  for (int rep = 0; rep < kCodecReps; ++rep) {
    const serve::FrameView view = serve::peek_frame(batch_frame).value();
    io::WireReader in(view.payload, "eval_batch frame");
    (void)in.bytes();  // model name
    (void)in.u32();    // version
    const std::uint32_t rows = in.u32();
    const std::uint32_t cols = in.u32();
    const io::RealsView samples = in.reals(decoded.size());
    for (std::size_t i = 0; i < samples.size(); ++i) decoded[i] = samples[i];
    in.expect_done();
    if (rows != static_cast<std::uint32_t>(kBatchFrameRows) ||
        cols != static_cast<std::uint32_t>(n))
      batch_frame_decoded = false;
  }
  const double decode_seconds = decode_timer.seconds();
  for (Index r = 0; r < kBatchFrameRows; ++r)
    for (Index j = 0; j < n; ++j)
      if (!same_bits(decoded[static_cast<std::size_t>(r * n + j)],
                     probes(r, j)))
        batch_frame_decoded = false;
  const double codec_mb = static_cast<double>(kCodecReps) *
                          static_cast<double>(batch_frame.size()) / 1e6;
  const double encode_mbps = codec_mb / encode_seconds;
  const double decode_mbps = codec_mb / decode_seconds;
  const std::uint32_t batch_frame_crc =
      io::crc32(batch_frame.data(), batch_frame.size() - 4);
  std::printf("protocol: %ld-row eval_batch frame of %zu bytes (crc "
              "%08x, %s): encode %.0f MB/s, decode %.0f MB/s\n",
              static_cast<long>(kBatchFrameRows), batch_frame.size(),
              batch_frame_crc,
              batch_frame_decoded ? "round-trips" : "DIVERGED", encode_mbps,
              decode_mbps);

  obs::JsonValue protocol_json = obs::JsonValue::object();
  protocol_json.set("frames_round_tripped",
                    static_cast<std::int64_t>(frames_round_tripped));
  protocol_json.set("corrupted_frames_rejected",
                    static_cast<std::int64_t>(corrupted_rejected));
  protocol_json.set("frames_attempted", static_cast<std::int64_t>(kFrames));
  protocol_json.set("batch_frame_bytes",
                    static_cast<std::int64_t>(batch_frame.size()));
  protocol_json.set("batch_frame_crc",
                    static_cast<std::int64_t>(batch_frame_crc));
  protocol_json.set("encode_mb_per_second", encode_mbps);
  protocol_json.set("decode_mb_per_second", decode_mbps);
  bench_report.results().set("protocol", std::move(protocol_json));

  // ---- Server: exact overload / deadline / reload counters. ----
  // The server is driven synchronously: connections are socketpair ends
  // adopted via adopt_connection() and every cycle is an explicit
  // poll_once() call, so recv segmentation cannot smear a burst across
  // cycles and every counter below is a deterministic integer that
  // bench_compare.py gates exactly.
  const std::filesystem::path srv_root =
      std::filesystem::temp_directory_path() / "rsm_bench_model_serve_srv";
  std::filesystem::remove_all(srv_root);
  serve::ModelRegistry srv_registry(srv_root.string());
  srv_registry.save("srv", model);

  serve::ServerOptions srv_options;
  srv_options.socket_path = (srv_root / "bench.sock").string();
  srv_options.registry_root = srv_root.string();
  srv_options.num_threads = 1;
  srv_options.max_inflight_requests = 8;
  srv_options.max_pending_per_connection = 4;
  srv_options.retry_after_ms = 25;
  srv_options.read_timeout_seconds = 0.05;
  serve::ModelServer server(std::move(srv_options));

  auto make_pair_fd = [&](int& client_fd) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw IoError("socketpair() failed");
    client_fd = fds[0];
    server.adopt_connection(fds[1]);
  };
  auto pump = [](int fd, std::string& buf) {
    char tmp[65536];
    while (true) {
      const ssize_t r = ::recv(fd, tmp, sizeof(tmp), MSG_DONTWAIT);
      if (r <= 0) break;
      buf.append(tmp, static_cast<std::size_t>(r));
    }
  };

  std::string eval_payload;
  io::put_bytes(eval_payload, "srv");
  io::put_u32(eval_payload, 0);  // version 0 = latest
  io::put_u32(eval_payload, static_cast<std::uint32_t>(n));
  for (Index j = 0; j < n; ++j) io::put_real(eval_payload, 0);
  const std::string eval_frame =
      serve::encode_frame(serve::MessageType::kEvalRequest, eval_payload);

  int burst_fd = -1;
  int healthy_fd = -1;
  make_pair_fd(burst_fd);
  make_pair_fd(healthy_fd);

  // One 12-frame burst and one healthy single request, same poll cycle:
  // the per-connection cap (4) sheds exactly 8 of the burst, the global
  // budget (8) still has room, and the healthy connection is untouched.
  // The burst uses list_models frames (13 bytes each) so all 12 arrive in
  // the event loop's single recv for that cycle — an eval frame carries
  // n doubles and would smear the burst across cycles, each with a fresh
  // admission budget.
  const std::string list_frame =
      serve::encode_frame(serve::MessageType::kListModelsRequest, "");
  std::string burst_bytes;
  for (int i = 0; i < 12; ++i) burst_bytes += list_frame;
  (void)::send(burst_fd, burst_bytes.data(), burst_bytes.size(), MSG_NOSIGNAL);
  (void)::send(healthy_fd, eval_frame.data(), eval_frame.size(), MSG_NOSIGNAL);
  server.poll_once(0);
  server.poll_once(0);

  std::string burst_rx;
  std::string healthy_rx;
  pump(burst_fd, burst_rx);
  pump(healthy_fd, healthy_rx);
  Index burst_answered = 0;
  Index burst_overloaded = 0;
  std::int64_t retry_hint_ms = -1;
  while (auto f = serve::try_extract_frame(burst_rx)) {
    if (f->type == serve::MessageType::kListModelsResponse) ++burst_answered;
    if (f->type == serve::MessageType::kErrorResponse) {
      io::WireReader in(f->payload, "error frame");
      const std::uint8_t code = in.u8();
      (void)in.bytes();  // message
      if (code == static_cast<std::uint8_t>(ErrorCode::kOverloaded)) {
        ++burst_overloaded;
        retry_hint_ms = static_cast<std::int64_t>(in.u32());
      }
    }
  }
  Index healthy_evals = 0;
  while (auto f = serve::try_extract_frame(healthy_rx))
    if (f->type == serve::MessageType::kEvalResponse) ++healthy_evals;

  // Hot reload: one good publish swaps, one corrupt publish fails closed.
  const std::string reload_frame =
      serve::encode_frame(serve::MessageType::kReloadRequest, "");
  std::uint32_t reload_counts[2][2] = {{0, 0}, {0, 0}};
  for (int round = 0; round < 2; ++round) {
    const std::uint32_t version = srv_registry.save("srv", model);
    if (round == 1) {
      // Publish a corrupt artifact as the newest version: the reload must
      // reject it (CRC) and the server must keep serving the last-good one.
      std::ofstream corrupt(srv_registry.path_for("srv", version),
                            std::ios::binary | std::ios::trunc);
      corrupt << "not a model";
    }
    (void)::send(healthy_fd, reload_frame.data(), reload_frame.size(),
                 MSG_NOSIGNAL);
    server.poll_once(0);
    std::string rx;
    pump(healthy_fd, rx);
    if (auto f = serve::try_extract_frame(rx);
        f && f->type == serve::MessageType::kReloadResponse) {
      io::WireReader in(f->payload, "reload response");
      reload_counts[round][0] = in.u32();
      reload_counts[round][1] = in.u32();
    }
  }
  // After the failed swap the server must keep answering evals from the
  // last-good version.
  (void)::send(healthy_fd, eval_frame.data(), eval_frame.size(), MSG_NOSIGNAL);
  server.poll_once(0);
  std::string post_rx;
  pump(healthy_fd, post_rx);
  Index post_reload_evals = 0;
  while (auto f = serve::try_extract_frame(post_rx))
    if (f->type == serve::MessageType::kEvalResponse) ++post_reload_evals;

  // Slow loris: a half frame past the read deadline times out exactly once.
  int loris_fd = -1;
  make_pair_fd(loris_fd);
  (void)::send(loris_fd, eval_frame.data(), 5, MSG_NOSIGNAL);
  server.poll_once(0);   // ingest the partial frame, arm the read deadline
  server.poll_once(70);  // idle past the 50 ms deadline, then enforce it
  server.poll_once(0);
  std::string loris_rx;
  pump(loris_fd, loris_rx);
  Index loris_timeouts = 0;
  while (auto f = serve::try_extract_frame(loris_rx)) {
    if (f->type != serve::MessageType::kErrorResponse) continue;
    io::WireReader in(f->payload, "error frame");
    if (in.u8() == static_cast<std::uint8_t>(ErrorCode::kConnectionTimeout))
      ++loris_timeouts;
  }

  ::close(burst_fd);
  ::close(healthy_fd);
  ::close(loris_fd);

  const serve::ServerStats& server_stats = server.stats();
  std::printf("server: %llu requests = %llu accepted + %llu shed "
              "(burst saw %ld answers / %ld overloaded, retry hint %lld ms, "
              "healthy saw %ld), reloads %llu/%llu failed, read-deadline "
              "timeouts %llu\n",
              static_cast<unsigned long long>(server_stats.requests_served),
              static_cast<unsigned long long>(server_stats.requests_admitted),
              static_cast<unsigned long long>(server_stats.requests_shed),
              static_cast<long>(burst_answered),
              static_cast<long>(burst_overloaded),
              static_cast<long long>(retry_hint_ms),
              static_cast<long>(healthy_evals),
              static_cast<unsigned long long>(server_stats.reloads),
              static_cast<unsigned long long>(server_stats.reload_failures),
              static_cast<unsigned long long>(
                  server_stats.connections_timed_out));
  obs::JsonValue server_json = obs::JsonValue::object();
  server_json.set("requests",
                  static_cast<std::int64_t>(server_stats.requests_served));
  server_json.set("accepted",
                  static_cast<std::int64_t>(server_stats.requests_admitted));
  server_json.set("shed",
                  static_cast<std::int64_t>(server_stats.requests_shed));
  server_json.set("timed_out", static_cast<std::int64_t>(
                                   server_stats.connections_timed_out));
  server_json.set("idle_closed",
                  static_cast<std::int64_t>(server_stats.idle_closed));
  server_json.set("reloads",
                  static_cast<std::int64_t>(server_stats.reloads));
  server_json.set("reload_failures",
                  static_cast<std::int64_t>(server_stats.reload_failures));
  server_json.set("burst_overloaded",
                  static_cast<std::int64_t>(burst_overloaded));
  server_json.set("healthy_evals",
                  static_cast<std::int64_t>(healthy_evals));
  server_json.set("retry_after_hint_ms",
                  static_cast<std::int64_t>(retry_hint_ms));
  bench_report.results().set("server", std::move(server_json));
  std::filesystem::remove_all(srv_root);

  const bool server_ok =
      burst_answered == 4 && burst_overloaded == 8 && healthy_evals == 1 &&
      retry_hint_ms == 25 && post_reload_evals == 1 && loris_timeouts == 1 &&
      reload_counts[0][0] == 1 && reload_counts[0][1] == 0 &&
      reload_counts[1][0] == 0 && reload_counts[1][1] == 1 &&
      server_stats.requests_shed == 8 &&
      server_stats.requests_admitted + server_stats.requests_shed ==
          server_stats.requests_served &&
      server_stats.reload_failures == 1 &&
      server_stats.connections_timed_out == 1;
  if (!server_ok)
    std::fprintf(stderr, "FAIL: server overload/deadline/reload counters "
                         "diverged from the deterministic script\n");

  print_paper_reference({
      "One Spectre SRAM sample costs 29.13 s (Table IV); a served model at",
      ">1e6 evals/s replaces it at a >3e7x per-point ratio, which is what",
      "turns yield and worst-case sweeps (figs 4-6) interactive."});

  bool ok = predict_identical && gradient_identical &&
            frames_round_tripped == kFrames && corrupted_rejected == kFrames &&
            batch_frame_decoded && server_ok;
  const double min_eps = args.get_double("min-evals-per-second");
  if (min_eps > 0 && scalar_eps < min_eps) {
    std::fprintf(stderr, "FAIL: scalar %.0f evals/s < required %.0f\n",
                 scalar_eps, min_eps);
    ok = false;
  }
  const double min_speedup = args.get_double("min-batch-speedup");
  if (min_speedup > 0 && speedup_1024 < min_speedup) {
    std::fprintf(stderr, "FAIL: batch-1024 speedup %.2fx < required %.2fx\n",
                 speedup_1024, min_speedup);
    ok = false;
  }
  const double min_decode = args.get_double("min-decode-mb-per-s");
  if (min_decode > 0 && decode_mbps < min_decode) {
    std::fprintf(stderr, "FAIL: frame decode %.0f MB/s < required %.0f\n",
                 decode_mbps, min_decode);
    ok = false;
  }
  if (!ok) std::fprintf(stderr, "model_serve: acceptance checks failed\n");
  return ok ? 0 : 1;
}
