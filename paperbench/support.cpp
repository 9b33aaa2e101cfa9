#include "support.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace paperbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

namespace {

void add_spans(const rsm::obs::SpanStats& node, std::string_view name,
               SpanTotals& out) {
  if (node.name == name) {
    out.count += node.count;
    out.total_seconds += node.total_seconds;
    out.max_seconds = std::max(out.max_seconds, node.max_seconds);
  }
  for (const rsm::obs::SpanStats& child : node.children)
    add_spans(child, name, out);
}

std::string layer_of(std::string_view span) {
  const auto starts = [&](std::string_view prefix) {
    return span.substr(0, prefix.size()) == prefix;
  };
  if (span == "pipeline.design_matrix") return "basis";
  if (starts("cv.") || span == "pipeline.cross_validation") return "cv";
  if (starts("omp.") || starts("lar.") || starts("star.")) return "solver";
  if (starts("pipeline.")) return "pipeline";
  if (starts("bench.")) return "bench";
  return "other";
}

void add_self(const rsm::obs::SpanStats& node,
              std::map<std::string, double>& out) {
  double children = 0;
  for (const rsm::obs::SpanStats& child : node.children) {
    children += child.total_seconds;
    add_self(child, out);
  }
  out[layer_of(node.name)] += std::max(0.0, node.total_seconds - children);
}

}  // namespace

SpanTotals sum_spans(const rsm::obs::SpanStats& tree, std::string_view name) {
  SpanTotals out;
  add_spans(tree, name, out);
  return out;
}

SpanTotals sum_spans(const std::vector<rsm::obs::ThreadSpanStats>& threads,
                     std::string_view name) {
  SpanTotals out;
  for (const rsm::obs::ThreadSpanStats& t : threads)
    add_spans(t.tree, name, out);
  return out;
}

std::map<std::string, double> self_seconds_by_layer(
    const rsm::obs::SpanStats& node) {
  std::map<std::string, double> out;
  add_self(node, out);
  return out;
}

void collect_spans(const rsm::obs::SpanStats& tree, std::string_view name,
                   std::vector<const rsm::obs::SpanStats*>& out) {
  if (tree.name == name) {
    out.push_back(&tree);
    return;
  }
  for (const rsm::obs::SpanStats& child : tree.children)
    collect_spans(child, name, out);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

CacheSizes cache_sizes() {
  CacheSizes out;
#ifdef _SC_LEVEL2_CACHE_SIZE
  out.l2_bytes = std::max(0L, sysconf(_SC_LEVEL2_CACHE_SIZE));
#endif
#ifdef _SC_LEVEL3_CACHE_SIZE
  out.l3_bytes = std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE));
#endif
  return out;
}

bool bit_identical(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void Report::set(std::string_view name, double value) {
  values_[std::string(name)] = value;
}

void Report::absent(std::string_view name, std::string reason) {
  values_[std::string(name)] = 0;
  absent_[std::string(name)] = std::move(reason);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::add_operations(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

int Report::print(const Args& args, std::span<const std::string> names,
                  std::span<const std::string> units) const {
  std::printf("seed %llu  workload %s  trace %d\n",
              static_cast<unsigned long long>(args.seed),
              args.workload.c_str(), args.trace ? 1 : 0);
  std::printf("operations attempted %lld failed %lld failed_frac %.6g\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), failed_frac());
  bool complete = true;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = values_.find(names[i]);
    if (it == values_.end() || !std::isfinite(it->second)) {
      std::printf("missing metric %s\n", names[i].c_str());
      complete = false;
      continue;
    }
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second);
    const auto why = absent_.find(names[i]);
    if (why != absent_.end()) {
      std::printf("absent %-30s %s\n", names[i].c_str(), why->second.c_str());
    } else {
      std::printf("metric %-30s %s %s\n", names[i].c_str(), value,
                  units[i].c_str());
    }
    if (json.back() != '{') json += ", ";
    json += "\"" + names[i] + "\": {\"value\": " + value + ", \"unit\": \"" +
            units[i] + "\"}";
  }
  json += "}}";
  for (const std::string& failure : failures_)
    std::printf("CORRECTNESS FAILURE: %s\n", failure.c_str());
  if (!complete) return 2;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace paperbench
