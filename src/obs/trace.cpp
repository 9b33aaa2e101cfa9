#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "obs/env.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace rsm::obs {

double SpanStats::total_named(const std::string& span_name) const {
  double sum = name == span_name ? total_seconds : 0;
  for (const SpanStats& c : children) sum += c.total_named(span_name);
  return sum;
}

const SpanStats* SpanStats::child(const std::string& child_name) const {
  for (const SpanStats& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

namespace detail {

struct SpanNode {
  const char* name = "";
  SpanNode* parent = nullptr;
  std::vector<std::unique_ptr<SpanNode>> children;
  std::uint64_t count = 0;
  double total = 0;
  double min = 0;
  double max = 0;
  double cpu = 0;
};

}  // namespace detail

namespace {

using detail::SpanNode;

/// -1 = uninitialized (environment override not yet applied).
std::atomic<int> g_tracing{-1};

/// Merges `src` into `dst` (same name assumed), matching children by name.
void merge_stats(SpanStats& dst, const SpanStats& src) {
  if (src.count > 0) {
    if (dst.count == 0) {
      dst.min_seconds = src.min_seconds;
    } else {
      dst.min_seconds = std::min(dst.min_seconds, src.min_seconds);
    }
    dst.max_seconds = std::max(dst.max_seconds, src.max_seconds);
  }
  dst.count += src.count;
  dst.total_seconds += src.total_seconds;
  dst.cpu_seconds += src.cpu_seconds;
  for (const SpanStats& child : src.children) {
    SpanStats* match = nullptr;
    for (SpanStats& existing : dst.children) {
      if (existing.name == child.name) {
        match = &existing;
        break;
      }
    }
    if (match == nullptr) {
      dst.children.push_back(child);
    } else {
      merge_stats(*match, child);
    }
  }
}

/// Converts a live node tree to SpanStats, pruning nodes never completed
/// (count == 0 with no completed descendants — e.g. zeroed by
/// reset_tracing while a span was open).
bool snapshot_node(const SpanNode& node, SpanStats& out) {
  out.name = node.name;
  out.count = node.count;
  out.total_seconds = node.total;
  out.min_seconds = node.min;
  out.max_seconds = node.max;
  out.cpu_seconds = node.cpu;
  bool any = node.count > 0;
  for (const auto& child : node.children) {
    SpanStats child_stats;
    if (snapshot_node(*child, child_stats)) {
      out.children.push_back(std::move(child_stats));
      any = true;
    }
  }
  return any;
}

/// The child `name` of `parent`, created when absent.
SpanNode* child_node(SpanNode& parent, const char* name) {
  for (const auto& child : parent.children) {
    // Names are string literals: pointer equality is the common fast case.
    if (child->name == name || std::strcmp(child->name, name) == 0)
      return child.get();
  }
  auto node = std::make_unique<SpanNode>();
  node->name = name;
  node->parent = &parent;
  parent.children.push_back(std::move(node));
  return parent.children.back().get();
}

/// Adds the statistics of every descendant of `src` into the matching
/// descendant of `dst`, creating the ones `dst` lacks.
void merge_children(SpanNode& dst, const SpanNode& src) {
  for (const auto& child : src.children) {
    SpanNode& into = *child_node(dst, child->name);
    if (child->count > 0) {
      into.min = into.count == 0 ? child->min : std::min(into.min, child->min);
      into.max = std::max(into.max, child->max);
    }
    into.count += child->count;
    into.total += child->total;
    into.cpu += child->cpu;
    merge_children(into, *child);
  }
}

void zero_node(SpanNode& node) {
  node.count = 0;
  node.total = node.min = node.max = node.cpu = 0;
  for (auto& child : node.children) zero_node(*child);
}

/// Span statistics of threads that have already exited, kept per-thread
/// (keyed by ordinal) so trace_snapshot() can merge them and
/// trace_snapshot_threads() can attribute spans to their recording thread.
struct Retired {
  Mutex mutex{"obs.trace.retired", lock_rank::kTraceRetired};
  std::vector<ThreadSpanStats> threads
      RSM_GUARDED_BY(mutex);  // ordered by retirement
};

Retired& retired() {
  static Retired r;
  return r;
}

/// Small stable thread ids for exported traces; 0 is reserved for "never
/// recorded a span".
std::atomic<std::uint64_t> g_next_ordinal{1};

/// Per-thread span tree. Recording touches only this — no locks on the hot
/// path. The destructor folds the tree into the retired accumulator.
struct ThreadTree {
  SpanNode root;
  SpanNode* current = &root;
  std::uint64_t ordinal =
      g_next_ordinal.fetch_add(1, std::memory_order_relaxed);

  ThreadTree() {
    (void)retired();  // force construction order: retired outlives us
  }

  ~ThreadTree() {
    SpanStats stats;
    if (!snapshot_node(root, stats)) return;
    Retired& r = retired();
    const MutexLock lock(r.mutex);
    r.threads.push_back({ordinal, std::move(stats)});
  }
};

ThreadTree& thread_tree() {
  thread_local ThreadTree tree;
  return tree;
}

}  // namespace

bool tracing_enabled() {
  if constexpr (!kTracingCompiled) return false;
  int v = g_tracing.load(std::memory_order_relaxed);
  if (v < 0) {
    apply_env_overrides();  // sets the flag (default: enabled)
    v = g_tracing.load(std::memory_order_relaxed);
    if (v < 0) {
      g_tracing.store(1, std::memory_order_relaxed);
      v = 1;
    }
  }
  return v != 0;
}

void set_tracing_enabled(bool enabled) {
  g_tracing.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

SpanStats trace_snapshot() {
  SpanStats merged;
  {
    Retired& r = retired();
    const MutexLock lock(r.mutex);
    for (const ThreadSpanStats& thread : r.threads)
      merge_stats(merged, thread.tree);
  }
  merged.name = "";
  SpanStats live;
  if (snapshot_node(thread_tree().root, live)) merge_stats(merged, live);
  return merged;
}

std::vector<ThreadSpanStats> trace_snapshot_threads() {
  std::vector<ThreadSpanStats> threads;
  {
    Retired& r = retired();
    const MutexLock lock(r.mutex);
    threads = r.threads;
  }
  ThreadTree& tree = thread_tree();
  SpanStats live;
  if (snapshot_node(tree.root, live))
    threads.push_back({tree.ordinal, std::move(live)});
  std::sort(threads.begin(), threads.end(),
            [](const ThreadSpanStats& a, const ThreadSpanStats& b) {
              return a.thread_ordinal < b.thread_ordinal;
            });
  return threads;
}

void reset_tracing() {
  {
    Retired& r = retired();
    const MutexLock lock(r.mutex);
    r.threads.clear();
  }
  // Zero (rather than delete) the calling thread's nodes: ScopedSpans still
  // open on the stack hold pointers into this tree.
  zero_node(thread_tree().root);
}

void traced_parallel_for(ThreadPool* pool, std::size_t count,
                         const std::function<void(std::size_t)>& body) {
  if (pool == nullptr) {
    for (std::size_t part = 0; part < count; ++part) body(part);
    return;
  }
  ThreadTree& caller = thread_tree();
  std::vector<SpanNode> detached(count);
  const auto merge = [&] {
    for (const SpanNode& root : detached)
      merge_children(*caller.current, root);
  };
  try {
    pool->parallel_for(count, [&](std::size_t part) {
      ThreadTree& tree = thread_tree();
      if (&tree == &caller) return body(part);
      SpanNode* const own = tree.current;
      tree.current = &detached[part];
      try {
        body(part);
      } catch (...) {
        tree.current = own;
        throw;
      }
      tree.current = own;
    });
  } catch (...) {
    merge();
    throw;
  }
  merge();
}

namespace detail {

SpanNode* span_push(const char* name) {
  ThreadTree& tree = thread_tree();
  tree.current = child_node(*tree.current, name);
  return tree.current;
}

void span_pop(SpanNode* node, double wall_seconds, double cpu_seconds) {
  ++node->count;
  node->total += wall_seconds;
  node->min = node->count == 1 ? wall_seconds
                               : std::min(node->min, wall_seconds);
  node->max = std::max(node->max, wall_seconds);
  node->cpu += cpu_seconds;
  ThreadTree& tree = thread_tree();
  tree.current = node->parent != nullptr ? node->parent : &tree.root;
}

double cpu_now() { return ThreadCpuTimer::now(); }

}  // namespace detail

}  // namespace rsm::obs
