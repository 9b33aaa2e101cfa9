#include "util/cancellation.hpp"

#include <limits>
#include <sstream>

#include "util/errors.hpp"

namespace rsm {

double Deadline::remaining_seconds() const {
  if (!limited_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(at_ - Clock::now()).count();
}

Deadline Deadline::sooner(const Deadline& a, const Deadline& b) {
  if (!a.limited_) return b;
  if (!b.limited_) return a;
  return a.at_ <= b.at_ ? a : b;
}

void RunControl::check(const char* where, Index sample) const {
  if (cancel.cancelled()) {
    std::ostringstream os;
    os << "cancellation requested while in " << where;
    throw DeadlineExceededError(os.str(), where, sample);
  }
  if (deadline.expired()) {
    std::ostringstream os;
    os << "deadline expired while in " << where << " ("
       << -deadline.remaining_seconds() << " s past)";
    throw DeadlineExceededError(os.str(), where, sample);
  }
}

namespace detail {
thread_local const ScopedRunControl* g_run_control_top = nullptr;
}

ScopedRunControl::ScopedRunControl(RunControl control)
    : control_(std::move(control)), prev_(detail::g_run_control_top) {
  detail::g_run_control_top = this;
}

ScopedRunControl::~ScopedRunControl() { detail::g_run_control_top = prev_; }

const ScopedRunControl* current_run_controls() {
  return detail::g_run_control_top;
}

AdoptedRunControls::AdoptedRunControls(const ScopedRunControl* controls)
    : prev_(detail::g_run_control_top) {
  detail::g_run_control_top = controls;
}

AdoptedRunControls::~AdoptedRunControls() {
  detail::g_run_control_top = prev_;
}

void check_cooperative_stop(const char* where, Index sample) {
  for (const ScopedRunControl* s = detail::g_run_control_top; s != nullptr;
       s = s->prev_) {
    s->control_.check(where, sample);
  }
}

bool cooperative_stop_requested() {
  for (const ScopedRunControl* s = detail::g_run_control_top; s != nullptr;
       s = s->prev_) {
    if (s->control_.should_stop()) return true;
  }
  return false;
}

}  // namespace rsm
