#include "util/fault_injection.hpp"

namespace rsm {

void throw_injected_fault(FaultKind kind, Index sample) {
  switch (kind) {
    case FaultKind::kSingularSolve:
      throw SingularMatrixError("injected singular solve", "fault-injection",
                                sample);
    case FaultKind::kNewtonStall:
      throw ConvergenceError("injected Newton stall", /*iterations=*/0,
                             "fault-injection", sample);
    case FaultKind::kNone: break;
  }
}

}  // namespace rsm
