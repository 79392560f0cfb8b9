// Deterministic fault injection for robustness tests.
//
// Production code declares *injection points* — named places where a
// failure is physically possible (an allocation, a checkpoint write, a
// socket send, a slice cancellation) — by asking the process-wide
// FaultInjector whether to fail here. The injector is always compiled
// in and costs one relaxed atomic load when disarmed, so the exact
// binary that ships is the binary the recovery tests torture.
//
// Two arming modes, both deterministic:
//
//   * Scripted ("point=N"): the Nth hit of `point` fails, every other
//     hit passes. This is how a test aims one ENOSPC at exactly the
//     second checkpoint write.
//   * Seeded (a single uint64): every hit of every point flips a coin
//     drawn from a splitmix64 stream keyed by (seed, point name, hit
//     index). The same seed always fails the same hits — a CI sweep
//     over fixed seeds explores many interleavings reproducibly.
//
// Tests arm programmatically (Configure/Seed/Reset); processes under
// test arm from the environment (SCPM_FAULT_SPEC / SCPM_FAULT_SEED,
// read once at first use), which is how a forked server child gets its
// faults without any new flags.

#ifndef SCPM_UTIL_FAULT_H_
#define SCPM_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace scpm {

/// Well-known injection-point names, kept in one place so tests and
/// production sites can't drift apart on spelling.
namespace fault {
inline constexpr const char* kAlloc = "alloc";
inline constexpr const char* kJournalWrite = "journal-write";
inline constexpr const char* kCheckpointWrite = "checkpoint-write";
inline constexpr const char* kSocketSend = "socket-send";
inline constexpr const char* kSliceCancel = "slice-cancel";
}  // namespace fault

class FaultInjector {
 public:
  /// The process-wide injector. First call reads SCPM_FAULT_SPEC /
  /// SCPM_FAULT_SEED from the environment (spec wins when both are
  /// set).
  static FaultInjector& Instance();

  /// Scripted mode: fail the `nth_hit` (0-based) of `point`; several
  /// "point=N" terms may be comma-separated, with whitespace around
  /// terms and tokens ignored. Replaces any previous arming. A
  /// malformed token yields kInvalidArgument naming it, and leaves the
  /// injector disarmed.
  Status Configure(const std::string& spec);

  /// Seeded mode: probabilistic-but-deterministic failures at every
  /// point, `permille` chances in 1000 per hit.
  void Seed(std::uint64_t seed, std::uint32_t permille = 125);

  /// Disarms and forgets all counters.
  void Reset();

  /// The production-side gate: returns true when the caller must fail
  /// this operation now. Counts the hit either way.
  bool ShouldFail(const char* point);

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Total times any point was consulted / told to fail since the last
  /// Reset (tests assert the sweep actually bit).
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  FaultInjector();

  struct Script {
    std::string point;
    std::uint64_t nth_hit = 0;
    bool fired = false;
  };

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> injected_{0};

  // Guarded by mutex_ in fault.cc (kept out of the header so the hot
  // disarmed path stays a single atomic load).
  std::vector<Script> scripts_;
  bool seeded_ = false;
  std::uint64_t seed_ = 0;
  std::uint32_t permille_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> per_point_hits_;
};

}  // namespace scpm

#endif  // SCPM_UTIL_FAULT_H_
