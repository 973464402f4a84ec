// Runtime lock-hierarchy validator.
//
// The repo-wide concurrency contract orders every AnnotatedMutex on a single
// numeric hierarchy: a thread may only acquire a mutex whose level is
// *strictly lower* than the level of every lock it already holds (locks are
// acquired in descending-level order), which makes lock-order deadlocks
// impossible by construction. `tools/analyze/run.py` proves the property
// statically from the CANDLE_LOCK_LEVEL declarations; this module is the
// dynamic half: a per-thread held-lock stack keyed by the same levels, so
// TSan/debug runs also validate the declared hierarchy on real executions.
//
// The tracker is always compiled but dynamically gated: release builds pay
// one relaxed atomic load per lock()/unlock() (default off), sanitizer and
// debug builds default it on (CANDLE_ENABLE_LOCK_ORDER_CHECKS, set by
// cmake/Sanitizers.cmake next to the bounds checks). `CANDLE_LOCK_ORDER=0|1`
// in the environment overrides the compiled default; tests flip it with
// set_enabled().
//
// On a violation the diagnostic names both mutexes and both levels; the
// default handler prints it and aborts (a lock-order bug is a latent
// deadlock — failing the run is the point). Tests install a capturing
// handler instead via set_violation_handler().
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>

namespace candle::lock_order {

/// The lock hierarchy: one level per AnnotatedMutex site, acquired in
/// strictly descending order. Gaps leave room for future subsystems; the
/// full table (holder, what the lock protects, what may nest inside it)
/// lives in EXPERIMENTS.md "Static analysis".
namespace level {
inline constexpr int kServeLoadgen = 86;     // serve loadgen failure capture
inline constexpr int kServeAdmission = 80;   // serve::MicroBatcher::mutex_
inline constexpr int kBatchPipeline = 70;    // nn::BatchPipeline::mutex_
inline constexpr int kBucketScheduler = 60;  // hvd::BucketScheduler::mutex_
inline constexpr int kRunnerResult = 50;     // candle runner result_mutex
inline constexpr int kParallelRegion = 40;   // parallel Pool::region_mutex_
inline constexpr int kParallelDispatch = 30; // parallel Pool::mutex_
inline constexpr int kCommRendezvous = 20;   // comm::World::reg_mutex_
inline constexpr int kTimeline = 12;         // trace::Timeline::mutex_
inline constexpr int kLog = 10;              // common/log sink mutex
}  // namespace level

namespace detail {
/// Hot-path gate; initialized from the build default and the
/// CANDLE_LOCK_ORDER environment variable at first use.
extern std::atomic<int> g_state;  // -1 uninitialized, 0 off, 1 on
int init_state();
void acquire_slow(int lvl, const char* name);
void push_slow(int lvl, const char* name);
void release_slow(int lvl);
}  // namespace detail

/// True when acquisitions are being validated.
inline bool enabled() {
  const int s = detail::g_state.load(std::memory_order_relaxed);
  return (s < 0 ? detail::init_state() : s) != 0;
}

/// Turns validation on/off at runtime (tests; overrides build default).
void set_enabled(bool on);

/// Handler invoked with the diagnostic on every violation. Passing nullptr
/// restores the default (print to stderr and abort). The handler runs on
/// the violating thread with the lock stack *not yet* updated.
using ViolationHandler = std::function<void(const std::string& diagnostic)>;
void set_violation_handler(ViolationHandler handler);

/// Total violations observed since process start (monotonic; counted even
/// when a custom handler swallows them).
std::size_t violation_count();

/// Locks the calling thread currently holds (tracked ones only).
std::size_t held_count();

/// Bookkeeping hooks, called by AnnotatedMutex. note_acquire validates the
/// would-be acquisition against the thread's held stack *before* blocking,
/// so an inversion that would deadlock is still reported.
inline void note_acquire(int lvl, const char* name) {
  if (enabled()) detail::acquire_slow(lvl, name);
}
inline void note_release(int lvl) {
  if (enabled()) detail::release_slow(lvl);
}

/// A successful try_lock joins the held stack without order validation
/// (a non-blocking acquisition cannot deadlock).
inline void note_try_acquired(int lvl, const char* name) {
  if (enabled()) detail::push_slow(lvl, name);
}

}  // namespace candle::lock_order
