// Horovod-equivalent per-rank context.
//
// Mirrors the `hvd.init() / hvd.size() / hvd.rank() / hvd.local_rank()`
// surface the paper's methodology section adds to every benchmark, plus a
// hook into the activity timeline (Horovod's HOROVOD_TIMELINE).
#pragma once

#include "comm/communicator.h"
#include "common/stopwatch.h"
#include "trace/timeline.h"

namespace candle::hvd {

/// Per-rank Horovod context, valid on the rank's own thread.
class Context {
 public:
  /// `timeline` and `clock` may be null (no tracing). `clock` supplies the
  /// common time origin for events; when null, an internal clock starting
  /// at construction is used. `timeline` is shared across ranks and
  /// internally synchronized.
  explicit Context(comm::Communicator& comm,
                   trace::Timeline* timeline = nullptr,
                   const Stopwatch* clock = nullptr);

  [[nodiscard]] std::size_t rank() const { return comm_->rank(); }
  [[nodiscard]] std::size_t size() const { return comm_->size(); }
  [[nodiscard]] std::size_t local_rank() const { return comm_->local_rank(); }
  [[nodiscard]] comm::Communicator& comm() { return *comm_; }

  /// Seconds since the common time origin.
  [[nodiscard]] double now() const;

  /// Records a timeline event for this rank (no-op without a timeline).
  void record(const char* name, const char* category, double start_s,
              double duration_s);

  [[nodiscard]] bool has_timeline() const { return timeline_ != nullptr; }

 private:
  comm::Communicator* comm_;
  trace::Timeline* timeline_;
  const Stopwatch* clock_;
  Stopwatch own_clock_;
};

}  // namespace candle::hvd
