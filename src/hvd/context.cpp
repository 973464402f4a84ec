#include "hvd/context.h"

namespace candle::hvd {

Context::Context(comm::Communicator& comm, trace::Timeline* timeline,
                 const Stopwatch* clock)
    : comm_(&comm), timeline_(timeline), clock_(clock) {}

double Context::now() const {
  return clock_ != nullptr ? clock_->seconds() : own_clock_.seconds();
}

void Context::record(const char* name, const char* category, double start_s,
                     double duration_s) {
  if (timeline_ == nullptr) return;
  timeline_->record(name, category, rank(), start_s, duration_s);
}

}  // namespace candle::hvd
