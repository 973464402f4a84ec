#include "hvd/broadcast.h"

namespace candle::hvd {

double broadcast_parameters(Context& ctx, const std::vector<Tensor*>& tensors,
                            std::size_t root) {
  const double negotiate_start = ctx.now();
  // Negotiation: every rank announces readiness; resolves when the slowest
  // rank (typically the slowest data loader) arrives.
  ctx.comm().barrier();
  const double bcast_start = ctx.now();
  ctx.record(trace::kNegotiateBroadcast, "broadcast", negotiate_start,
             bcast_start - negotiate_start);

  for (Tensor* t : tensors) ctx.comm().broadcast(t->values(), root);

  ctx.record(trace::kMpiBroadcast, "broadcast", bcast_start,
             ctx.now() - bcast_start);
  return bcast_start - negotiate_start;
}

}  // namespace candle::hvd
