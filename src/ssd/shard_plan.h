#ifndef POSTBLOCK_SSD_SHARD_PLAN_H_
#define POSTBLOCK_SSD_SHARD_PLAN_H_

#include <algorithm>
#include <cstdint>

#include "common/types.h"
#include "ssd/config.h"

namespace postblock::ssd {

/// The seam's batched doorbell/completion-coalescing grid: commands
/// cross the controller/channel seam in batches, not per cycle. It is
/// added on top of the config's controller overhead on both seam
/// directions and so sets the sharded engine's lookahead. It is part
/// of the device model, not a tuning knob: changing it changes every
/// sharded schedule.
inline constexpr SimTime kSeamCoalesceNs = 62 * kMicrosecond;

/// The controller/channel seam annotations for a device config: one
/// shard per flash channel (shard id = channel id) plus a controller
/// shard, and the minimum latency of each seam direction.
///
/// Channels are the natural shard boundary (the paper's §2.2
/// hierarchy): chips on different channels share nothing — they only
/// interact through the controller, and that interaction has real,
/// bounded-below latency:
///
///   dispatch:   controller -> channel. Firmware command dispatch onto
///               the channel's queue.
///   completion: channel -> controller. Completion routing back to the
///               firmware.
///
/// Both are priced at controller overhead plus kSeamCoalesceNs; their
/// minimum is Lookahead(), the sharded engine's rendezvous window.
struct ShardPlan {
  std::uint32_t num_shards = 0;
  std::uint32_t controller_shard = 0;
  SimTime dispatch_ns = 0;
  SimTime complete_ns = 0;

  /// The engine's safe lookahead: minimum cross-shard latency.
  SimTime Lookahead() const { return std::min(dispatch_ns, complete_ns); }

  static ShardPlan FromConfig(const Config& config) {
    ShardPlan plan;
    plan.num_shards = config.geometry.channels + 1;
    plan.controller_shard = config.geometry.channels;
    plan.dispatch_ns = config.controller_overhead_ns + kSeamCoalesceNs;
    plan.complete_ns = config.controller_overhead_ns + kSeamCoalesceNs;
    return plan;
  }
};

}  // namespace postblock::ssd

#endif  // POSTBLOCK_SSD_SHARD_PLAN_H_
