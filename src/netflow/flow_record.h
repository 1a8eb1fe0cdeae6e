// The sampled NetFlow record — the study's unit of input data.
//
// Records model what the paper's collectors emit: per-flow entries sampled
// at 1:4096 at the data-center edge routers and aggregated over one-minute
// windows (§2.2). Packet/byte counts are therefore *sampled* counts; the
// analysis multiplies by the sampling rate when estimating true volumes.
#pragma once

#include <cstdint>
#include <string>

#include "netflow/ipv4.h"
#include "netflow/protocol.h"
#include "netflow/tcp_flags.h"
#include "util/time.h"

namespace dm::netflow {

/// Traffic direction relative to the cloud: inbound traffic targets a VIP,
/// outbound traffic originates from one.
enum class Direction : std::uint8_t { kInbound = 0, kOutbound = 1 };

[[nodiscard]] constexpr std::string_view to_string(Direction d) noexcept {
  return d == Direction::kInbound ? "inbound" : "outbound";
}

[[nodiscard]] constexpr Direction opposite(Direction d) noexcept {
  return d == Direction::kInbound ? Direction::kOutbound : Direction::kInbound;
}

/// One sampled flow entry for one one-minute window.
struct FlowRecord {
  // dmlint: checkpointed
  util::Minute minute = 0;   ///< one-minute window index
  IPv4 src_ip;               ///< source address as seen on the wire
  IPv4 dst_ip;               ///< destination address
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Protocol protocol = Protocol::kTcp;
  TcpFlags tcp_flags = TcpFlags::kNone;  ///< cumulative OR over sampled packets
  std::uint32_t packets = 0;  ///< sampled packet count (>= 1 for a logged flow)
  std::uint64_t bytes = 0;    ///< sampled byte count

  friend bool operator==(const FlowRecord&, const FlowRecord&) = default;
};

/// A FlowRecord plus its orientation relative to the cloud address space.
/// Produced by classify(); gives VIP-centric accessors used everywhere in
/// detection and analysis.
struct OrientedFlow {
  const FlowRecord* record = nullptr;
  Direction direction = Direction::kInbound;

  [[nodiscard]] IPv4 vip() const noexcept {
    return direction == Direction::kInbound ? record->dst_ip : record->src_ip;
  }
  [[nodiscard]] IPv4 remote_ip() const noexcept {
    return direction == Direction::kInbound ? record->src_ip : record->dst_ip;
  }
  /// Port on the cloud side of the flow.
  [[nodiscard]] std::uint16_t vip_port() const noexcept {
    return direction == Direction::kInbound ? record->dst_port
                                            : record->src_port;
  }
  /// Port on the Internet side of the flow.
  [[nodiscard]] std::uint16_t remote_port() const noexcept {
    return direction == Direction::kInbound ? record->src_port
                                            : record->dst_port;
  }
  /// The port identifying the targeted application: the destination port of
  /// the flow regardless of direction.
  [[nodiscard]] std::uint16_t service_port() const noexcept {
    return record->dst_port;
  }
};

/// Human-readable one-line rendering for logs and examples.
[[nodiscard]] std::string to_string(const FlowRecord& r);

}  // namespace dm::netflow
