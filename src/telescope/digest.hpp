// v6t::telescope — the capture digest primitives.
//
// Every equivalence proof in this repo bottoms out in one FNV-1a 64-bit
// fold: CaptureStore::digest (and the tests' digest of a merged segment
// stream), the v6tseg segment checksums, and the result digests
// PipelineResult::digest and StreamingResult::digest all mix with the
// functions here, so "two digests are equal" always means the same
// byte-for-byte statement.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "net/packet.hpp"

namespace v6t::telescope {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Fold one 64-bit value into `h`, little-endian byte by byte.
inline void fnv1aMix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

/// Fold a double into `h` by its bit pattern.
inline void fnv1aMixDouble(std::uint64_t& h, double d) {
  fnv1aMix(h, std::bit_cast<std::uint64_t>(d));
}

/// Fold a raw byte range into `h` — the segment file checksums.
inline void fnv1aBytes(std::uint64_t& h, const unsigned char* data,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
}

/// Fold one packet into `h` exactly as CaptureStore::digest does: every
/// stored field, including the (originId, originSeq) merge key that the
/// v6tcap wire format omits. Streaming consumers chain this per packet and
/// land on the same value as the one-shot in-memory store.
inline void fnv1aPacket(std::uint64_t& h, const net::Packet& p) {
  fnv1aMix(h, static_cast<std::uint64_t>(p.ts.millis()));
  fnv1aMix(h, p.src.hi64());
  fnv1aMix(h, p.src.lo64());
  fnv1aMix(h, p.dst.hi64());
  fnv1aMix(h, p.dst.lo64());
  fnv1aMix(h, static_cast<std::uint64_t>(p.proto));
  fnv1aMix(h, (static_cast<std::uint64_t>(p.srcPort) << 32) | p.dstPort);
  fnv1aMix(h, (static_cast<std::uint64_t>(p.icmpType) << 16) |
                  (static_cast<std::uint64_t>(p.icmpCode) << 8) | p.hopLimit);
  fnv1aMix(h, p.srcAsn.value());
  fnv1aMix(h, (static_cast<std::uint64_t>(p.originId) << 32) ^ p.originSeq);
  fnv1aMix(h, p.payload.size());
  for (std::uint8_t b : p.payload) fnv1aMix(h, b);
}

} // namespace v6t::telescope
