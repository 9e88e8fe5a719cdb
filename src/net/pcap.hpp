// v6t::net — capture serialization ("v6tcap" format).
//
// A compact binary container for Packet records so captures can be written
// to disk during a run and replayed through the analysis pipeline later —
// the role tcpdump/pcap files play in the paper's measurement workflow.
//
// Layout (all integers little-endian):
//   file   := magic:8 ("V6TCAP\x01\x00") record*
//   record := ts:i64 src:16 dst:16 proto:u8 sport:u16 dport:u16
//             icmpType:u8 icmpCode:u8 hopLimit:u8 srcAsn:u32
//             payloadLen:u16 payload:bytes
//
// payloadLen never exceeds PayloadBuf::kCapacity (16): probes carry tiny
// payloads and the in-memory representation is a fixed inline buffer. The
// reader treats longer lengths as a malformed record.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <vector>

#include "net/packet.hpp"

namespace v6t::net {

inline constexpr char kCaptureMagic[8] = {'V', '6', 'T', 'C',
                                          'A', 'P', 1,   0};

// --- record-level serialization ------------------------------------------
//
// Shared by the v6tcap container and the telescope's on-disk segment
// format ("v6tseg", docs/FORMATS.md): one packet record, optionally
// extended with the (originId, originSeq) canonical-merge key that v6tcap
// deliberately omits. Segments need the key on disk — it is what makes the
// spilled capture re-mergeable into the exact in-memory canonical order.

/// Store `value` little-endian at `buf`; returns sizeof(T).
template <typename T>
std::size_t putLe(unsigned char* buf, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<unsigned char>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff);
  }
  return sizeof(T);
}

/// Load a little-endian T from `buf`.
template <typename T>
[[nodiscard]] T getLe(const unsigned char* buf) {
  std::uint64_t v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) {
    v = (v << 8) | buf[i];
  }
  return static_cast<T>(v);
}

/// Bytes of a record before its payload: every fixed field up to and
/// including payloadLen — 54, or 66 with originId:u32 + originSeq:u64.
[[nodiscard]] constexpr std::size_t recordHeaderBytes(bool withOrigin) {
  return withOrigin ? 66 : 54;
}

/// Upper bound on one encoded record: the origin-extended header plus a
/// full payload.
inline constexpr std::size_t kMaxRecordBytes =
    recordHeaderBytes(true) + PayloadBuf::kCapacity;

/// Encode one record into `buf` (>= kMaxRecordBytes); returns the byte
/// count. With `withOrigin`, originId/originSeq are inserted after srcAsn.
std::size_t encodeRecord(unsigned char* buf, const Packet& p,
                         bool withOrigin);

/// Append one record to `out` (v6tcap layout, or the origin-extended
/// v6tseg layout).
void writeRecord(std::ostream& out, const Packet& p, bool withOrigin);

enum class RecordStatus : std::uint8_t {
  Ok,        ///< `p` holds the next record
  Eof,       ///< clean end: zero bytes available at a record boundary
  Malformed, ///< torn record (any partial record, even a partial
             ///< timestamp), unknown protocol, or oversized payload
};

/// Decode the record held in exactly `size` bytes at `buf` — the inverse
/// of encodeRecord. Malformed when `size` is not the length the record's
/// header announces, or a field is out of range.
RecordStatus decodeRecord(const unsigned char* buf, std::size_t size,
                          Packet& p, bool withOrigin);

/// Read the next record from `in` into `buf` (>= kMaxRecordBytes) with at
/// most two stream reads — the header, then the payload its length field
/// announces — and decode it with decodeRecord. On Ok, `size` holds the
/// record's byte count, so a caller can checksum exactly the bytes read.
/// `withOrigin` must match how the stream was written; the base layout
/// leaves originId/originSeq zero.
RecordStatus readRecord(std::istream& in, Packet& p, bool withOrigin,
                        unsigned char* buf, std::size_t& size);

class CaptureWriter {
public:
  /// Writes the file header immediately. The stream must outlive the writer.
  explicit CaptureWriter(std::ostream& out);

  /// Append one record. Payload length is bounded by PayloadBuf::kCapacity.
  void write(const Packet& p);

  [[nodiscard]] std::uint64_t recordsWritten() const { return records_; }

private:
  std::ostream& out_;
  std::uint64_t records_ = 0;
};

class CaptureReader {
public:
  /// Validates the header; `ok()` is false on a foreign or truncated file.
  explicit CaptureReader(std::istream& in);

  [[nodiscard]] bool ok() const { return ok_; }

  /// Read the next record; nullopt at clean EOF. A torn final record also
  /// yields nullopt but flips ok() to false.
  [[nodiscard]] std::optional<Packet> next();

  /// Drain the remaining records.
  [[nodiscard]] std::vector<Packet> readAll();

private:
  std::istream& in_;
  bool ok_ = false;
};

} // namespace v6t::net
