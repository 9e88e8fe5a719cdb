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

/// Upper bound on one encoded record: the base v6tcap fields (70 bytes at
/// full payload) plus originId:u32 + originSeq:u64 when extended.
inline constexpr std::size_t kMaxRecordBytes = 82;

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

/// Read the next record from `in`. `withOrigin` must match how the stream
/// was written — the base layout leaves originId/originSeq zero.
RecordStatus readRecord(std::istream& in, Packet& p, bool withOrigin);

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
