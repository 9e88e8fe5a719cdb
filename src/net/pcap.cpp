#include "net/pcap.hpp"

#include <array>
#include <cstring>

namespace v6t::net {

std::size_t encodeRecord(unsigned char* buf, const Packet& p,
                         bool withOrigin) {
  std::size_t n = 0;
  n += putLe<std::int64_t>(buf + n, p.ts.millis());
  std::memcpy(buf + n, p.src.bytes().data(), 16);
  n += 16;
  std::memcpy(buf + n, p.dst.bytes().data(), 16);
  n += 16;
  n += putLe<std::uint8_t>(buf + n, static_cast<std::uint8_t>(p.proto));
  n += putLe<std::uint16_t>(buf + n, p.srcPort);
  n += putLe<std::uint16_t>(buf + n, p.dstPort);
  n += putLe<std::uint8_t>(buf + n, p.icmpType);
  n += putLe<std::uint8_t>(buf + n, p.icmpCode);
  n += putLe<std::uint8_t>(buf + n, p.hopLimit);
  n += putLe<std::uint32_t>(buf + n, p.srcAsn.value());
  if (withOrigin) {
    n += putLe<std::uint32_t>(buf + n, p.originId);
    n += putLe<std::uint64_t>(buf + n, p.originSeq);
  }
  const std::size_t len = p.payload.size(); // <= PayloadBuf::kCapacity
  n += putLe<std::uint16_t>(buf + n, static_cast<std::uint16_t>(len));
  if (len > 0) {
    std::memcpy(buf + n, p.payload.data(), len);
    n += len;
  }
  return n;
}

void writeRecord(std::ostream& out, const Packet& p, bool withOrigin) {
  unsigned char buf[kMaxRecordBytes];
  const std::size_t n = encodeRecord(buf, p, withOrigin);
  out.write(reinterpret_cast<const char*>(buf),
            static_cast<std::streamsize>(n));
}

RecordStatus decodeRecord(const unsigned char* buf, std::size_t size,
                          Packet& p, bool withOrigin) {
  // Field offsets follow the record layout in pcap.hpp.
  const std::size_t header = recordHeaderBytes(withOrigin);
  if (size < header) return RecordStatus::Malformed;
  const std::uint8_t proto = buf[40];
  const auto payloadLen = getLe<std::uint16_t>(buf + header - 2);
  // A payload longer than any this model can emit is a foreign or corrupt
  // record, rejected like an unknown protocol.
  if (proto > 2 || payloadLen > PayloadBuf::kCapacity ||
      size != header + payloadLen) {
    return RecordStatus::Malformed;
  }
  p = Packet{};
  p.ts = sim::SimTime{getLe<std::int64_t>(buf)};
  std::array<std::uint8_t, 16> addr{};
  std::memcpy(addr.data(), buf + 8, 16);
  p.src = Ipv6Address{addr};
  std::memcpy(addr.data(), buf + 24, 16);
  p.dst = Ipv6Address{addr};
  p.proto = static_cast<Protocol>(proto);
  p.srcPort = getLe<std::uint16_t>(buf + 41);
  p.dstPort = getLe<std::uint16_t>(buf + 43);
  p.icmpType = buf[45];
  p.icmpCode = buf[46];
  p.hopLimit = buf[47];
  p.srcAsn = Asn{getLe<std::uint32_t>(buf + 48)};
  if (withOrigin) {
    p.originId = getLe<std::uint32_t>(buf + 52);
    p.originSeq = getLe<std::uint64_t>(buf + 56);
  }
  p.payload.resize(payloadLen);
  std::memcpy(p.payload.data(), buf + header, payloadLen);
  return RecordStatus::Ok;
}

RecordStatus readRecord(std::istream& in, Packet& p, bool withOrigin,
                        unsigned char* buf, std::size_t& size) {
  // A file ends at a record boundary: zero bytes left is a clean end, and
  // any partial record — a partial timestamp included — is torn.
  const std::size_t header = recordHeaderBytes(withOrigin);
  in.read(reinterpret_cast<char*>(buf), static_cast<std::streamsize>(header));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got == 0) return RecordStatus::Eof;
  if (got != header) return RecordStatus::Malformed;
  const auto payloadLen = getLe<std::uint16_t>(buf + header - 2);
  if (payloadLen > PayloadBuf::kCapacity) return RecordStatus::Malformed;
  size = header + payloadLen;
  if (payloadLen > 0) {
    in.read(reinterpret_cast<char*>(buf + header), payloadLen);
    if (in.gcount() != payloadLen) return RecordStatus::Malformed;
  }
  return decodeRecord(buf, size, p, withOrigin);
}

CaptureWriter::CaptureWriter(std::ostream& out) : out_(out) {
  out_.write(kCaptureMagic, sizeof(kCaptureMagic));
}

void CaptureWriter::write(const Packet& p) {
  writeRecord(out_, p, /*withOrigin=*/false);
  ++records_;
}

CaptureReader::CaptureReader(std::istream& in) : in_(in) {
  char magic[8];
  in_.read(magic, sizeof(magic));
  ok_ = in_.gcount() == sizeof(magic) &&
        std::memcmp(magic, kCaptureMagic, sizeof(magic)) == 0;
}

std::optional<Packet> CaptureReader::next() {
  if (!ok_) return std::nullopt;
  Packet p;
  unsigned char buf[kMaxRecordBytes];
  std::size_t size = 0;
  switch (readRecord(in_, p, /*withOrigin=*/false, buf, size)) {
  case RecordStatus::Ok:
    return p;
  case RecordStatus::Eof:
    return std::nullopt; // clean EOF
  case RecordStatus::Malformed:
    ok_ = false;
    return std::nullopt;
  }
  return std::nullopt;
}

std::vector<Packet> CaptureReader::readAll() {
  std::vector<Packet> out;
  while (auto p = next()) out.push_back(std::move(*p));
  return out;
}

} // namespace v6t::net
