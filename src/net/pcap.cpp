#include "net/pcap.hpp"

#include <array>
#include <cstring>

namespace v6t::net {

namespace {

template <typename T>
std::size_t putLe(unsigned char* buf, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<unsigned char>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff);
  }
  return sizeof(T);
}

template <typename T>
bool getLe(std::istream& in, T& value) {
  std::array<char, sizeof(T)> buf;
  in.read(buf.data(), buf.size());
  if (in.gcount() != static_cast<std::streamsize>(buf.size())) return false;
  std::uint64_t v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) {
    v = (v << 8) | static_cast<std::uint8_t>(buf[i]);
  }
  value = static_cast<T>(v);
  return true;
}

} // namespace

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

RecordStatus readRecord(std::istream& in, Packet& p, bool withOrigin) {
  // A file ends at a record boundary: zero bytes left is a clean end, and
  // any partial record — a partial timestamp included — is torn.
  if (in.peek() == std::istream::traits_type::eof()) return RecordStatus::Eof;
  std::int64_t ts = 0;
  if (!getLe(in, ts)) return RecordStatus::Malformed;
  p = Packet{};
  p.ts = sim::SimTime{ts};
  std::array<std::uint8_t, 16> addr{};
  auto readAddr = [&](Ipv6Address& out) {
    in.read(reinterpret_cast<char*>(addr.data()), 16);
    if (in.gcount() != 16) return false;
    out = Ipv6Address{addr};
    return true;
  };
  std::uint8_t proto = 0;
  std::uint32_t asn = 0;
  std::uint16_t payloadLen = 0;
  if (!readAddr(p.src) || !readAddr(p.dst) || !getLe(in, proto) ||
      !getLe(in, p.srcPort) || !getLe(in, p.dstPort) ||
      !getLe(in, p.icmpType) || !getLe(in, p.icmpCode) ||
      !getLe(in, p.hopLimit) || !getLe(in, asn)) {
    return RecordStatus::Malformed; // torn record
  }
  if (withOrigin &&
      (!getLe(in, p.originId) || !getLe(in, p.originSeq))) {
    return RecordStatus::Malformed;
  }
  if (!getLe(in, payloadLen)) return RecordStatus::Malformed;
  if (proto > 2) return RecordStatus::Malformed;
  p.proto = static_cast<Protocol>(proto);
  p.srcAsn = Asn{asn};
  if (payloadLen > PayloadBuf::kCapacity) {
    // Longer than any payload this model can emit: a foreign or corrupt
    // record, rejected like an unknown protocol.
    return RecordStatus::Malformed;
  }
  if (payloadLen > 0) {
    p.payload.resize(payloadLen);
    in.read(reinterpret_cast<char*>(p.payload.data()), payloadLen);
    if (in.gcount() != payloadLen) return RecordStatus::Malformed;
  }
  return RecordStatus::Ok;
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
  switch (readRecord(in_, p, /*withOrigin=*/false)) {
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
