#include "analysis/addr_class.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace v6t::analysis {

namespace {

// Service ports recognized for the embedded-port category, both straight
// hex (0x50 for port 80) and "decimal-as-hex" (0x80 reading as "80").
constexpr std::uint16_t kServicePorts[] = {
    21, 22, 23, 25, 53, 80, 110, 123, 143, 161, 179,
    443, 445, 500, 587, 993, 995, 1194, 3306, 5060, 8080, 8443};

bool isEmbeddedPort(std::uint64_t iid) {
  if (iid == 0 || iid > 0xffff) return false;
  for (std::uint16_t port : kServicePorts) {
    if (iid == port) return true; // hex-encoded port value
    // decimal-as-hex: the hex digits of `iid` read as the decimal port.
    char buf[8];
    int n = 0;
    std::uint64_t v = iid;
    while (v > 0 && n < 8) {
      const std::uint64_t digit = v & 0xf;
      if (digit > 9) {
        n = -1;
        break;
      }
      buf[n++] = static_cast<char>('0' + digit);
      v >>= 4;
    }
    if (n <= 0) continue;
    std::uint32_t decimal = 0;
    for (int i = n - 1; i >= 0; --i)
      decimal = decimal * 10 + static_cast<std::uint32_t>(buf[i] - '0');
    if (decimal == port) return true;
  }
  return false;
}

/// RFC 7707's "wordy" vocabulary: hex strings that read as words.
constexpr const char* kWords[] = {"cafe", "beef", "dead", "babe", "face",
                                  "feed", "fade", "deaf", "bead", "f00d",
                                  "c0de", "d00d", "abba", "aced", "deed",
                                  "bad",  "ace",  "fee",  "add"};

/// Does the hex form of `iid` (without leading zeros) decompose into
/// dictionary words, with at least one word of length >= 4?
bool isWordy(std::uint64_t iid) {
  if (iid == 0) return false;
  char text[17];
  int n = 0;
  {
    char reversed[17];
    int r = 0;
    std::uint64_t v = iid;
    while (v != 0) {
      static constexpr char digits[] = "0123456789abcdef";
      reversed[r++] = digits[v & 0xf];
      v >>= 4;
    }
    while (r > 0) text[n++] = reversed[--r];
    text[n] = 0;
  }
  if (n < 4) return false;
  // Greedy-with-backtracking decomposition over the tiny dictionary.
  bool sawLongWord = false;
  int pos = 0;
  // Simple DP over positions (n <= 16).
  bool reachable[17] = {};
  bool longOnPath[17] = {};
  reachable[0] = true;
  for (pos = 0; pos < n; ++pos) {
    if (!reachable[pos]) continue;
    for (const char* word : kWords) {
      const int len = static_cast<int>(std::char_traits<char>::length(word));
      if (pos + len > n) continue;
      if (std::char_traits<char>::compare(text + pos, word, static_cast<std::size_t>(len)) != 0) continue;
      reachable[pos + len] = true;
      if (len >= 4 || longOnPath[pos]) longOnPath[pos + len] = true;
    }
  }
  sawLongWord = longOnPath[n];
  return reachable[n] && sawLongWord;
}

// --- word-classifier helpers (DESIGN.md §16) ------------------------------

/// 64 Ki-bit membership bitmap over the embedded-port domain (0 < iid <=
/// 0xffff), precomputed once from the scalar decoder so the per-address
/// cost drops from 22 decimal decodes to one bit probe.
const std::array<std::uint64_t, 1024>& embeddedPortBitmap() {
  static const std::array<std::uint64_t, 1024> bitmap = [] {
    std::array<std::uint64_t, 1024> bits{};
    for (std::uint64_t v = 1; v <= 0xffff; ++v) {
      if (isEmbeddedPort(v)) bits[v / 64] |= 1ULL << (v % 64);
    }
    return bits;
  }();
  return bitmap;
}

constexpr std::uint64_t kNibbleLsb = 0x1111111111111111ULL;

/// Bit 0 of each nibble set iff that nibble is a hex letter (>= 0xa,
/// i.e. binary 1010..1111: bit3 & (bit2 | bit1)).
std::uint64_t letterNibbles(std::uint64_t v) {
  const std::uint64_t b3 = (v >> 3) & kNibbleLsb;
  const std::uint64_t b2 = (v >> 2) & kNibbleLsb;
  const std::uint64_t b1 = (v >> 1) & kNibbleLsb;
  return b3 & (b2 | b1);
}

/// Bit 0 of each nibble set iff that nibble is zero.
std::uint64_t zeroNibbles(std::uint64_t v) {
  const std::uint64_t any = ((v >> 3) | (v >> 2) | (v >> 1) | v) & kNibbleLsb;
  return any ^ kNibbleLsb;
}

/// iidNibbleEntropy over the lane: nibble counts gathered by shifts, the
/// per-count terms served from a table holding the exact doubles the
/// scalar loop subtracts ((c/16)·log2(c/16)), accumulated in the same
/// ascending-nibble-value order — bit-identical by construction.
double iidNibbleEntropyWord(std::uint64_t iid) {
  static const std::array<double, 17> term = [] {
    std::array<double, 17> t{};
    for (int c = 1; c <= 16; ++c) {
      const double p = static_cast<double>(c) / 16.0;
      t[static_cast<std::size_t>(c)] = p * std::log2(p);
    }
    return t;
  }();
  std::uint8_t histogram[16] = {};
  for (int i = 0; i < 16; ++i) ++histogram[(iid >> (4 * i)) & 0xf];
  double entropy = 0.0;
  for (int v = 0; v < 16; ++v) {
    const std::uint8_t c = histogram[v];
    if (c == 0) continue;
    entropy -= term[c];
  }
  return entropy;
}

} // namespace

std::string_view toString(AddressType t) {
  switch (t) {
    case AddressType::SubnetAnycast: return "subnet-anycast";
    case AddressType::Isatap: return "isatap";
    case AddressType::IeeeDerived: return "ieee-derived";
    case AddressType::EmbeddedPort: return "embedded-port";
    case AddressType::LowByte: return "low-byte";
    case AddressType::EmbeddedIpv4: return "embedded-ipv4";
    case AddressType::Wordy: return "wordy";
    case AddressType::PatternBytes: return "pattern-bytes";
    case AddressType::Randomized: return "randomized";
  }
  return "?";
}

double iidNibbleEntropy(const net::Ipv6Address& addr) {
  std::array<int, 16> histogram{};
  for (std::size_t i = 16; i < 32; ++i) ++histogram[addr.nibble(i)];
  double entropy = 0.0;
  for (int c : histogram) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / 16.0;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

AddressType classifyAddress(const net::Ipv6Address& addr) {
  const std::uint64_t iid = addr.lo64();

  if (iid == 0) return AddressType::SubnetAnycast;

  // ISATAP: IID = 0000:5efe:a.b.c.d (also 0200:5efe with the u-bit set).
  const std::uint32_t iidHi = static_cast<std::uint32_t>(iid >> 32);
  if (iidHi == 0x00005efe || iidHi == 0x02005efe) return AddressType::Isatap;

  // EUI-64 derived: ff:fe in the middle of the IID.
  if (((iid >> 24) & 0xffff) == 0xfffe) return AddressType::IeeeDerived;

  if (isEmbeddedPort(iid)) return AddressType::EmbeddedPort;

  // Wordy (RFC 7707 pattern iv): checked before low-byte so ::cafe is not
  // mistaken for an ordinary low endpoint number.
  if (isWordy(iid)) return AddressType::Wordy;

  // Low-byte: everything above the lowest 16 bits is zero.
  if ((iid >> 16) == 0) return AddressType::LowByte;

  // Embedded IPv4, packed form: the low 32 bits carry the v4 address.
  if (iidHi == 0 && iid > 0xffff) {
    // Each v4 octet visible in the dotted form; require a plausible
    // first octet (non-zero) to cut down on false positives.
    if (((iid >> 24) & 0xff) != 0) return AddressType::EmbeddedIpv4;
  }
  // Embedded IPv4, spread form: one octet per 16-bit group with the hex
  // digits reading as the decimal octet (2001:db8::192:0:2:1 embeds
  // 192.0.2.1). Requires a plausible, non-zero first octet.
  {
    // A group qualifies if its hex digits are all decimal and read as a
    // value <= 255 (e.g. 0x192 reads "192").
    const auto octet = [](std::uint16_t g) -> int {
      int value = 0;
      for (int shift = 12; shift >= 0; shift -= 4) {
        const int digit = (g >> shift) & 0xf;
        if (digit > 9) return -1;
        value = value * 10 + digit;
      }
      return value <= 255 ? value : -1;
    };
    const int o0 = octet(static_cast<std::uint16_t>(iid >> 48));
    const int o1 = octet(static_cast<std::uint16_t>(iid >> 32));
    const int o2 = octet(static_cast<std::uint16_t>(iid >> 16));
    const int o3 = octet(static_cast<std::uint16_t>(iid));
    if (o0 > 0 && o0 <= 223 && o1 >= 0 && o2 >= 0 && o3 >= 0) {
      return AddressType::EmbeddedIpv4;
    }
  }

  // Pattern bytes: few distinct byte values, or a repeated 16-bit group.
  {
    std::array<int, 256> seen{};
    int distinct = 0;
    for (std::size_t i = 8; i < 16; ++i) {
      if (seen[addr.byte(i)]++ == 0) ++distinct;
    }
    if (distinct <= 2) return AddressType::PatternBytes;
    const std::uint16_t g4 = static_cast<std::uint16_t>(iid >> 48);
    const std::uint16_t g5 = static_cast<std::uint16_t>(iid >> 32);
    const std::uint16_t g6 = static_cast<std::uint16_t>(iid >> 16);
    const std::uint16_t g7 = static_cast<std::uint16_t>(iid);
    if (g4 == g5 && g5 == g6 && g6 == g7) return AddressType::PatternBytes;
  }

  // Randomized vs. residual structure: privacy-extension/TGA-random IIDs
  // have high nibble diversity; anything conspicuously regular that slipped
  // through the rules above is still "pattern".
  return iidNibbleEntropy(addr) >= 2.5 ? AddressType::Randomized
                                       : AddressType::PatternBytes;
}

AddressType classifyAddressWord(std::uint64_t iid) {
  if (iid == 0) return AddressType::SubnetAnycast;

  const std::uint32_t iidHi = static_cast<std::uint32_t>(iid >> 32);
  if (iidHi == 0x00005efe || iidHi == 0x02005efe) return AddressType::Isatap;

  if (((iid >> 24) & 0xffff) == 0xfffe) return AddressType::IeeeDerived;

  if (iid <= 0xffff &&
      ((embeddedPortBitmap()[iid >> 6] >> (iid & 63)) & 1) != 0) {
    return AddressType::EmbeddedPort;
  }

  const std::uint64_t letters = letterNibbles(iid);
  const std::uint64_t zeros = zeroNibbles(iid);
  // Dictionary words spell themselves with nibbles {0, a..f} only, so any
  // decimal 1..9 nibble rejects without running the decomposition DP
  // (leading nibbles are zero by definition, so every 1..9 is significant).
  if ((letters | zeros) == kNibbleLsb && isWordy(iid)) {
    return AddressType::Wordy;
  }

  if ((iid >> 16) == 0) return AddressType::LowByte;

  if (iidHi == 0 && iid > 0xffff) {
    if (((iid >> 24) & 0xff) != 0) return AddressType::EmbeddedIpv4;
  }
  // Spread-form embedded IPv4 needs every group's hex digits decimal; a
  // single letter nibble anywhere already fails one octet decode.
  if (letters == 0) {
    const auto octet = [](std::uint16_t g) -> int {
      int value = 0;
      for (int shift = 12; shift >= 0; shift -= 4) {
        const int digit = (g >> shift) & 0xf;
        if (digit > 9) return -1;
        value = value * 10 + digit;
      }
      return value <= 255 ? value : -1;
    };
    const int o0 = octet(static_cast<std::uint16_t>(iid >> 48));
    const int o1 = octet(static_cast<std::uint16_t>(iid >> 32));
    const int o2 = octet(static_cast<std::uint16_t>(iid >> 16));
    const int o3 = octet(static_cast<std::uint16_t>(iid));
    if (o0 > 0 && o0 <= 223 && o1 >= 0 && o2 >= 0 && o3 >= 0) {
      return AddressType::EmbeddedIpv4;
    }
  }

  // Pattern bytes: at most two distinct byte values among the lane's eight
  // bytes — tracked with two registers instead of the scalar path's
  // 256-slot histogram — or one 16-bit group repeated four times.
  {
    bool third = false;
    const std::uint8_t first = static_cast<std::uint8_t>(iid >> 56);
    std::uint8_t second = first;
    bool haveSecond = false;
    for (int shift = 48; shift >= 0; shift -= 8) {
      const std::uint8_t b = static_cast<std::uint8_t>(iid >> shift);
      if (b == first) continue;
      if (!haveSecond) {
        second = b;
        haveSecond = true;
      } else if (b != second) {
        third = true;
        break;
      }
    }
    if (!third) return AddressType::PatternBytes;
    const std::uint64_t g = iid & 0xffff;
    if (iid == 0x0001000100010001ULL * g) return AddressType::PatternBytes;
  }

  return iidNibbleEntropyWord(iid) >= 2.5 ? AddressType::Randomized
                                          : AddressType::PatternBytes;
}

AddressTypeHistogram classifyAll(std::span<const net::Ipv6Address> targets) {
  AddressTypeHistogram histogram;
  for (const net::Ipv6Address& a : targets) histogram.add(classifyAddress(a));
  return histogram;
}

AddressTypeHistogram classifyLanes(std::span<const std::uint64_t> iids) {
  AddressTypeHistogram histogram;
  for (std::uint64_t iid : iids) histogram.add(classifyAddressWord(iid));
  return histogram;
}

} // namespace v6t::analysis
