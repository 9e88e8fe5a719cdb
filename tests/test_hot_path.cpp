// Tests for the zero-allocation capture hot path: inline PayloadBuf
// semantics and serialization, the key-only generation-stamped event
// queue (differentially checked against a std::set reference), the flat
// statistics sets, and the consuming canonical shard merge (asserted
// digest-equal to the sort-based reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "fault/injector.hpp"
#include "net/packet.hpp"
#include "net/payload_buf.hpp"
#include "net/pcap.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/small_func.hpp"
#include "telescope/capture_store.hpp"
#include "telescope/flat_hash_set.hpp"

namespace v6t {
namespace {

// The payload lengths the model actually produces plus both edges of the
// inline buffer: empty, minimal, the standard probe payload, and capacity.
constexpr std::size_t kLengths[] = {0, 1, 12, 16};

net::Packet packetWithPayload(std::size_t len, std::uint8_t seed = 7) {
  net::Packet p;
  p.ts = sim::SimTime{static_cast<std::int64_t>(len) * 1000};
  p.src = net::Ipv6Address{0x2001'0db8'0000'0001ULL, seed};
  p.dst = net::Ipv6Address{0x2001'0db8'ffff'0000ULL, len};
  p.originId = seed;
  p.originSeq = len;
  for (std::size_t i = 0; i < len; ++i) {
    p.payload.push_back(static_cast<std::uint8_t>(seed + i));
  }
  return p;
}

// ------------------------------------------------------------- PayloadBuf

TEST(PayloadBuf, SizeAndContentAcrossModelLengths) {
  for (const std::size_t len : kLengths) {
    net::PayloadBuf buf;
    for (std::size_t i = 0; i < len; ++i) {
      buf.push_back(static_cast<std::uint8_t>(i + 1));
    }
    EXPECT_EQ(buf.size(), len);
    EXPECT_EQ(buf.empty(), len == 0);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(buf[i], static_cast<std::uint8_t>(i + 1));
    }
  }
}

TEST(PayloadBuf, SaturatesAtCapacity) {
  net::PayloadBuf buf;
  for (int i = 0; i < 40; ++i) buf.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(buf.size(), net::PayloadBuf::kCapacity);
  EXPECT_EQ(buf[15], 15);
  buf.resize(40); // clamped, zero-fills nothing beyond capacity
  EXPECT_EQ(buf.size(), net::PayloadBuf::kCapacity);
}

TEST(PayloadBuf, EqualityIgnoresStaleBytesPastSize) {
  net::PayloadBuf a;
  a.assign(16, 0xee);
  a.resize(4); // bytes 4..15 still hold 0xee internally
  net::PayloadBuf b;
  b.assign(4, 0xee);
  EXPECT_EQ(a, b);
  b.push_back(0x01);
  EXPECT_FALSE(a == b);
}

TEST(PayloadBuf, ResizeGrowsZeroFilled) {
  net::PayloadBuf buf;
  buf.push_back(0x7f);
  buf.resize(12);
  EXPECT_EQ(buf.size(), 12u);
  EXPECT_EQ(buf[0], 0x7f);
  for (std::size_t i = 1; i < 12; ++i) EXPECT_EQ(buf[i], 0);
}

// ------------------------------------------------------ v6tcap round trip

TEST(PayloadBufPcap, RoundTripsEveryModelLength) {
  std::stringstream stream;
  {
    net::CaptureWriter writer{stream};
    for (const std::size_t len : kLengths) writer.write(packetWithPayload(len));
  }
  net::CaptureReader reader{stream};
  ASSERT_TRUE(reader.ok());
  for (const std::size_t len : kLengths) {
    auto p = reader.next();
    ASSERT_TRUE(p.has_value());
    const net::Packet expected = packetWithPayload(len);
    EXPECT_EQ(p->payload, expected.payload);
    EXPECT_EQ(p->src, expected.src);
    EXPECT_EQ(p->ts, expected.ts);
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.ok()); // clean EOF
}

TEST(PayloadBufPcap, DigestSurvivesSerializationRoundTrip) {
  telescope::CaptureStore original;
  std::uint8_t seed = 1;
  for (const std::size_t len : kLengths) {
    net::Packet p = packetWithPayload(len, seed++);
    // v6tcap deliberately does not serialize the (originId, originSeq)
    // merge metadata, so zero it for a digest-faithful round trip.
    p.originId = 0;
    p.originSeq = 0;
    original.append(p);
  }
  std::stringstream stream;
  original.writeTo(stream);
  telescope::CaptureStore restored;
  EXPECT_EQ(restored.readFrom(stream), original.packetCount());
  EXPECT_EQ(restored.digest(), original.digest());
}

TEST(PayloadBufPcap, ReaderRejectsOverlongPayloadLength) {
  std::stringstream stream;
  {
    net::CaptureWriter writer{stream};
    writer.write(packetWithPayload(16));
  }
  std::string data = stream.str();
  // payloadLen sits 52 bytes into the record, after the 8-byte magic.
  const std::size_t lenOffset = 8 + 52;
  ASSERT_EQ(static_cast<std::uint8_t>(data[lenOffset]), 16);
  data[lenOffset] = 17;
  data.push_back('\0'); // byte 17 exists, so only the cap can reject
  std::stringstream torn{data};
  net::CaptureReader reader{torn};
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.ok());
}

// ------------------------------------------------------- fault truncation

TEST(PayloadBufFault, TruncationHalvesInlinePayloads) {
  fault::FaultSpec spec;
  spec.truncateProb = 1.0;
  fault::PacketFaultPlane plane{spec, 99};
  for (const std::size_t len : kLengths) {
    net::Packet p = packetWithPayload(len);
    const net::Packet pristine = p;
    plane.onSend(p);
    if (len == 0) {
      EXPECT_TRUE(p.payload.empty()); // nothing to truncate
    } else {
      ASSERT_EQ(p.payload.size(), len / 2);
      for (std::size_t i = 0; i < p.payload.size(); ++i) {
        EXPECT_EQ(p.payload[i], pristine.payload[i]);
      }
    }
  }
}

TEST(PayloadBufFault, TruncationChangesDigestExactlyWhenPayloadShrinks) {
  fault::FaultSpec spec;
  spec.truncateProb = 1.0;
  fault::PacketFaultPlane plane{spec, 99};
  telescope::CaptureStore pristine;
  telescope::CaptureStore truncated;
  for (const std::size_t len : kLengths) {
    net::Packet p = packetWithPayload(len, static_cast<std::uint8_t>(len));
    pristine.append(p);
    plane.onSend(p);
    truncated.append(p);
  }
  EXPECT_NE(pristine.digest(), truncated.digest());
}

// ------------------------------------------------------ k-way shard merge

using ShardBuffers = std::vector<std::vector<net::Packet>>;

std::uint64_t referenceMergeDigest(const ShardBuffers& shards) {
  std::vector<net::Packet> all;
  for (const auto& s : shards) all.insert(all.end(), s.begin(), s.end());
  std::sort(all.begin(), all.end(),
            [](const net::Packet& a, const net::Packet& b) {
              return std::make_tuple(a.ts, a.originId, a.originSeq) <
                     std::make_tuple(b.ts, b.originId, b.originSeq);
            });
  telescope::CaptureStore reference;
  for (const net::Packet& p : all) reference.append(p);
  return reference.digest();
}

/// Time-ordered shard buffers whose equal-timestamp runs hold
/// (originId, originSeq) deliberately OUT of canonical order — the
/// event-scheduling interleave mergeFrom must fix.
ShardBuffers interleavedShards(unsigned shardCount, std::uint64_t seed) {
  sim::Rng rng{seed};
  ShardBuffers shards(shardCount);
  for (unsigned s = 0; s < shardCount; ++s) {
    std::int64_t ts = 0;
    for (int i = 0; i < 500; ++i) {
      net::Packet p = packetWithPayload(i % 17 > 12 ? 12 : i % 17,
                                        static_cast<std::uint8_t>(s));
      if (rng.chance(0.6)) ts += static_cast<std::int64_t>(rng.below(3));
      p.ts = sim::SimTime{ts};
      p.originId = s + shardCount * rng.below(8);
      p.originSeq = static_cast<std::uint64_t>(1000 - i);
      shards[s].push_back(p);
    }
  }
  return shards;
}

/// Every statistic captureStats() gives for `merged` equals a plain count
/// (node sets and maps, no memo) over a store filled by appending its
/// packets one by one.
void expectStatsMatchAppendOrder(const telescope::CaptureStore& merged) {
  telescope::CaptureStore reference;
  for (const net::Packet& p : merged.packets()) reference.append(p);
  std::set<net::Ipv6Address> sources128;
  std::set<net::Ipv6Address> sources64;
  std::set<net::Ipv6Address> destinations;
  std::set<net::Asn> asns;
  std::map<std::int64_t, std::uint64_t> hourly;
  std::map<std::int64_t, std::uint64_t> daily;
  std::map<std::int64_t, std::uint64_t> weekly;
  std::array<std::uint64_t, 3> perProtocol{};
  for (const net::Packet& p : reference.packets()) {
    sources128.insert(p.src);
    sources64.insert(p.src.maskedTo(64));
    destinations.insert(p.dst);
    if (!p.srcAsn.unattributed()) asns.insert(p.srcAsn);
    ++hourly[p.ts.hourIndex()];
    ++daily[p.ts.dayIndex()];
    ++weekly[p.ts.weekIndex()];
    ++perProtocol[static_cast<std::size_t>(p.proto)];
  }
  const telescope::CaptureStats stats =
      telescope::captureStats(merged.packets());
  EXPECT_EQ(stats.sources128, sources128.size());
  EXPECT_EQ(stats.sources64, sources64.size());
  EXPECT_EQ(stats.destinations, destinations.size());
  EXPECT_EQ(stats.asns, asns.size());
  EXPECT_EQ(stats.hourly, hourly);
  EXPECT_EQ(stats.daily, daily);
  EXPECT_EQ(stats.weekly, weekly);
  for (const net::Protocol proto :
       {net::Protocol::Icmpv6, net::Protocol::Tcp, net::Protocol::Udp}) {
    EXPECT_EQ(stats.packetsPerProtocol(proto),
              perProtocol[static_cast<std::size_t>(proto)]);
  }
}

TEST(KWayMerge, DigestMatchesSortReferenceForEveryShardCount) {
  for (const unsigned shardCount : {1u, 2u, 8u}) {
    ShardBuffers shards = interleavedShards(shardCount, 900 + shardCount);
    const std::uint64_t expected = referenceMergeDigest(shards);
    std::size_t total = 0;
    for (const auto& s : shards) total += s.size();
    telescope::CaptureStore merged;
    merged.mergeFrom(std::move(shards));
    EXPECT_EQ(merged.digest(), expected) << "shardCount=" << shardCount;
    EXPECT_EQ(merged.packetCount(), total);
  }
}

TEST(KWayMerge, RebuildsStatsIdenticallyToAppendOrder) {
  ShardBuffers shards(2);
  for (unsigned s = 0; s < 2; ++s) {
    for (int i = 0; i < 200; ++i) {
      net::Packet p = packetWithPayload(12, static_cast<std::uint8_t>(s));
      p.ts = sim::SimTime{i * sim::hours(1).millis() / 4};
      p.src = net::Ipv6Address{0x2001'0db8'0000'0000ULL + s, i % 16u};
      p.originId = s;
      p.originSeq = static_cast<std::uint64_t>(i);
      shards[s].push_back(p);
    }
  }
  telescope::CaptureStore merged;
  merged.mergeFrom(std::move(shards));
  expectStatsMatchAppendOrder(merged);
}

TEST(KWayMerge, OneShardKeepsItsBufferAndAccountsOnce) {
  // One engine's buffer: days of traffic from many sources, ASNs and
  // protocols, with equal-timestamp runs out of canonical order.
  sim::Rng rng{905};
  ShardBuffers shards(1);
  std::int64_t ts = 0;
  for (int i = 0; i < 2000; ++i) {
    net::Packet p = packetWithPayload(12);
    if (rng.chance(0.5)) {
      ts += static_cast<std::int64_t>(rng.below(3)) * sim::minutes(20).millis();
    }
    p.ts = sim::SimTime{ts};
    p.src = net::Ipv6Address{0x2001'0db8'0000'0000ULL + rng.below(5),
                             rng.below(40)};
    p.dst = net::Ipv6Address{0x2001'0db8'ffff'0000ULL, rng.below(300)};
    p.srcAsn = net::Asn{static_cast<std::uint32_t>(rng.below(4))};
    p.proto = static_cast<net::Protocol>(rng.below(3));
    p.originId = static_cast<std::uint32_t>(rng.below(8));
    p.originSeq = static_cast<std::uint64_t>(5000 - i);
    shards[0].push_back(p);
  }
  const net::Packet* buffer = shards[0].data();
  const std::uint64_t expected = referenceMergeDigest(shards);
  telescope::CaptureStore merged;
  merged.mergeFrom(std::move(shards));
  // The default one-shard run moves its buffer in; nothing is copied.
  EXPECT_EQ(merged.packets().data(), buffer);
  EXPECT_EQ(merged.digest(), expected);
  EXPECT_GT(telescope::captureStats(merged.packets()).daily.size(), 1u);
  expectStatsMatchAppendOrder(merged);
}

TEST(CaptureStore, ReserveIsObservablyInert) {
  telescope::CaptureStore plain;
  telescope::CaptureStore reserved;
  reserved.reserve(4096);
  for (int i = 0; i < 300; ++i) {
    net::Packet p = packetWithPayload(static_cast<std::size_t>(i) % 17);
    p.ts = sim::SimTime{i * 500};
    p.originSeq = static_cast<std::uint64_t>(i);
    p.src = net::Ipv6Address{0x2001'0db8'0ULL, i % 32u};
    plain.append(p);
    reserved.append(p);
  }
  EXPECT_EQ(plain.digest(), reserved.digest());
  const telescope::CaptureStats plainStats =
      telescope::captureStats(plain.packets());
  const telescope::CaptureStats reservedStats =
      telescope::captureStats(reserved.packets());
  EXPECT_EQ(plainStats.sources128, reservedStats.sources128);
  EXPECT_EQ(plainStats.hourly, reservedStats.hourly);
}

// ------------------------------------------------------------ flat set

TEST(FlatHashSet, MatchesUnorderedSetReference) {
  sim::Rng rng{77};
  telescope::FlatHashSet<net::Ipv6Address> set;
  std::unordered_set<net::Ipv6Address> reference;
  for (int i = 0; i < 20000; ++i) {
    const net::Ipv6Address a{rng.below(64), rng.below(128)};
    EXPECT_EQ(set.insert(a), reference.insert(a).second);
    ASSERT_EQ(set.size(), reference.size());
  }
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.insert(net::Ipv6Address{1, 1}));
}

// ------------------------------------------------ key-only event queue

TEST(SmallFunc, EngineSizedCapturesRunInline) {
  int hits = 0;
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;
  // A pointer plus five words: exactly the inline capacity. Anything
  // larger does not compile (DESIGN.md §11).
  auto action = [&hits, a, b, c, d, e] {
    hits += static_cast<int>(a + b + c + d + e);
  };
  static_assert(sizeof(action) == sim::SmallFunc::kInlineBytes);
  sim::SmallFunc small{action};
  sim::SmallFunc moved{std::move(small)};
  EXPECT_FALSE(static_cast<bool>(small));
  moved();
  EXPECT_EQ(hits, 15);
}

TEST(SmallFunc, CarriesMoveOnlyCaptures) {
  auto value = std::make_unique<int>(31);
  int seen = 0;
  sim::SmallFunc f{[v = std::move(value), &seen] { seen = *v; }};
  sim::SmallFunc moved{std::move(f)};
  moved();
  EXPECT_EQ(seen, 31);
}

TEST(Engine, HorizonEntryStaysQueuedWithoutReinsertion) {
  // The old implementation popped the minimum, noticed it was past the
  // horizon, and re-pushed it through the heap. The rewrite peeks first;
  // this pins the observable contract: nothing past the horizon fires,
  // nothing is lost, FIFO order survives.
  sim::Engine engine;
  std::vector<int> order;
  engine.schedule(sim::SimTime{40}, [&] { order.push_back(0); });
  engine.schedule(sim::SimTime{50}, [&] { order.push_back(1); });
  engine.schedule(sim::SimTime{100}, [&] { order.push_back(2); });
  engine.schedule(sim::SimTime{100}, [&] { order.push_back(3); });
  EXPECT_EQ(engine.run(sim::SimTime{60}), 2u);
  EXPECT_EQ(engine.pendingEvents(), 2u);
  EXPECT_EQ(engine.now(), sim::SimTime{60});
  engine.runAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, PendingCountUnderChurn) {
  // Every even event schedules a follow-up 100 ms on while it runs, so
  // the queue fills as it drains; freed slots are reused.
  sim::Engine engine;
  for (int i = 0; i < 100; ++i) {
    engine.schedule(sim::SimTime{i}, [&engine, i] {
      if (i % 2 == 0) engine.scheduleAfter(sim::millis(100), [] {});
    });
  }
  EXPECT_EQ(engine.pendingEvents(), 100u);
  EXPECT_EQ(engine.run(sim::SimTime{49}), 50u);
  EXPECT_EQ(engine.pendingEvents(), 75u);
  EXPECT_EQ(engine.runAll(), 100u);
  EXPECT_EQ(engine.pendingEvents(), 0u);
  EXPECT_EQ(engine.executedEvents(), 150u);
}

// Differential check of the heap against the obvious reference: a
// std::set of (when, seq) pending keys. Seeded random interleavings of
// schedule (mostly colliding timestamps, some in the past) and run(until);
// some actions schedule a follow-up from inside the run, at the same
// instant or just after. Chains are the session pattern: each link picks
// its successor's time and runs it in place when continueInline() allows,
// else schedules it; the reference schedules every successor. Executed
// order, now(), executedEvents(), run()'s count and pendingEvents() must
// match.

/// A chain link's gap to its successor: 0–7 ms, a pure function of the
/// link's tag, so both sides draw the same one. With run() horizons 0–5 ms
/// ahead, some successors tie with pending keys and some fall past the
/// horizon.
sim::Duration chainGap(std::uint64_t tag) {
  return sim::millis(
      static_cast<std::int64_t>(sim::deriveStreamSeed(0xc4a1, tag) % 8));
}

class EngineUnderTest {
public:
  /// Schedule an event tagged with its scheduling index.
  void schedule(sim::SimTime when) {
    engine_.schedule(when, action(issued_++));
  }
  /// Schedule the first link of a chain with `length` more links after it.
  void chain(sim::SimTime when, std::uint64_t length) {
    engine_.schedule(when, link(issued_++, length));
  }
  std::uint64_t run(sim::SimTime until) {
    until_ = until;
    return engine_.run(until);
  }
  std::uint64_t runAll() {
    until_ = sim::SimTime{std::numeric_limits<std::int64_t>::max()};
    return engine_.runAll();
  }
  sim::Engine& engine() { return engine_; }
  [[nodiscard]] const std::vector<std::uint64_t>& order() const {
    return order_;
  }
  [[nodiscard]] std::uint64_t scheduledLinks() const { return scheduledLinks_; }
  [[nodiscard]] std::uint64_t linksPastHorizon() const {
    return linksPastHorizon_;
  }

private:
  sim::Engine::Action action(std::uint64_t tag) {
    return [this, tag] {
      order_.push_back(tag);
      if (tag % 5 == 0) {
        schedule(engine_.now() + sim::millis(static_cast<std::int64_t>(tag % 3)));
      }
    };
  }
  sim::Engine::Action link(std::uint64_t tag, std::uint64_t left) {
    return [this, tag, left] { runChain(tag, left); };
  }
  void runChain(std::uint64_t tag, std::uint64_t left) {
    for (;;) {
      order_.push_back(tag);
      if (left-- == 0) return;
      const sim::SimTime next = engine_.now() + chainGap(tag);
      tag = issued_++; // the successor's tag, as the reference issues it
      if (!engine_.continueInline(next)) {
        engine_.schedule(next, link(tag, left));
        ++scheduledLinks_;
        if (next > until_) ++linksPastHorizon_;
        return;
      }
    }
  }

  sim::Engine engine_;
  std::uint64_t issued_ = 0; // tags handed out
  std::vector<std::uint64_t> order_;
  sim::SimTime until_; // horizon of the run() in progress
  std::uint64_t scheduledLinks_ = 0;
  std::uint64_t linksPastHorizon_ = 0;
};

class ReferenceQueue {
public:
  void schedule(sim::SimTime when) {
    pending_.emplace(Key{std::max(when, now_), nextSeq_++}, issued_++);
  }
  void chain(sim::SimTime when, std::uint64_t length) {
    chainLeft_[issued_] = length;
    schedule(when);
  }
  /// Returns the events executed.
  std::uint64_t run(sim::SimTime until) {
    const std::uint64_t before = executed_;
    while (!pending_.empty() && pending_.begin()->first.first <= until) {
      const auto [key, tag] = *pending_.begin();
      pending_.erase(pending_.begin());
      now_ = key.first;
      order_.push_back(tag);
      ++executed_;
      if (const auto link = chainLeft_.find(tag); link != chainLeft_.end()) {
        if (link->second > 0) chain(now_ + chainGap(tag), link->second - 1);
      } else if (tag % 5 == 0) {
        schedule(now_ + sim::millis(static_cast<std::int64_t>(tag % 3)));
      }
    }
    now_ = std::max(now_, until);
    return executed_ - before;
  }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] sim::SimTime now() const { return now_; }
  [[nodiscard]] const std::vector<std::uint64_t>& order() const {
    return order_;
  }

private:
  using Key = std::pair<sim::SimTime, std::uint64_t>; // (when, seq)
  sim::SimTime now_ = sim::kEpoch;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t executed_ = 0;
  std::map<Key, std::uint64_t> pending_; // -> tag
  std::map<std::uint64_t, std::uint64_t> chainLeft_; // link tag -> links after
  std::vector<std::uint64_t> order_;
};

TEST(Engine, DifferentialAgainstOrderedSetReference) {
  std::uint64_t inlined = 0;
  std::uint64_t scheduledLinks = 0;
  std::uint64_t pastHorizon = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng{seed};
    EngineUnderTest engine;
    ReferenceQueue reference;
    for (int step = 0; step < 3000; ++step) {
      const std::uint64_t op = rng.below(100);
      const std::int64_t now = reference.now().millis();
      // Few distinct instants, so most keys tie on `when`; one in ten
      // lands in the past and is clamped to now().
      const std::int64_t offset = static_cast<std::int64_t>(rng.below(8)) -
                                  (rng.chance(0.1) ? 10 : 0);
      const sim::SimTime when{now + offset};
      if (op < 50) {
        engine.schedule(when);
        reference.schedule(when);
      } else if (op < 62) {
        const std::uint64_t length = 1 + rng.below(6);
        engine.chain(when, length);
        reference.chain(when, length);
      } else if (op < 64) {
        // No inline step outside run(): no seq taken, no clock move.
        EXPECT_FALSE(engine.engine().continueInline(when));
      } else {
        const sim::SimTime until{now + static_cast<std::int64_t>(rng.below(6))};
        ASSERT_EQ(engine.run(until), reference.run(until))
            << "seed " << seed << " step " << step;
        ASSERT_EQ(engine.order(), reference.order())
            << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(engine.engine().now(), reference.now())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(engine.engine().executedEvents(), reference.executed())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(engine.engine().pendingEvents(), reference.pending())
          << "seed " << seed << " step " << step;
    }
    const sim::SimTime end{std::numeric_limits<std::int64_t>::max()};
    EXPECT_EQ(engine.runAll(), reference.run(end)) << "seed " << seed;
    EXPECT_EQ(engine.order(), reference.order()) << "seed " << seed;
    EXPECT_EQ(engine.engine().executedEvents(), reference.executed());
    inlined += engine.engine().inlineEvents();
    scheduledLinks += engine.scheduledLinks();
    pastHorizon += engine.linksPastHorizon();
  }
  // Both outcomes of continueInline() occur, the horizon refusing some, so
  // the check is not vacuous.
  EXPECT_GT(inlined, 100u);
  EXPECT_GT(scheduledLinks, 100u);
  EXPECT_GT(pastHorizon, 10u);
}

} // namespace
} // namespace v6t
