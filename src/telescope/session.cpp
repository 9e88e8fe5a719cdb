#include "telescope/session.hpp"

#include <algorithm>

namespace v6t::telescope {

std::vector<std::pair<sim::SimTime, sim::SimTime>> normalizeGapWindows(
    std::vector<std::pair<sim::SimTime, sim::SimTime>> gaps) {
  std::sort(gaps.begin(), gaps.end());
  std::vector<std::pair<sim::SimTime, sim::SimTime>> out;
  out.reserve(gaps.size());
  for (const auto& g : gaps) {
    if (!out.empty() && g.first <= out.back().second) {
      out.back().second = std::max(out.back().second, g.second);
    } else {
      out.push_back(g);
    }
  }
  return out;
}

bool silenceSpansGap(
    std::span<const std::pair<sim::SimTime, sim::SimTime>> gaps,
    sim::SimTime lastSeen, sim::SimTime now) {
  if (now <= lastSeen || gaps.empty()) return false;
  // The windows are sorted and disjoint (normalizeGapWindows merged
  // overlaps), so their end times increase monotonically: binary-search
  // the first window still open after lastSeen instead of scanning all.
  const auto it = std::lower_bound(
      gaps.begin(), gaps.end(), lastSeen,
      [](const std::pair<sim::SimTime, sim::SimTime>& g, sim::SimTime t) {
        return g.second <= t;
      });
  // The silent interval (lastSeen, now] overlaps the outage window: the
  // telescope was dark for part of the silence, so continuity cannot be
  // attested and the session must split. Later windows start even later,
  // so only the first candidate can overlap.
  return it != gaps.end() && now >= it->first;
}

template <typename Record>
void BasicSessionizer<Record>::offer(const net::Packet& p, std::uint32_t idx) {
  const net::Ipv6Address key = p.src.maskedTo(bits(agg_));
  auto [it, fresh] = open_.try_emplace(key);
  Record& open = it->second;
  if (!fresh) {
    const bool gapped = silenceSpansGap(gaps_, open.end, p.ts);
    if (p.ts - open.end <= timeout_ && !gapped) {
      open.end = p.ts;
      open.add(p, idx);
      return;
    }
    // Timeout exceeded or a capture gap interposed: the session is done.
    done_.push_back(std::move(open));
    if (gapped) {
      ++stats_.closedByGap;
    } else {
      ++stats_.closedByTimeout;
    }
  }
  ++stats_.opened;
  open = Record{};
  open.source = SourceKey{key, agg_};
  open.start = p.ts;
  open.end = p.ts;
  open.add(p, idx);
}

template <typename Record>
std::vector<Record> BasicSessionizer<Record>::drainClosed() {
  std::vector<Record> out = std::move(done_);
  done_.clear();
  return out;
}

template <typename Record>
std::vector<Record> BasicSessionizer<Record>::finish() {
  stats_.openAtFinish += open_.size();
  for (auto& [key, open] : open_) done_.push_back(std::move(open));
  open_.clear();
  std::vector<Record> out = drainClosed();
  std::stable_sort(out.begin(), out.end(), SessionOrder{});
  return out;
}

template class BasicSessionizer<Session>;
template class BasicSessionizer<SessionSummary>;

std::vector<Session> sessionize(
    std::span<const net::Packet> packets, SourceAgg agg,
    sim::Duration timeout, SessionStats* statsOut,
    std::vector<std::pair<sim::SimTime, sim::SimTime>> captureGaps) {
  Sessionizer s{agg, timeout};
  if (!captureGaps.empty()) s.setCaptureGaps(std::move(captureGaps));
  for (std::uint32_t i = 0; i < packets.size(); ++i) s.offer(packets[i], i);
  auto out = s.finish();
  if (statsOut != nullptr) *statsOut = s.stats();
  return out;
}

std::vector<SourceSessions> groupBySource(std::span<const Session> sessions,
                                          std::size_t distinctSourcesHint) {
  std::vector<SourceSessions> out;
  std::unordered_map<SourceKey, std::size_t> index;
  const std::size_t estimate =
      distinctSourcesHint != 0 ? distinctSourcesHint : sessions.size();
  out.reserve(estimate);
  index.reserve(estimate);
  for (std::uint32_t i = 0; i < sessions.size(); ++i) {
    const SourceKey& key = sessions[i].source;
    auto [it, fresh] = index.emplace(key, out.size());
    if (fresh) out.push_back(SourceSessions{key, {}});
    out[it->second].sessionIdx.push_back(i);
  }
  return out;
}

} // namespace v6t::telescope
