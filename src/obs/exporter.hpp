// v6t::obs — real-time snapshot exporter.
//
// A background observer thread that, every `intervalSeconds` of *wall*
// time, appends one JSONL metrics snapshot to a file and prints a progress
// heartbeat line to stderr. The exporter only ever reads relaxed-atomic
// metric values through the callbacks it is given — it cannot perturb the
// simulation, which is the determinism guarantee `--metrics-out` relies
// on. stop() (or destruction) joins the thread and writes one final
// snapshot so short runs always produce at least one line.
#pragma once

#include <condition_variable>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace v6t::obs {

struct ExporterOptions {
  std::string jsonlPath; // empty: no snapshot file (heartbeat only)
  double intervalSeconds = 1.0; // wall-clock tick period
  bool heartbeat = true; // progress line to stderr each tick
};

class PeriodicExporter {
public:
  /// `writeSnapshot` appends exactly one JSONL line; `heartbeat` returns
  /// the progress line (empty string suppresses it for that tick).
  using SnapshotFn = std::function<void(std::ostream&)>;
  using HeartbeatFn = std::function<std::string()>;

  PeriodicExporter(ExporterOptions options, SnapshotFn writeSnapshot,
                   HeartbeatFn heartbeat = {});
  ~PeriodicExporter();

  PeriodicExporter(const PeriodicExporter&) = delete;
  PeriodicExporter& operator=(const PeriodicExporter&) = delete;

  /// Stop ticking, write the final snapshot, join. Idempotent.
  void stop();

private:
  void loop();
  void tick();

  ExporterOptions options_;
  SnapshotFn writeSnapshot_;
  HeartbeatFn heartbeat_;
  std::ofstream out_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

} // namespace v6t::obs
