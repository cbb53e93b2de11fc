// Shared pieces of the perfbench program: the metric report, percentiles,
// and the in-memory span recorder used by traced runs.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "checker.h"
#include "common/result.h"
#include "workloads.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ordered list of named metrics with units.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// q-quantile (nearest rank) of `v`; sorts `v`. Empty -> 0.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  if (rank > 0 && static_cast<double>(rank) == q * v->size()) --rank;
  return (*v)[std::min(rank, v->size() - 1)];
}

/// Percentile summary with its sample count (printed beside it).
struct Percentiles {
  double p50 = 0, p99 = 0;
  size_t count = 0;
  static Percentiles Of(std::vector<double> v) {
    Percentiles p;
    p.count = v.size();
    p.p50 = Quantile(&v, 0.50);
    p.p99 = Quantile(&v, 0.99);
    return p;
  }
};

/// One span: a timed call into a layer. Spans of one document share `id`;
/// `parent` names the enclosing span (empty for a root).
struct Span {
  const char* name;
  const char* parent;
  uint64_t id;
  int64_t start_ns, end_ns;
};

/// Spans kept in memory while a traced run measures, written out at the
/// end. Disabled recorders cost one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  void Add(const char* name, const char* parent, uint64_t id, int64_t start,
           int64_t end) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, id, start, end});
  }
  /// Adds a whole batch (one thread's spans) under one lock.
  void AddAll(const std::vector<Span>& spans) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans.begin(), spans.end());
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  const bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// --- the two measured runs ---------------------------------------------------

struct WireOptions {
  double seconds = 10;
  bool traced = false;
};

/// Results of one wire session (wire.cc). Latencies in ms unless named.
struct WireResult {
  std::vector<double> setup_s;  // one per repeated set-up
  double capacity_docs_per_s = 0, capacity_mb_per_s = 0;
  double untraced_capacity_docs_per_s = 0;  // traced runs: reference pass
  Percentiles low, high;       // delivery latency, ms
  Percentiles subscribe;       // churn SUBSCRIBE round trip, ms
  Tally tally;                 // MATCH frames vs reference
  uint64_t publishes_attempted = 0;
  uint64_t publish_errors = 0;     // refused or rejected publishes
  uint64_t churn_errors = 0;       // failed SUBSCRIBE/UNSUBSCRIBE
  uint64_t results_overflowed = 0;
  uint64_t documents_rejected = 0;
  uint64_t matches_dropped = 0;
  uint64_t evicted = 0;
  uint64_t documents_total = 0;
  // Per-layer detail.
  Percentiles ping_us, publish_ack_us, statsz_ms;
  Percentiles low_stage_e2e_ms;  // service stage_e2e over the low phase
  double late_p99_ms = 0, offered_docs_per_s = 0;
  double recv_idle_share = 0;
  uint64_t matches_sent = 0, bytes_out = 0, outbuf_high_watermark = 0;
};

vitex::Result<WireResult> RunWire(const Workload& w, const WireOptions& o,
                                  SpanLog* spans);

/// The traced single-layer measurements (layers.cc): appends every
/// per-layer metric except the net/obs/loadgen ones to `out`, and the
/// single-threaded self-time table to stdout. Returns the number of
/// deliveries that disagreed with the reference (in-process service).
vitex::Result<uint64_t> RunLayers(const Workload& w, double budget_s,
                                  SpanLog* spans, Report* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
