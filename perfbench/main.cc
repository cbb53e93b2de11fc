// perfbench: the repository benchmark program (see README.md here).
//
//   perfbench --workload feed|ticker|protein --seed N --seconds S --trace 0|1
//             [--spans FILE]
//
// --trace 0 measures the end-to-end metrics over the wire with tracing
// off. --trace 1 runs the per-layer measurements and a traced wire
// session, and prints the per-layer metrics. Either way the last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Lines before it start with '#' and are for people (fingerprint, workload
// properties, sample counts, the layer table).

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "xml/simd_scan.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--spans") {
      a->spans_path = v;
    } else {
      return false;
    }
  }
  return FindSpec(a->workload) != nullptr && have_seed && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The hardware and build a result was measured on. Results are comparable
// only between equal fingerprints (run.py compare enforces it).
std::string Fingerprint() {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"cpu\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"scan_tier\": \"%s\"}",
      JsonEscape(CpuModel()).c_str(), std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, JsonEscape(__VERSION__).c_str(),
      std::string(vitex::xml::scan::ScanModeName(
                      vitex::xml::scan::ActiveScanMode()))
          .c_str());
  return buf;
}

// Peak RSS of the process since ResetPeakRss (VmHWM), in MB.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

void PrintMetric(const Report::Metric& m, const std::string& note = "") {
  std::printf("# %-40s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

std::string Samples(const Percentiles& p) {
  size_t beyond = p.count - static_cast<size_t>(std::ceil(0.99 * p.count));
  return "n=" + std::to_string(p.count) + ", " + std::to_string(beyond) +
         " beyond p99";
}

// Self time per span name: duration minus the part covered by child spans
// (same id, parent == name).
void PrintSelfTimes(const std::vector<Span>& spans) {
  struct Row {
    size_t count = 0;
    double total_ms = 0, child_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span& s : spans) {
    Row& r = rows[s.name];
    ++r.count;
    r.total_ms += (s.end_ns - s.start_ns) / 1e6;
    if (s.parent[0] != '\0') rows[s.parent].child_ms += (s.end_ns - s.start_ns) / 1e6;
  }
  std::printf("# span self times (ms): name count total self\n");
  for (const auto& [name, r] : rows) {
    std::printf("#   %-22s %9zu %12.3f %12.3f\n", name.c_str(), r.count,
                r.total_ms, r.total_ms - r.child_ms);
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "name\tparent\tid\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.parent << '\t' << s.id << '\t' << s.start_ns
        << '\t' << s.end_ns << '\n';
  }
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload feed|ticker|protein --seed N "
                 "--seconds S --trace 0|1 [--spans FILE]\n");
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace);
  std::printf("# fingerprint %s\n", Fingerprint().c_str());

  vitex::Result<Workload> gen = Generate(a.workload, a.seed);
  if (!gen.ok()) {
    std::fprintf(stderr, "generate: %s\n", gen.status().ToString().c_str());
    return 1;
  }
  Workload& w = gen.value();
  const int64_t ref0 = NowNs();
  vitex::Status ref = ComputeReference(&w, 4);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference: %s\n", ref.ToString().c_str());
    return 1;
  }
  vitex::Result<Properties> props = Describe(w);
  if (!props.ok()) {
    std::fprintf(stderr, "properties: %s\n", props.status().ToString().c_str());
    return 1;
  }
  const Properties& p = props.value();
  std::printf(
      "# properties workload=%s p50_doc_bytes=%.0f events_per_doc=%.1f "
      "subscriptions=%zu distinct_skeletons=%zu machines=%zu "
      "matches_per_doc=%.1f matching_share=%.4f churn_ops_per_s=%.0f "
      "low_rate=%.0f high_rate=%.0f pool_docs=%zu reference_s=%.2f\n",
      a.workload.c_str(), p.p50_doc_bytes, p.events_per_doc, p.subscriptions,
      p.distinct_skeletons, p.machines, p.matches_per_doc, p.matching_share,
      p.churn_ops_per_s, w.spec->low_rate, w.spec->high_rate, w.pool_size(),
      (NowNs() - ref0) / 1e9);
  for (size_t q = 0; q < w.initial_queries; ++q) {
    if (w.docs_with_answers[q].empty()) {
      std::printf("# no pool document matches: %s\n", w.queries[q].c_str());
    }
  }
  if (a.workload != "protein" && p.unmatched_subscriptions > 0) {
    std::fprintf(stderr,
                 "%zu subscriptions match no pool document; a workload that "
                 "never touches the code under test is not evidence\n",
                 p.unmatched_subscriptions);
    return 1;
  }
  std::fflush(stdout);

  ResetPeakRss();
  SpanLog spans(a.trace == 1);
  Report report;
  uint64_t layer_failures = 0;
  if (a.trace == 1) {
    vitex::Result<uint64_t> layers = RunLayers(w, a.seconds, &spans, &report);
    if (!layers.ok()) {
      std::fprintf(stderr, "layers: %s\n", layers.status().ToString().c_str());
      return 1;
    }
    layer_failures = layers.value();
  }
  WireOptions wo;
  wo.seconds = a.seconds;
  wo.traced = a.trace == 1;
  vitex::Result<WireResult> wire = RunWire(w, wo, &spans);
  if (!wire.ok()) {
    std::fprintf(stderr, "wire: %s\n", wire.status().ToString().c_str());
    return 1;
  }
  const WireResult& r = wire.value();
  const double peak_rss = PeakRssMb();

  const uint64_t failed = r.tally.failures() + r.publish_errors +
                          r.churn_errors + r.results_overflowed +
                          r.documents_rejected + r.matches_dropped +
                          r.evicted + layer_failures;
  const uint64_t attempted =
      std::max<uint64_t>(1, r.tally.expected() + r.publishes_attempted);
  const double failed_ratio = static_cast<double>(failed) / attempted;
  std::printf(
      "# deliveries: expected=%llu delivered=%llu lost=%llu duplicated=%llu "
      "wrong=%llu; publishes=%llu refused=%llu; churn_errors=%llu "
      "overflowed=%llu rejected=%llu dropped=%llu evicted=%llu\n",
      static_cast<unsigned long long>(r.tally.expected()),
      static_cast<unsigned long long>(r.tally.delivered),
      static_cast<unsigned long long>(r.tally.lost),
      static_cast<unsigned long long>(r.tally.duplicated),
      static_cast<unsigned long long>(r.tally.wrong),
      static_cast<unsigned long long>(r.publishes_attempted),
      static_cast<unsigned long long>(r.publish_errors),
      static_cast<unsigned long long>(r.churn_errors),
      static_cast<unsigned long long>(r.results_overflowed),
      static_cast<unsigned long long>(r.documents_rejected),
      static_cast<unsigned long long>(r.matches_dropped),
      static_cast<unsigned long long>(r.evicted));

  std::vector<double> setup = r.setup_s;
  const double setup_s = Quantile(&setup, 0.5);
  // The bounded end-to-end metrics (the result of a --trace 0 run) ...
  Report e2e;
  e2e.Add("capacity_docs_per_s", r.capacity_docs_per_s, "docs/s");
  e2e.Add("capacity_mb_per_s", r.capacity_mb_per_s, "MB/s");
  e2e.Add("setup_s", setup_s, "s");
  e2e.Add("peak_rss_mb", peak_rss, "MB");
  // ... and the latencies, measured and printed in every run but compared
  // only as per-layer metrics: on a shared 4-core VM their run-to-run
  // spread exceeded any bound a benchmark may set (README.md).
  Report latencies;
  latencies.Add("delivery_p50_ms.low", r.low.p50, "ms");
  latencies.Add("delivery_p99_ms.low", r.low.p99, "ms");
  latencies.Add("delivery_p50_ms.high", r.high.p50, "ms");
  latencies.Add("delivery_p99_ms.high", r.high.p99, "ms");
  latencies.Add("subscribe_p50_ms", r.subscribe.p50, "ms");
  latencies.Add("subscribe_p99_ms", r.subscribe.p99, "ms");
  const std::map<std::string, std::string> notes = {
      {"delivery_p50_ms.low", Samples(r.low)},
      {"delivery_p99_ms.low", Samples(r.low)},
      {"delivery_p50_ms.high", Samples(r.high)},
      {"delivery_p99_ms.high", Samples(r.high)},
      {"subscribe_p50_ms", Samples(r.subscribe)},
      {"subscribe_p99_ms", Samples(r.subscribe)},
      {"setup_s", "median of " + std::to_string(r.setup_s.size()) + " set-ups"},
  };
  const char* traced = a.trace == 1 ? " (traced run)" : "";
  for (const Report* part : {&e2e, &latencies}) {
    std::printf("# %s%s:\n",
                part == &e2e ? "end-to-end" : "latencies (per-layer)", traced);
    for (const Report::Metric& m : part->metrics()) {
      auto it = notes.find(m.name);
      PrintMetric(m, it == notes.end() ? "" : it->second);
    }
  }
  PrintMetric({"failed_ratio", failed_ratio, "ratio"},
              std::to_string(failed) + " / " + std::to_string(attempted));

  if (a.trace == 1) {
    const double docs = static_cast<double>(std::max<uint64_t>(1, r.documents_total));
    for (const Report::Metric& m : latencies.metrics()) {
      report.Add(m.name, m.value, m.unit);
    }
    report.Add("net.ping_rtt_us.p50", r.ping_us.p50, "us");
    report.Add("net.ping_rtt_us.p99", r.ping_us.p99, "us");
    report.Add("net.wire_leg_ms.p50", r.low.p50 - r.low_stage_e2e_ms.p50, "ms");
    report.Add("net.wire_leg_ms.p99", r.low.p99 - r.low_stage_e2e_ms.p99, "ms");
    report.Add("net.publish_ack_us.p50", r.publish_ack_us.p50, "us");
    report.Add("net.publish_ack_us.p99", r.publish_ack_us.p99, "us");
    report.Add("net.subscribe_rtt_ms.p99", r.subscribe.p99, "ms");
    report.Add("net.match_frames_per_doc", r.matches_sent / docs, "count");
    report.Add("net.bytes_out_per_doc", r.bytes_out / docs, "B");
    report.Add("net.outbuf_high_watermark_kb", r.outbuf_high_watermark / 1024.0, "KB");
    report.Add("net.matches_dropped", static_cast<double>(r.matches_dropped), "count");
    report.Add("net.evicted", static_cast<double>(r.evicted), "count");
    report.Add("net.recv_idle_share", r.recv_idle_share, "ratio");
    report.Add("obs.statsz_ms", r.statsz_ms.p50, "ms");
    report.Add("loadgen.late_ms.p99", r.late_p99_ms, "ms");
    report.Add("loadgen.offered_docs_per_s", r.offered_docs_per_s, "docs/s");
    report.Add("trace.overhead_pct",
               100.0 * (r.untraced_capacity_docs_per_s / r.capacity_docs_per_s - 1.0),
               "%");
    report.Add("failed_ratio", failed_ratio, "ratio");
    std::printf("# samples: net.ping_rtt_us %s; net.publish_ack_us %s; "
                "obs.statsz_ms n=%zu; low-phase stage_e2e n=%zu\n",
                Samples(r.ping_us).c_str(), Samples(r.publish_ack_us).c_str(),
                r.statsz_ms.count, r.low_stage_e2e_ms.count);
    std::printf("# per-layer:\n");
    for (const Report::Metric& m : report.metrics()) PrintMetric(m);
    std::vector<Span> all = spans.Take();
    PrintSelfTimes(all);
    if (!a.spans_path.empty()) WriteSpans(a.spans_path, all);
  }

  const Report& shown = a.trace == 1 ? report : e2e;
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Report::Metric& m : shown.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 1e300);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
