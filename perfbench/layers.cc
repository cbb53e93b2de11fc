// The traced per-layer run: each layer's public functions called from
// outside, one layer at a time, on the workload's own documents and
// subscriptions. Spans are recorded around these calls; spans of one
// document share its id.
//
//   xml     scan::FindMarkup sweep; SaxParser::Feed/Finish into an
//           EventRecorder; EventLog::Replay into a no-op handler
//   xpath   ParseAndCompile + Canonicalize per subscription
//   twigm   one MultiQueryEngine holding every subscription: the
//           single-threaded baseline (parse, then RunEvents)
//   service vitex::Service with the default options, push sinks that
//           count, Publish ... Flush

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>

#include "bench.h"
#include "service/vitex.h"
#include "twigm/multi_query.h"
#include "xml/event_log.h"
#include "xml/sax_parser.h"
#include "xml/simd_scan.h"
#include "xpath/canonical.h"
#include "xpath/query.h"

namespace perfbench {
namespace {

using vitex::Result;
using vitex::Status;

class NoopHandler : public vitex::xml::ContentHandler {};

class CountingResults : public vitex::twigm::ResultHandler {
 public:
  void OnResult(std::string_view fragment, uint64_t) override {
    ++count;
    bytes += fragment.size();
  }
  uint64_t count = 0, bytes = 0;
};

class CountingSink : public vitex::MatchSink {
 public:
  bool OnMatch(vitex::SubscriptionId, const vitex::Delivery&) override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  void OnOverflow(vitex::SubscriptionId, uint64_t) override {}
  std::atomic<uint64_t> calls{0};
};

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / v.size();
}

// Keeps sampling until both floors are met, or the ceiling is reached.
struct Budget {
  size_t min_samples;
  double min_s, max_s;
  int64_t start = NowNs();
  bool More(size_t samples) const {
    double el = (NowNs() - start) / 1e9;
    return el < max_s && (samples < min_samples || el < min_s);
  }
};

// `name` value line of a /statsz payload (first series of that name).
double StatszValue(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > name.size() && line.compare(0, name.size(), name) == 0 &&
        (line[name.size()] == ' ' || line[name.size()] == '{')) {
      return std::stod(line.substr(line.rfind(' ') + 1));
    }
  }
  return 0;
}

void PrintLayerTable(const Workload& w, double scan_us, double parse_us,
                     double replay_us, double run_us, double doc_us) {
  const double match_us = run_us - replay_us;
  const double sum = parse_us + replay_us + match_us;
  auto row = [&](const char* name, double us) {
    std::printf("#   %-26s %12.2f %7.1f%%\n", name, us, 100.0 * us / doc_us);
  };
  std::printf("# layer table (%s, single-threaded baseline, us per document;"
              " share of the measured parse-then-RunEvents time)\n",
              w.spec->name);
  std::printf("#   %-26s %12.2f   (informational: raw markup scan)\n",
              "xml.scan", scan_us);
  row("xml.parse (+record)", parse_us);
  row("xml.replay", replay_us);
  row("twigm.match (run - replay)", match_us);
  row("sum of rows", sum);
  row("measured parse+RunEvents", doc_us);
  row("self (loop glue)", doc_us - parse_us - run_us);
  const double err = 100.0 * (sum - doc_us) / doc_us;
  std::printf("#   rows add up within %.1f%% of measured: %s\n", err,
              std::abs(err) <= 10.0 ? "yes" : "NO");
}

}  // namespace

Result<uint64_t> RunLayers(const Workload& w, double budget_s, SpanLog* spans,
                           Report* out) {
  const size_t pool = w.pool_size();
  const size_t subs = w.initial_queries;

  // --- xpath ----------------------------------------------------------------
  std::vector<double> compile_us;
  for (Budget b{1000, 0.05, 0.2 * budget_s}; b.More(compile_us.size());) {
    for (size_t q = 0; q < subs; ++q) {
      const int64_t t0 = NowNs();
      Result<vitex::xpath::Query> c = vitex::xpath::ParseAndCompile(w.queries[q]);
      if (!c.ok()) return c.status();
      vitex::xpath::CanonicalQuery canon = vitex::xpath::Canonicalize(c.value());
      const int64_t t1 = NowNs();
      compile_us.push_back((t1 - t0) / 1e3);
      spans->Add("xpath.compile", "", q, t0, t1);
      if (canon.key.empty()) return Status::Internal("empty canonical key");
    }
  }
  Percentiles compile = Percentiles::Of(compile_us);
  out->Add("xpath.compile_us.p50", compile.p50, "us");
  out->Add("xpath.compile_us.p99", compile.p99, "us");

  // --- twigm: one engine holding every subscription --------------------------
  CountingResults results;
  vitex::twigm::MultiQueryEngine engine;
  std::vector<double> add_us;
  for (size_t q = 0; q < subs; ++q) {
    const int64_t t0 = NowNs();
    Result<vitex::twigm::QueryId> id = engine.AddQuery(w.queries[q], &results);
    const int64_t t1 = NowNs();
    if (!id.ok()) return id.status();
    add_us.push_back((t1 - t0) / 1e3);
    spans->Add("twigm.add_query", "", q, t0, t1);
  }

  // --- xml parse + twigm run, per document: the single-threaded baseline ----
  vitex::xml::SaxParserOptions sax;
  sax.symbols = engine.symbols();
  vitex::xml::EventLog log;
  vitex::xml::EventRecorder recorder(&log);
  vitex::xml::SaxParser parser(&recorder, sax);
  std::vector<double> parse_us, run_us, doc_us;
  uint64_t events = 0, log_bytes = 0, doc_bytes = 0;
  size_t live_bytes = 0;
  std::vector<vitex::xml::EventLog> logs(pool);
  for (Budget b{1000, 0.1 * budget_s, 0.3 * budget_s};
       b.More(doc_us.size()) || doc_us.size() < pool;) {
    const size_t i = doc_us.size();
    const std::string& doc = w.docs[i % pool];
    const int64_t t0 = NowNs();
    log.Clear();
    parser.Reset();
    Status st = parser.Feed(doc);
    if (st.ok()) st = parser.Finish();
    const int64_t t1 = NowNs();
    if (st.ok()) st = engine.RunEvents(log);
    const int64_t t2 = NowNs();
    if (!st.ok()) return st;
    parse_us.push_back((t1 - t0) / 1e3);
    run_us.push_back((t2 - t1) / 1e3);
    doc_us.push_back((t2 - t0) / 1e3);
    spans->Add("baseline.doc", "", i, t0, t2);
    spans->Add("xml.parse", "baseline.doc", i, t0, t1);
    spans->Add("twigm.run_events", "baseline.doc", i, t1, t2);
    events += log.size();
    log_bytes += log.memory_bytes();
    doc_bytes += doc.size();
    live_bytes = std::max(live_bytes, engine.total_live_bytes());
    if (i < pool) logs[i] = log;
  }
  const double docs_run = static_cast<double>(doc_us.size());

  // --- xml replay into a no-op handler, same documents ----------------------
  NoopHandler noop;
  std::vector<double> replay_us;
  for (size_t i = 0; i < doc_us.size(); ++i) {
    const int64_t t0 = NowNs();
    Status st = logs[i % pool].Replay(&noop);
    const int64_t t1 = NowNs();
    if (!st.ok()) return st;
    replay_us.push_back((t1 - t0) / 1e3);
    spans->Add("xml.replay", "", i, t0, t1);
  }

  // --- xml scan sweeps over the whole pool (one span per sweep) -------------
  uint64_t scanned = 0, markup = 0;
  int64_t scan_ns = 0;
  size_t scan_docs = 0;
  for (Budget b{pool, 0.03 * budget_s, 0.06 * budget_s}; b.More(scan_docs);) {
    const int64_t t0 = NowNs();
    for (const std::string& doc : w.docs) {
      for (size_t pos = vitex::xml::scan::FindMarkup(doc, 0);
           pos != vitex::xml::scan::kNotFound;
           pos = vitex::xml::scan::FindMarkup(doc, pos + 1)) {
        ++markup;
      }
      scanned += doc.size();
    }
    const int64_t t1 = NowNs();
    scan_ns += t1 - t0;
    spans->Add("xml.scan", "", scan_docs / pool, t0, t1);
    scan_docs += pool;
  }
  if (markup == 0) return Status::Internal("scan found no markup");

  const double parse_mean = Mean(parse_us), replay_mean = Mean(replay_us);
  const double run_mean = Mean(run_us), doc_mean = Mean(doc_us);
  const double single_docs_s = 1e6 / doc_mean;
  out->Add("xml.scan_gb_per_s", scanned / (scan_ns / 1e9) / 1e9, "GB/s");
  out->Add("xml.parse_us_per_doc", parse_mean, "us");
  out->Add("xml.parse_mb_per_s", doc_bytes / (parse_mean * docs_run) , "MB/s");
  out->Add("xml.replay_us_per_doc", replay_mean, "us");
  out->Add("xml.events_per_doc", events / docs_run, "count");
  out->Add("xml.log_bytes_per_doc", log_bytes / docs_run, "B");

  const vitex::twigm::DispatchStats& ds = engine.dispatch_stats();
  const double ev = static_cast<double>(ds.start_events + ds.end_events + ds.text_nodes);
  Percentiles run = Percentiles::Of(run_us);
  std::vector<double> add_copy = add_us;
  out->Add("twigm.add_query_us.p50", Quantile(&add_copy, 0.5), "us");
  out->Add("twigm.run_us_per_doc.p50", run.p50, "us");
  out->Add("twigm.run_us_per_doc.p99", run.p99, "us");
  out->Add("twigm.match_us_per_doc", run_mean - replay_mean, "us");
  out->Add("twigm.single_thread_docs_per_s", single_docs_s, "docs/s");
  out->Add("twigm.visits_per_event",
           (ds.start_visits + ds.end_visits + ds.text_visits) / ev, "count");
  out->Add("twigm.broadcast_visits_per_event", ds.broadcast_visits / ev, "count");
  out->Add("twigm.subs_per_machine",
           static_cast<double>(engine.query_count()) / engine.machine_count(),
           "count");
  out->Add("twigm.plan_hit_ratio",
           static_cast<double>(ds.plan_hits) /
               std::max<uint64_t>(1, ds.plan_hits + ds.plan_misses),
           "ratio");
  out->Add("twigm.results_per_doc", results.count / docs_run, "count");
  out->Add("twigm.result_bytes_per_doc", results.bytes / docs_run, "B");
  out->Add("twigm.live_kb", live_bytes / 1024.0, "KB");
  std::printf("# samples: xpath.compile n=%zu, twigm.run_us_per_doc n=%zu\n",
              compile.count, run.count);
  PrintLayerTable(w, scan_ns / 1e3 / scan_docs, parse_mean, replay_mean,
                  run_mean, doc_mean);

  // --- service, in process, default options ---------------------------------
  uint64_t mismatches = 0;
  {
    vitex::Service service{vitex::ServiceOptions{}};
    auto sink = std::make_shared<CountingSink>();
    vitex::SinkOptions push{vitex::DeliveryMode::kPush, sink};
    std::vector<vitex::Subscription> handles;
    std::vector<double> sub_us;
    for (size_t q = 0; q < subs; ++q) {
      const int64_t t0 = NowNs();
      Result<vitex::Subscription> h = service.Subscribe(w.queries[q], push);
      const int64_t t1 = NowNs();
      if (!h.ok()) return h.status();
      sub_us.push_back((t1 - t0) / 1e3);
      spans->Add("service.subscribe", "", q, t0, t1);
      handles.push_back(std::move(h.value()));
    }
    // Churn pairs until the p99 has ten samples beyond it.
    for (size_t k = 0; sub_us.size() < 1000; ++k) {
      const std::string& q =
          w.queries[w.initial_queries + k % (w.queries.size() - w.initial_queries)];
      const int64_t t0 = NowNs();
      Result<vitex::Subscription> h = service.Subscribe(q, push);
      const int64_t t1 = NowNs();
      if (!h.ok()) return h.status();
      sub_us.push_back((t1 - t0) / 1e3);
      spans->Add("service.subscribe", "", k, t0, t1);
      VITEX_RETURN_IF_ERROR(h.value().Unsubscribe());
    }
    VITEX_RETURN_IF_ERROR(service.Flush());
    const uint64_t calls_before = sink->calls.load();
    const vitex::ServiceStats before = service.stats();

    uint64_t published = 0, expected = 0;
    const int64_t t0 = NowNs();
    for (Budget b{2 * pool, 0.1 * budget_s, 0.2 * budget_s}; b.More(published);
         ++published) {
      const size_t d = published % pool;
      const int64_t p0 = NowNs();
      VITEX_RETURN_IF_ERROR(service.Publish(w.docs[d]));
      spans->Add("service.publish", "", published, p0, NowNs());
      expected += w.doc_deliveries[d];
    }
    VITEX_RETURN_IF_ERROR(service.Flush());
    const int64_t t1 = NowNs();
    const double elapsed = (t1 - t0) / 1e9;
    const uint64_t calls = sink->calls.load() - calls_before;
    mismatches = calls > expected ? calls - expected : expected - calls;

    const vitex::ServiceStats st = service.stats();
    const std::string statsz = service.StatszText();
    uint64_t publish_blocked = 0, fanout_blocked = 0;
    size_t inbox_hwm = 0, max_machines = 0, sum_machines = 0;
    for (size_t i = 0; i < st.streams.size(); ++i) {
      publish_blocked += st.streams[i].publish_blocked_nanos -
                         before.streams[i].publish_blocked_nanos;
    }
    for (size_t i = 0; i < st.shards.size(); ++i) {
      fanout_blocked += st.shards[i].fanout_blocked_nanos -
                        before.shards[i].fanout_blocked_nanos;
      inbox_hwm = std::max(inbox_hwm, st.shards[i].queue_high_watermark);
      max_machines = std::max(max_machines, st.shards[i].live_machines);
      sum_machines += st.shards[i].live_machines;
    }
    const double docs_s = published / elapsed;
    const double mean_machines =
        static_cast<double>(sum_machines) / st.shards.size();
    auto stage_us = [&](const char* name) {
      return StatszValue(statsz, name) / 1e3;
    };
    Percentiles su = Percentiles::Of(sub_us);
    out->Add("service.docs_per_s", docs_s, "docs/s");
    out->Add("service.shard_speedup", docs_s / single_docs_s, "ratio");
    out->Add("service.stage_parse_us.p50", stage_us("vitex_stage_parse_nanos_p50"), "us");
    out->Add("service.stage_ingest_wait_us.p99", stage_us("vitex_stage_ingest_wait_nanos_p99"), "us");
    out->Add("service.stage_shard_queue_wait_us.p99", stage_us("vitex_stage_shard_queue_wait_nanos_p99"), "us");
    out->Add("service.stage_match_us.p50", stage_us("vitex_stage_match_nanos_p50"), "us");
    out->Add("service.stage_match_us.p99", stage_us("vitex_stage_match_nanos_p99"), "us");
    out->Add("service.stage_e2e_us.p50", stage_us("vitex_stage_e2e_nanos_p50"), "us");
    out->Add("service.stage_e2e_us.p99", stage_us("vitex_stage_e2e_nanos_p99"), "us");
    out->Add("service.publish_blocked_ms_per_s", publish_blocked / 1e6 / elapsed, "ms/s");
    out->Add("service.fanout_blocked_ms_per_s", fanout_blocked / 1e6 / elapsed, "ms/s");
    out->Add("service.inbox_high_watermark", static_cast<double>(inbox_hwm), "count");
    out->Add("service.shard_machine_skew",
             mean_machines > 0 ? max_machines / mean_machines : 0, "ratio");
    out->Add("service.subscribe_us.p50", su.p50, "us");
    out->Add("service.subscribe_us.p99", su.p99, "us");
    out->Add("service.sink_calls_per_doc", static_cast<double>(calls) / published, "count");
    out->Add("service.overflowed", static_cast<double>(st.results_overflowed), "count");
    out->Add("service.rejected_docs", static_cast<double>(st.documents_rejected), "count");
    std::printf("# samples: service.subscribe_us n=%zu, service docs=%llu\n",
                su.count, static_cast<unsigned long long>(published));
    mismatches += st.results_overflowed + st.documents_rejected;
  }
  return mismatches;
}

}  // namespace perfbench
