// Workload generation and reference answers for the repository benchmark.
//
// A workload is a pool of distinct XML documents plus the XPath
// subscriptions that stand over them, all generated from one seed. The
// system under test receives only these documents and XPaths. Reference
// answers come from baseline::DomEvaluator (the same ground truth the
// differential oracle uses) and are computed before any timing starts.
//
// Publish order is fixed: publish number n carries pool document n % P, so
// both the load generator and the checker can map a publish number to its
// expected answers without shared state.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// Fixed per-workload parameters. The open-loop rates were set once from
/// the capacity measured at the commit that introduced the benchmark
/// (about 20% and 50% of it) and are never recalibrated, so later commits
/// are compared at the same offered load.
struct WorkloadSpec {
  const char* name;
  size_t pool_docs;
  double low_rate;    // docs/s offered in the `low` open-loop blocks
  double high_rate;   // docs/s offered in the `high` open-loop blocks
  double churn_rate;  // SUBSCRIBE (and UNSUBSCRIBE) per second during `high`
};

/// The specs of every workload (feed, ticker, protein).
const std::vector<WorkloadSpec>& Specs();
const WorkloadSpec* FindSpec(const std::string& name);

/// One expected delivery: the matched node's document-order sequence
/// number and its serialized fragment.
struct Expected {
  uint64_t sequence = 0;
  std::string fragment;
  bool operator==(const Expected& o) const {
    return sequence == o.sequence && fragment == o.fragment;
  }
};

struct Workload {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::vector<std::string> docs;
  /// Query texts: the initial subscriptions first, then the churn pool.
  std::vector<std::string> queries;
  size_t initial_queries = 0;

  /// Reference answers of query q on pool document d, sorted by sequence:
  /// answers[offsets[d * D + slot[q]] .. offsets[... + 1]), where slot[q]
  /// numbers the D distinct query texts (ticker subscriptions repeat).
  std::vector<uint32_t> slot;
  size_t distinct_queries = 0;
  std::vector<uint32_t> offsets;
  std::vector<Expected> answers;
  /// For each query, the pool documents with at least one answer, in
  /// pool order.
  std::vector<std::vector<uint32_t>> docs_with_answers;
  /// Total answers of the initial subscriptions per pool document.
  std::vector<uint32_t> doc_deliveries;

  size_t pool_size() const { return docs.size(); }
  const Expected* begin_of(size_t d, size_t q) const {
    return answers.data() + offsets[d * distinct_queries + slot[q]];
  }
  const Expected* end_of(size_t d, size_t q) const {
    return answers.data() + offsets[d * distinct_queries + slot[q] + 1];
  }
};

/// Generates the pool and subscriptions of `name` from `seed`.
vitex::Result<Workload> Generate(const std::string& name, uint64_t seed);

/// Fills the reference answers with DomEvaluator, on up to `threads`
/// threads.
vitex::Status ComputeReference(Workload* w, int threads);

/// Measured input properties (printed before timing; see README.md).
struct Properties {
  double p50_doc_bytes = 0;
  double events_per_doc = 0;
  size_t subscriptions = 0;
  size_t distinct_skeletons = 0;
  size_t machines = 0;  // plan machines of one engine holding every sub
  double matches_per_doc = 0;
  double matching_share = 0;  // share of subs matching >= 1 pool doc
  size_t unmatched_subscriptions = 0;
  double churn_ops_per_s = 0;
};
vitex::Result<Properties> Describe(const Workload& w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
