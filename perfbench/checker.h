// Online correctness check of MATCH deliveries against reference answers.
//
// One SubscriptionChecker follows one subscription. Deliveries must arrive
// in publish order (the service runs one publisher stream, so each
// subscription sees documents in publish order); within one document they
// may arrive in any order, because TwigM emits a solution when its
// predicates are proven, not in document order. Each delivery is matched
// by (sequence, fragment) against the reference answers of the document
// the subscription is currently on, or of one of the next documents that
// have answers for it (the answers in between were lost).
//
// A churned subscription covers a contiguous range of publishes whose ends
// are known only to within a window: Subscribe starts it somewhere between
// the publishes acknowledged before the call and those sent before it
// returned, and Unsubscribe ends it likewise. Its deliveries are kept and
// checked once it has ended (CheckChurned), against every start the window
// allows: the pool repeats, so the first deliveries alone can fit more than
// one document. Everything between the windows must arrive exactly once,
// as in tools/net_load_driver's suffix check.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Delivery accounting summed over subscriptions.
struct Tally {
  uint64_t delivered = 0;   // matched an expected answer
  uint64_t lost = 0;        // expected answer never delivered
  uint64_t duplicated = 0;  // an answer delivered twice
  uint64_t wrong = 0;       // matches no expected answer (corrupted)

  uint64_t expected() const { return delivered + lost; }
  uint64_t failures() const { return lost + duplicated + wrong; }
  void Add(const Tally& o) {
    delivered += o.delivered;
    lost += o.lost;
    duplicated += o.duplicated;
    wrong += o.wrong;
  }
};

class SubscriptionChecker {
 public:
  static constexpr uint64_t kNone = UINT64_MAX;

  /// Follows query `q` of `w` from publish `from` on.
  SubscriptionChecker(const Workload* w, uint32_t q, uint64_t from);

  /// Checks one delivery. Returns the publish number it belongs to, or
  /// kNone for a duplicated or wrong delivery.
  uint64_t Accept(uint64_t sequence, std::string_view fragment, Tally* t);

  /// Deliveries for publishes at or after `limit` are wrong (the
  /// subscription had ended before they were published).
  void set_limit(uint64_t limit) { limit_ = limit; }

  /// Closes the account: answers of publishes before `due` that were not
  /// delivered count as lost.
  void Finish(uint64_t due, Tally* t);

 private:
  struct Cursor {
    uint64_t cycle = 0;
    size_t index = 0;  // into docs_with_answers[q]
  };
  uint64_t PublishOf(const Cursor& c) const;
  uint32_t DocOf(const Cursor& c) const;
  Cursor Next(Cursor c) const;
  /// Index of (sequence, fragment) in the answers of `doc`, or -1.
  long Find(uint32_t doc, uint64_t sequence, std::string_view fragment) const;
  /// Leaves the current document, counting what it still owes as lost.
  void Advance(Tally* t);

  const Workload* w_;
  uint32_t q_;
  const std::vector<uint32_t>* docs_;  // docs_with_answers[q]
  uint64_t limit_ = kNone;

  Cursor cur_;
  std::vector<bool> got_;  // per answer of the current document
  size_t got_count_ = 0;
  size_t next_ = 0;        // in-order fast path
  bool has_prev_ = false;
  uint32_t prev_doc_ = 0;  // last document left behind (duplicate check)
};

struct Received {
  uint64_t sequence;
  std::string fragment;
};

/// Checks a churned subscription of query `q` once it has ended: its
/// deliveries `got` (in arrival order) must be the answers of publishes
/// [n0, n1) for some n0 in [start_lo, start_hi] and n1 >= due, with nothing
/// for publishes at or after `limit`. Returns the tally of the start that
/// fits best.
Tally CheckChurned(const Workload& w, uint32_t q,
                   const std::vector<Received>& got, uint64_t start_lo,
                   uint64_t start_hi, uint64_t due, uint64_t limit);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
