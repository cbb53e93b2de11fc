#include "checker.h"

#include <algorithm>

namespace perfbench {

namespace {
// How many answer-bearing documents past the current one a delivery may
// belong to before it counts as wrong rather than as evidence of losses.
constexpr size_t kLookahead = 64;
}  // namespace

SubscriptionChecker::SubscriptionChecker(const Workload* w, uint32_t q,
                                         uint64_t from)
    : w_(w), q_(q), docs_(&w->docs_with_answers[q]) {
  if (docs_->empty()) return;
  const uint64_t pool = w_->pool_size();
  cur_.cycle = from / pool;
  cur_.index = std::lower_bound(docs_->begin(), docs_->end(), from % pool) -
               docs_->begin();
  if (cur_.index == docs_->size()) {
    cur_.index = 0;
    ++cur_.cycle;
  }
  got_.assign(w_->end_of(DocOf(cur_), q_) - w_->begin_of(DocOf(cur_), q_),
              false);
}

uint64_t SubscriptionChecker::PublishOf(const Cursor& c) const {
  return c.cycle * w_->pool_size() + (*docs_)[c.index];
}

uint32_t SubscriptionChecker::DocOf(const Cursor& c) const {
  return (*docs_)[c.index];
}

SubscriptionChecker::Cursor SubscriptionChecker::Next(Cursor c) const {
  if (++c.index == docs_->size()) {
    c.index = 0;
    ++c.cycle;
  }
  return c;
}

long SubscriptionChecker::Find(uint32_t doc, uint64_t sequence,
                               std::string_view fragment) const {
  const Expected* b = w_->begin_of(doc, q_);
  const Expected* e = w_->end_of(doc, q_);
  const Expected* it = std::lower_bound(
      b, e, sequence,
      [](const Expected& a, uint64_t s) { return a.sequence < s; });
  if (it == e || it->sequence != sequence || it->fragment != fragment) {
    return -1;
  }
  return it - b;
}

void SubscriptionChecker::Advance(Tally* t) {
  t->lost += got_.size() - got_count_;
  has_prev_ = true;
  prev_doc_ = DocOf(cur_);
  cur_ = Next(cur_);
  got_.assign(w_->end_of(DocOf(cur_), q_) - w_->begin_of(DocOf(cur_), q_),
              false);
  got_count_ = 0;
  next_ = 0;
}

uint64_t SubscriptionChecker::Accept(uint64_t sequence,
                                     std::string_view fragment, Tally* t) {
  if (docs_->empty()) {
    ++t->wrong;
    return kNone;
  }
  // The current document: in-order fast path, then any order.
  long k = -1;
  if (next_ < got_.size()) {
    const Expected& e = w_->begin_of(DocOf(cur_), q_)[next_];
    if (e.sequence == sequence && e.fragment == fragment) {
      k = static_cast<long>(next_);
    }
  }
  if (k < 0) k = Find(DocOf(cur_), sequence, fragment);
  Cursor at = cur_;
  if (k < 0) {
    // The pool repeats, so an answer of the previous document may also be
    // one of a later document. Before the current document has begun it
    // is taken as a duplicate; once it has begun, as a sign that the rest
    // of the current document was lost.
    bool seen_before = has_prev_ && Find(prev_doc_, sequence, fragment) >= 0;
    if (seen_before && got_count_ == 0) {
      ++t->duplicated;
      return kNone;
    }
    Cursor c = cur_;
    for (size_t i = 0; i < std::min(kLookahead, docs_->size()) && k < 0; ++i) {
      c = Next(c);
      k = Find(DocOf(c), sequence, fragment);
    }
    if (k < 0) {
      ++(seen_before ? t->duplicated : t->wrong);
      return kNone;
    }
    at = c;
  } else if (got_[k]) {
    ++t->duplicated;
    return kNone;
  }
  const uint64_t publish = PublishOf(at);
  if (publish >= limit_) {
    ++t->wrong;
    return kNone;
  }
  while (cur_.cycle != at.cycle || cur_.index != at.index) Advance(t);
  got_[k] = true;
  ++got_count_;
  ++t->delivered;
  while (next_ < got_.size() && got_[next_]) ++next_;
  if (got_count_ == got_.size()) Advance(t);
  return publish;
}

void SubscriptionChecker::Finish(uint64_t due, Tally* t) {
  if (docs_->empty()) return;
  while (PublishOf(cur_) < due) Advance(t);
}

Tally CheckChurned(const Workload& w, uint32_t q,
                   const std::vector<Received>& got, uint64_t start_lo,
                   uint64_t start_hi, uint64_t due, uint64_t limit) {
  Tally best;
  bool have = false;
  for (uint64_t n0 = start_lo; n0 <= start_hi; ++n0) {
    SubscriptionChecker c(&w, q, n0);
    c.set_limit(limit);
    Tally t;
    for (const Received& r : got) c.Accept(r.sequence, r.fragment, &t);
    c.Finish(std::max(due, n0), &t);
    if (!have || t.failures() < best.failures()) best = t;
    have = true;
    if (best.failures() == 0) break;
  }
  return best;
}

}  // namespace perfbench
