// Self-test of the delivery checker: a clean delivery stream passes, and a
// dropped, a duplicated and a corrupted delivery injected into the
// checker's input are each reported. Also covers the churn windows.
// Exit status 0 = every case behaved.

#include <cstdio>
#include <string>
#include <vector>

#include "checker.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

// Three pool documents, two queries. Query 0 has answers in documents 0
// and 2; query 1 only in document 1.
Workload TinyWorkload() {
  Workload w;
  w.docs = {"<d0/>", "<d1/>", "<d2/>"};
  w.queries = {"q0", "q1"};
  w.initial_queries = 2;
  w.slot = {0, 1};
  w.distinct_queries = 2;
  std::vector<std::vector<std::vector<Expected>>> a = {
      {{{3, "a"}, {7, "b"}}, {}},
      {{}, {{1, "x"}}},
      {{{2, "c"}, {5, "d"}, {9, "e"}}, {}},
  };
  for (size_t d = 0; d < 3; ++d) {
    for (size_t q = 0; q < 2; ++q) {
      w.offsets.push_back(static_cast<uint32_t>(w.answers.size()));
      for (const Expected& e : a[d][q]) w.answers.push_back(e);
    }
  }
  w.offsets.push_back(static_cast<uint32_t>(w.answers.size()));
  w.docs_with_answers = {{0, 2}, {1}};
  return w;
}

struct Delivery {
  uint64_t sequence;
  std::string fragment;
};

// Query 0 over publishes 0..5 (pool documents 0,1,2,0,1,2). Document 2's
// answers arrive out of document order, as TwigM may emit them.
std::vector<Delivery> CleanStream() {
  return {{3, "a"}, {7, "b"}, {5, "d"}, {2, "c"}, {9, "e"},
          {3, "a"}, {7, "b"}, {2, "c"}, {5, "d"}, {9, "e"}};
}

Tally Run(const Workload& w, const std::vector<Delivery>& in, uint64_t due) {
  SubscriptionChecker c(&w, 0, 0);
  Tally t;
  for (const Delivery& d : in) c.Accept(d.sequence, d.fragment, &t);
  c.Finish(due, &t);
  return t;
}

Tally Churned(const Workload& w, const std::vector<Delivery>& in,
              uint64_t start_lo, uint64_t start_hi, uint64_t due,
              uint64_t limit) {
  std::vector<Received> got;
  for (const Delivery& d : in) got.push_back({d.sequence, d.fragment});
  return CheckChurned(w, 0, got, start_lo, start_hi, due, limit);
}

void Main() {
  Workload w = TinyWorkload();
  std::vector<Delivery> clean = CleanStream();

  Tally t = Run(w, clean, 6);
  Expect(t.failures() == 0 && t.delivered == 10, "clean stream passes");

  std::vector<Delivery> dropped = clean;
  dropped.erase(dropped.begin() + 6);  // publish 3's {7,"b"}
  t = Run(w, dropped, 6);
  Expect(t.lost == 1 && t.duplicated == 0 && t.wrong == 0,
         "dropped delivery reported as lost");

  std::vector<Delivery> dropped_tail = clean;
  dropped_tail.pop_back();
  t = Run(w, dropped_tail, 6);
  Expect(t.lost == 1 && t.failures() == 1, "dropped last delivery reported");

  std::vector<Delivery> dup = clean;
  dup.insert(dup.begin() + 2, dup[1]);
  t = Run(w, dup, 6);
  Expect(t.duplicated == 1 && t.lost == 0 && t.wrong == 0,
         "duplicated delivery reported");

  std::vector<Delivery> dup_prev = clean;
  dup_prev.insert(dup_prev.begin() + 5, Delivery{9, "e"});
  t = Run(w, dup_prev, 6);
  Expect(t.duplicated == 1 && t.failures() == 1,
         "duplicate of a finished document reported");

  std::vector<Delivery> corrupt = clean;
  corrupt[3].fragment = "C";
  t = Run(w, corrupt, 6);
  Expect(t.wrong == 1 && t.lost == 1 && t.duplicated == 0,
         "corrupted delivery reported as wrong (and its answer as lost)");

  // Churn: started somewhere in publishes [1, 3]. Publish 3's answers
  // (pool document 0) are owed; publish 2's (document 2) may be missing.
  // The start is ambiguous from the first deliveries alone: publish 5
  // carries document 2 again.
  std::vector<Delivery> suffix(clean.begin() + 5, clean.end());
  t = Churned(w, suffix, 1, 3, 6, SubscriptionChecker::kNone);
  Expect(t.failures() == 0 && t.delivered == 5,
         "churned suffix within its start window passes");
  std::vector<Delivery> full_start(clean.begin() + 2, clean.end());
  t = Churned(w, full_start, 1, 3, 6, SubscriptionChecker::kNone);
  Expect(t.failures() == 0 && t.delivered == 8,
         "churned subscription starting at the window's start passes");
  std::vector<Delivery> late(clean.begin() + 7, clean.end());
  t = Churned(w, late, 3, 3, 6, SubscriptionChecker::kNone);
  Expect(t.lost == 2, "churned subscription missing owed answers reported");
  std::vector<Delivery> gap = suffix;
  gap.erase(gap.begin() + 3);
  t = Churned(w, gap, 1, 3, 6, SubscriptionChecker::kNone);
  Expect(t.lost == 1 && t.failures() == 1,
         "delivery dropped inside a churned subscription reported");

  // Churn end: ended with publishes [0, 3) owed and nothing for publish 5
  // or later allowed.
  std::vector<Delivery> prefix(clean.begin(), clean.begin() + 5);
  t = Churned(w, prefix, 0, 0, 3, 5);
  Expect(t.failures() == 0, "churned prefix within its end window passes");
  t = Churned(w, clean, 0, 0, 3, 5);
  Expect(t.wrong == 3, "deliveries after the subscription ended reported");

  Tally unknown;
  SubscriptionChecker c(&w, 0, 0);
  c.Accept(4, "zz", &unknown);
  Expect(unknown.wrong == 1, "unknown delivery reported as wrong");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Main();
  std::printf("%s\n", perfbench::failures == 0 ? "checker self-test passed"
                                               : "checker self-test FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
