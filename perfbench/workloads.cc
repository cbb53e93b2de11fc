#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "baseline/dom_evaluator.h"
#include "common/random.h"
#include "twigm/multi_query.h"
#include "workload/protein_generator.h"
#include "workload/text_corpus.h"
#include "xml/dom.h"
#include "xml/event_log.h"
#include "xpath/canonical.h"
#include "xpath/query.h"

namespace perfbench {

using vitex::Random;
using vitex::Result;
using vitex::Status;

const std::vector<WorkloadSpec>& Specs() {
  // name, pool documents, low and high docs/s, churn SUBSCRIBE/s.
  static const std::vector<WorkloadSpec> specs = {
      {"feed", 64, 65, 160, 50},
      {"ticker", 1024, 360, 900, 100},
      {"protein", 32, 72, 180, 50},
  };
  return specs;
}

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

namespace {

// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Random* rng) const {
    double u = rng->NextDouble();
    size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// --- feed: news fan-out ----------------------------------------------------
// 1024 item tags; every document has 256 items in 8 sections. The first
// four documents together hold every tag once (with an <aux> child), so
// each subscription has at least one answer in the pool by construction.
constexpr int kFeedTags = 1024;
constexpr int kFeedItems = 256;

std::string FeedItem(Random* rng, int doc, int item, int tag, bool aux) {
  std::string t = "item" + std::to_string(tag);
  std::string out = "<" + t + " id=\"d" + std::to_string(doc) + ".i" +
                    std::to_string(item) + "\"><val>" +
                    vitex::workload::RandomSentence(rng, 3) + "</val>";
  if (aux) out += "<aux>" + std::string(vitex::workload::RandomWord(rng)) +
                  "</aux>";
  out += "</" + t + ">";
  return out;
}

void GenerateFeed(Workload* w, Random* rng) {
  std::vector<int> cover(kFeedTags);
  for (int i = 0; i < kFeedTags; ++i) cover[i] = i;
  for (int i = kFeedTags - 1; i > 0; --i) {
    std::swap(cover[i], cover[rng->Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  for (size_t d = 0; d < w->spec->pool_docs; ++d) {
    std::string doc = "<feed id=\"f" + std::to_string(d) + "\">";
    for (int s = 0; s < 8; ++s) {
      doc += "<section n=\"" + std::to_string(s) + "\">";
      for (int k = 0; k < kFeedItems / 8; ++k) {
        int item = s * (kFeedItems / 8) + k;
        size_t slot = d * kFeedItems + item;
        bool covering = slot < static_cast<size_t>(kFeedTags);
        int tag = covering ? cover[slot]
                           : static_cast<int>(rng->Uniform(kFeedTags));
        doc += FeedItem(rng, static_cast<int>(d), item, tag,
                        covering || rng->OneIn(0.5));
      }
      doc += "</section>";
    }
    doc += "</feed>";
    w->docs.push_back(std::move(doc));
  }
  auto shaped = [](int tag, int shape) {
    std::string t = "item" + std::to_string(tag);
    switch (shape % 3) {
      case 0: return "//" + t + "/val/text()";
      case 1: return "//" + t + "[aux]/@id";
      default: return "/feed//" + t + "/val";
    }
  };
  for (int i = 0; i < kFeedTags; ++i) w->queries.push_back(shaped(i, i));
  w->initial_queries = w->queries.size();
  // Churn: a random tag in another shape (a new skeleton: plan miss).
  for (int i = 0; i < 256; ++i) {
    int tag = static_cast<int>(rng->Uniform(kFeedTags));
    w->queries.push_back(shaped(tag, tag + 1));
  }
}

// --- ticker: stock and auction ticks ---------------------------------------
constexpr int kSymbols = 256;
constexpr int kTickerSkeletons = 8;
constexpr int kTuplesPerSkeleton = 64;  // parameter groups per skeleton
constexpr int kTuplesPerSymbol = 2;
constexpr int kTickerSubs = 4096;
const char* const kVenues[] = {"NYSE", "NASDAQ", "ARCA", "BATS"};

struct Tick {
  bool trade = false;
  std::string symbol, venue;
  int seq = 0;
  int price = 0;   // cents
  int volume = 0;  // trade only
  int bid = 0, ask = 0, size = 0;  // quote only
};

std::string Cents(int c) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%d.%02d", c / 100, c % 100);
  return buf;
}

std::string TickXml(const Tick& t) {
  if (t.trade) {
    return "<trade seq=\"" + std::to_string(t.seq) + "\" venue=\"" + t.venue +
           "\"><symbol>" + t.symbol + "</symbol><price>" + Cents(t.price) +
           "</price><volume>" + std::to_string(t.volume) +
           "</volume><cond>regular</cond></trade>";
  }
  return "<quote symbol=\"" + t.symbol + "\" venue=\"" + t.venue +
         "\" seq=\"" + std::to_string(t.seq) + "\"><bid>" + Cents(t.bid) +
         "</bid><ask>" + Cents(t.ask) + "</ask><size>" +
         std::to_string(t.size) + "</size></quote>";
}

// One subscription of skeleton `k` for the tick `t`'s symbol (and venue).
// A threshold is set at level `q` of its value's distribution, so that the
// subscription matches about a share `q` of the symbol's ticks of its kind;
// Satisfies() tells whether `t` itself is among them.
int VolumeBelow(double q) { return 100 * static_cast<int>(100 * (1 - q)); }
int PriceFrom(double q) { return 500 + static_cast<int>(50000 * (1 - q)); }
int AskBelow(double q) { return 500 + static_cast<int>(50000 * q); }
int SizeBelow(double q) { return 100 * (1 + static_cast<int>(50 * q)); }

bool Satisfies(int k, const Tick& t, double q) {
  switch (k) {
    case 0: return t.volume > VolumeBelow(q);
    case 3: return t.ask < AskBelow(q);
    case 4: return t.price >= PriceFrom(q);
    case 7: return t.size < SizeBelow(q);
    default: return true;
  }
}

std::string TickerQuery(int k, const Tick& t, double q) {
  const std::string s = "'" + t.symbol + "'";
  switch (k) {
    case 0: return "//trade[symbol=" + s + "][volume > " + std::to_string(VolumeBelow(q)) + "]/price/text()";
    case 1: return "//quote[@symbol=" + s + "]/bid";
    case 2: return "//trade[symbol=" + s + "]/@seq";
    case 3: return "//quote[@symbol=" + s + "][ask < " + Cents(AskBelow(q)) + "]/ask/text()";
    case 4: return "//trade[symbol=" + s + "][price >= " + Cents(PriceFrom(q)) + "]/volume/text()";
    case 5: return "/ticks/quote[@symbol=" + s + "][@venue='" + t.venue + "']/@seq";
    case 6: return "//trade[symbol=" + s + "][@venue='" + t.venue + "']/price";
    default: return "//quote[@symbol=" + s + "][size < " + std::to_string(SizeBelow(q)) + "]/size/text()";
  }
}

void GenerateTicker(Workload* w, Random* rng) {
  std::vector<std::string> symbols;
  std::set<std::string> seen;
  while (symbols.size() < static_cast<size_t>(kSymbols)) {
    std::string s;
    size_t len = 3 + rng->Uniform(2);
    for (size_t i = 0; i < len; ++i) s += static_cast<char>('A' + rng->Uniform(26));
    if (seen.insert(s).second) symbols.push_back(s);
  }
  Zipf symbol_zipf(kSymbols, 1.1);
  std::vector<std::vector<Tick>> ticks(w->spec->pool_docs);
  int seq = 0;
  for (size_t d = 0; d < w->spec->pool_docs; ++d) {
    std::string doc = "<ticks batch=\"" + std::to_string(d) + "\">";
    int n = 4 + static_cast<int>(rng->Uniform(5));
    for (int i = 0; i < n; ++i) {
      Tick t;
      t.trade = rng->OneIn(0.5);
      t.symbol = symbols[symbol_zipf.Sample(rng)];
      t.venue = kVenues[rng->Uniform(4)];
      t.seq = ++seq;
      t.price = 500 + static_cast<int>(rng->Uniform(50000));
      t.volume = 100 * (1 + static_cast<int>(rng->Uniform(100)));
      t.bid = t.price;
      t.ask = t.price + 1 + static_cast<int>(rng->Uniform(50));
      t.size = 100 * (1 + static_cast<int>(rng->Uniform(50)));
      doc += TickXml(t);
      ticks[d].push_back(std::move(t));
    }
    doc += "</ticks>";
    w->docs.push_back(std::move(doc));
  }
  // Each skeleton gets kTuplesPerSkeleton parameter tuples, each taken from
  // a tick of the pool that it matches (so it has an answer), at most
  // kTuplesPerSymbol per symbol, ordered by how popular the tuple's symbol
  // is. Subscriptions are spread over the tuples with fixed Zipf(0.5)
  // counts, so the most popular symbols draw the most subscribers. A
  // threshold's level is fixed by the symbol's popularity rank and the
  // tuple's index within the symbol, not drawn: the heavily subscribed
  // tuples then match the same share of ticks under every seed, and so the
  // MATCH fan-out per document does not hinge on one seed's draw.
  std::vector<std::vector<std::string>> tuples(kTickerSkeletons);
  for (int k = 0; k < kTickerSkeletons; ++k) {
    bool wants_trade = k == 0 || k == 2 || k == 4 || k == 6;
    std::set<std::string> distinct;
    std::vector<std::pair<size_t, std::string>> ranked;
    std::vector<int> per_symbol(kSymbols, 0);
    while (ranked.size() < static_cast<size_t>(kTuplesPerSkeleton)) {
      const std::vector<Tick>& doc_ticks =
          ticks[rng->Uniform(w->spec->pool_docs)];
      const Tick& t = doc_ticks[rng->Uniform(doc_ticks.size())];
      if (t.trade != wants_trade) continue;
      size_t sym_rank = std::find(symbols.begin(), symbols.end(), t.symbol) -
                        symbols.begin();
      if (per_symbol[sym_rank] == kTuplesPerSymbol) continue;
      const double golden = 0.6180339887498949;
      const double frac = (2 * sym_rank + per_symbol[sym_rank] + 1) * golden;
      const double level = 0.2 + 0.6 * (frac - std::floor(frac));
      if (!Satisfies(k, t, level)) continue;
      std::string q = TickerQuery(k, t, level);
      if (!distinct.insert(q).second) continue;
      ++per_symbol[sym_rank];
      ranked.emplace_back(sym_rank, std::move(q));
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [r, q] : ranked) tuples[k].push_back(std::move(q));
  }
  const int per_skeleton = kTickerSubs / kTickerSkeletons;
  std::vector<int> counts(kTuplesPerSkeleton);
  double harmonic = 0;
  for (int r = 0; r < kTuplesPerSkeleton; ++r) harmonic += 1.0 / std::sqrt(r + 1.0);
  int assigned = 0;
  for (int r = 0; r < kTuplesPerSkeleton; ++r) {
    counts[r] = std::max(
        1, static_cast<int>(per_skeleton / harmonic / std::sqrt(r + 1.0)));
    assigned += counts[r];
  }
  counts[0] += per_skeleton - assigned;
  std::vector<std::vector<std::string>> subs(kTickerSkeletons);
  for (int k = 0; k < kTickerSkeletons; ++k) {
    for (int r = 0; r < kTuplesPerSkeleton; ++r) {
      for (int c = 0; c < counts[r]; ++c) subs[k].push_back(tuples[k][r]);
    }
  }
  for (int i = 0; i < per_skeleton; ++i) {
    for (int k = 0; k < kTickerSkeletons; ++k) w->queries.push_back(subs[k][i]);
  }
  w->initial_queries = w->queries.size();
  for (int i = 0; i < 256; ++i) {
    int k = static_cast<int>(rng->Uniform(kTickerSkeletons));
    w->queries.push_back(tuples[k][rng->Uniform(kTuplesPerSkeleton)]);
  }
}

// --- protein: the paper's dataset ------------------------------------------
// About 136 KB per document (115 entries of ~1.1 KB; see README.md for why
// not the 1 MB the dataset suggests) and 16 queries from the paper's query
// family: the headline query, twigs, descendants, value predicates,
// negation, a wildcard and element (subtree) outputs.
constexpr uint64_t kProteinEntries = 115;

void GenerateProtein(Workload* w, Random* rng) {
  for (size_t d = 0; d < w->spec->pool_docs; ++d) {
    vitex::workload::ProteinOptions options;
    options.entries = kProteinEntries;
    options.seed = rng->Next();
    Result<std::string> doc = vitex::workload::GenerateProteinString(options);
    w->docs.push_back(doc.ok() ? std::move(doc.value()) : std::string());
  }
  w->queries = {
      "//ProteinEntry[reference]/@id",
      "//ProteinEntry[reference/refinfo/year > 2002]/@id",
      "//ProteinEntry[not(reference)]/header/uid/text()",
      "//ProteinEntry[summary/length > 460]/@id",
      "//ProteinEntry[genetics/gene = 'ticker']/header/accession/text()",
      "//ProteinEntry[organism/common = 'stream'][reference]/protein/name",
      "//reference[.//year = 1990]/refinfo/@refid",
      "//refinfo[year < 1987]/citation/text()",
      "/ProteinDatabase/ProteinEntry[organism/source = 'cell data']/@id",
      "//ProteinEntry[reference and genetics/gene = 'cell']//year",
      "//*[@id][summary/length < 175]/summary/length/text()",
      "//ProteinEntry[reference//author][summary/length > 470]/sequence",
      "//refinfo/year[. = 1999]",
      "//ProteinEntry[organism/common = 'market']/organism/source/text()",
      "//ProteinEntry[reference/refinfo[year > 2000][authors/author]]/@id",
      "//ProteinEntry[header/uid > 9000100]/@id",
  };
  w->initial_queries = w->queries.size();
  const char* const words[] = {"stream", "query", "protein", "cell", "market",
                               "engine", "node", "author"};
  for (const char* word : words) {
    w->queries.push_back(std::string("//ProteinEntry[genetics/gene = '") +
                         word + "']/@id");
    w->queries.push_back(std::string("//ProteinEntry[organism/common = '") +
                         word + "']//year");
  }
}

}  // namespace

Result<Workload> Generate(const std::string& name, uint64_t seed) {
  const WorkloadSpec* spec = FindSpec(name);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  Workload w;
  w.spec = spec;
  w.seed = seed;
  // Mix the seed (one SplitMix step) and the name, so neighbouring seeds
  // and workloads with one seed do not share a stream.
  Random rng(Random(seed).Next() ^ vitex::xpath::FnvHash64(name));
  if (name == "feed") {
    GenerateFeed(&w, &rng);
  } else if (name == "ticker") {
    GenerateTicker(&w, &rng);
  } else {
    GenerateProtein(&w, &rng);
  }
  for (const std::string& doc : w.docs) {
    if (doc.empty()) return Status::Internal("document generation failed");
  }
  return w;
}

Status ComputeReference(Workload* w, int threads) {
  const size_t docs = w->pool_size();
  const size_t queries = w->queries.size();
  // Queries repeat (ticker subscriptions share tuples): evaluate each
  // distinct text once.
  std::vector<std::string> distinct(w->queries.begin(), w->queries.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::vector<std::unique_ptr<vitex::xpath::Query>> compiled;
  for (const std::string& q : distinct) {
    Result<vitex::xpath::Query> c = vitex::xpath::ParseAndCompile(q);
    if (!c.ok()) {
      return Status::InvalidArgument("query '" + q +
                                     "': " + c.status().message());
    }
    compiled.push_back(
        std::make_unique<vitex::xpath::Query>(std::move(c.value())));
  }
  std::vector<uint32_t> slot(queries);
  for (size_t q = 0; q < queries; ++q) {
    slot[q] = static_cast<uint32_t>(
        std::lower_bound(distinct.begin(), distinct.end(), w->queries[q]) -
        distinct.begin());
  }

  // per_doc[d][distinct] = sorted answers.
  std::vector<std::vector<std::vector<Expected>>> per_doc(docs);
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::string error;
  std::mutex error_mu;
  auto worker = [&] {
    for (size_t d = next++; d < docs; d = next++) {
      Result<vitex::xml::Document> dom = vitex::xml::ParseIntoDom(w->docs[d]);
      if (!dom.ok()) {
        failed = true;
        std::lock_guard<std::mutex> lock(error_mu);
        error = dom.status().message();
        return;
      }
      vitex::baseline::DomEvaluator eval(&dom.value());
      per_doc[d].resize(distinct.size());
      for (size_t i = 0; i < distinct.size(); ++i) {
        for (auto& [seq, frag] : eval.EvaluateToSequencedFragments(*compiled[i])) {
          per_doc[d][i].push_back(Expected{seq, std::move(frag)});
        }
        std::sort(per_doc[d][i].begin(), per_doc[d][i].end(),
                  [](const Expected& a, const Expected& b) {
                    return a.sequence < b.sequence;
                  });
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (failed) return Status::Internal("reference parse failed: " + error);

  const size_t nd = distinct.size();
  w->distinct_queries = nd;
  w->slot.assign(slot.begin(), slot.end());
  w->offsets.assign(docs * nd + 1, 0);
  w->answers.clear();
  w->docs_with_answers.assign(queries, {});
  w->doc_deliveries.assign(docs, 0);
  for (size_t d = 0; d < docs; ++d) {
    for (size_t i = 0; i < nd; ++i) {
      w->offsets[d * nd + i] = static_cast<uint32_t>(w->answers.size());
      w->answers.insert(w->answers.end(), per_doc[d][i].begin(),
                        per_doc[d][i].end());
    }
    for (size_t q = 0; q < queries; ++q) {
      const size_t n = per_doc[d][slot[q]].size();
      if (n > 0) w->docs_with_answers[q].push_back(static_cast<uint32_t>(d));
      if (q < w->initial_queries) w->doc_deliveries[d] += static_cast<uint32_t>(n);
    }
    per_doc[d].clear();
    per_doc[d].shrink_to_fit();
  }
  w->offsets[docs * nd] = static_cast<uint32_t>(w->answers.size());
  return Status::OK();
}

namespace {

class CountingHandler : public vitex::twigm::ResultHandler {
 public:
  void OnResult(std::string_view, uint64_t) override {}
};

}  // namespace

Result<Properties> Describe(const Workload& w) {
  Properties p;
  std::vector<size_t> sizes;
  for (const std::string& d : w.docs) sizes.push_back(d.size());
  std::sort(sizes.begin(), sizes.end());
  p.p50_doc_bytes = static_cast<double>(sizes[sizes.size() / 2]);

  CountingHandler handler;
  vitex::twigm::MultiQueryEngine engine;
  std::set<std::string> skeletons;
  for (size_t q = 0; q < w.initial_queries; ++q) {
    Result<vitex::xpath::Query> c = vitex::xpath::ParseAndCompile(w.queries[q]);
    if (!c.ok()) return c.status();
    skeletons.insert(vitex::xpath::Canonicalize(c.value()).key);
    Result<vitex::twigm::QueryId> id = engine.AddQuery(w.queries[q], &handler);
    if (!id.ok()) return id.status();
  }
  p.subscriptions = w.initial_queries;
  p.distinct_skeletons = skeletons.size();
  p.machines = engine.machine_count();

  uint64_t events = 0;
  for (const std::string& d : w.docs) {
    Result<vitex::xml::EventLog> log = vitex::xml::RecordEvents(d);
    if (!log.ok()) return log.status();
    events += log.value().size();
  }
  p.events_per_doc = static_cast<double>(events) / w.pool_size();

  uint64_t matches = 0;
  for (uint32_t n : w.doc_deliveries) matches += n;
  p.matches_per_doc = static_cast<double>(matches) / w.pool_size();
  size_t matching = 0;
  for (size_t q = 0; q < w.initial_queries; ++q) {
    if (!w.docs_with_answers[q].empty()) ++matching;
  }
  p.matching_share = static_cast<double>(matching) / w.initial_queries;
  p.unmatched_subscriptions = w.initial_queries - matching;
  p.churn_ops_per_s = 2 * w.spec->churn_rate;
  return p;
}

}  // namespace perfbench
