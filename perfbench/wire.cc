// The wire session: a vitex::Service with a net::Server on loopback, both
// with the shipped defaults, driven over TCP with net::Client.
//
// Connections: one publisher, two subscriber sessions that multiplex every
// initial subscription (served by one receiver thread), and one control
// session that churns subscriptions, pings, and scrapes /statsz over HTTP.
//
// After the repeated set-up, the run cycles kCycles times through three
// blocks, so every metric samples the whole run rather than one stretch of
// it (the shared machine's speed drifts over seconds):
//   capacity  closed loop: the publisher sends back to back, waiting only
//             for each PUBLISH's ACK; a traced run splits the block into an
//             untraced and a traced half, to measure the tracing overhead;
//   low       open loop at the workload's fixed low rate; the control
//             session pings every 10 ms;
//   high      open loop at the fixed high rate; the control session
//             churns subscriptions and scrapes /statsz once per second.
// Every MATCH frame is checked against the reference answers as it
// arrives; a document is complete when its last expected MATCH for the
// initial subscriptions has arrived. Between blocks the run waits until
// every published document is complete.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <deque>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "service/vitex.h"

namespace perfbench {
namespace {

using vitex::Result;
using vitex::Status;
using vitex::net::Client;

constexpr int kSubscriberSessions = 2;
constexpr int kCycles = 6;               // capacity/low/high rounds per run
// Each open-loop phase lasts, over the run, long enough to send
// kLatencyDocs documents at its fixed rate (so each delivery p99 has ten
// samples beyond it), the high phase at least kMinHighS (for churn samples).
// The rest of --seconds, but at least kMinCapacityShare of it, goes to the
// capacity blocks, whose metrics are the bounded ones.
constexpr double kLatencyDocs = 1100, kMinHighS = 4.5, kMinCapacityShare = 0.2;
// Capacity is counted in windows of kCapacityWindowS after each block's
// warm-up (at most kCapacityWarmS); the median over all windows of the run
// is reported, so a stall of the shared host moves few of them.
constexpr double kCapacityWindowS = 0.25, kCapacityWarmS = 0.1;
constexpr double kChurnLifeS = 1.0;      // how long a churned subscription lives
// Set-up is repeated (median reported) at least kMinSetups times and until
// kSetupFloorNs has passed, so that short set-ups are still steady.
constexpr size_t kMinSetups = 5, kMaxSetups = 1000;
constexpr int64_t kSetupFloorNs = 1'500'000'000;
constexpr double kDrainTimeoutS = 10.0;  // after a block, for stragglers
constexpr double kPingIntervalS = 0.01;
constexpr double kScrapeIntervalS = 1.0;

// Per-publish state. Chunked so subscriber threads can read entries while
// the publisher appends; a chunk is published (release) before any of its
// publishes is sent.
class PublishLog {
 public:
  struct Entry {
    std::atomic<uint32_t> remaining{0};
    std::atomic<int64_t> done_ns{0};
    int64_t due_ns = 0;
  };

  PublishLog() : chunks_(new std::atomic<Entry*>[kMaxChunks]) {
    for (size_t i = 0; i < kMaxChunks; ++i) chunks_[i] = nullptr;
  }
  ~PublishLog() {
    for (size_t i = 0; i < kMaxChunks; ++i) delete[] chunks_[i].load();
  }
  PublishLog(const PublishLog&) = delete;
  PublishLog& operator=(const PublishLog&) = delete;

  // Publisher thread only.
  Entry* Prepare(uint64_t n) {
    std::atomic<Entry*>& chunk = chunks_[n / kChunk];
    if (chunk.load(std::memory_order_relaxed) == nullptr) {
      chunk.store(new Entry[kChunk], std::memory_order_release);
    }
    return Get(n);
  }
  Entry* Get(uint64_t n) const {
    return chunks_[n / kChunk].load(std::memory_order_acquire) + n % kChunk;
  }
  static constexpr uint64_t kCapacity = (uint64_t{1} << 14) * 4096;

 private:
  static constexpr size_t kChunk = size_t{1} << 14;
  static constexpr size_t kMaxChunks = 4096;
  std::unique_ptr<std::atomic<Entry*>[]> chunks_;
};

struct Session {
  const Workload* w = nullptr;
  std::atomic<bool> traced{false};  // flipped between capacity passes
  PublishLog log;
  std::atomic<uint64_t> sent{0};       // publishes whose send has begun
  std::atomic<uint64_t> acked{0};      // publishes ACKed (or refused)
  std::atomic<uint64_t> completed{0};  // publishes with every MATCH in
  std::atomic<bool> stop{false};
  std::atomic<bool> receiver_failed{false};  // a subscriber session died
};

void CompleteOne(Session* s, uint64_t n, int64_t now) {
  PublishLog::Entry* e = s->log.Get(n);
  if (e->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    e->done_ns.store(now, std::memory_order_release);
    s->completed.fetch_add(1, std::memory_order_acq_rel);
  }
}

// A churned subscription: its deliveries are kept and checked once it has
// ended (CheckChurned), because its first publish is known only to within
// a window.
struct Churned {
  uint32_t q = 0;
  uint64_t start_lo = 0, start_hi = 0;  // first publish lies in [lo, hi]
  uint64_t due = 0;  // publishes before `due` are owed (ACKed pre-UNSUBSCRIBE)
  uint64_t limit = SubscriptionChecker::kNone;  // nothing at or after this
  std::vector<Received> got;
};

// A session's subscriptions: initial ones checked as frames arrive (and
// counted toward document completion), churned ones kept for later.
struct Checked {
  std::unordered_map<uint64_t, SubscriptionChecker> by_id;
  std::unordered_map<uint64_t, Churned> churned;
  Tally tally;
  std::string error;

  void Route(Session* s, const vitex::net::Match& m, int64_t now) {
    auto it = by_id.find(m.subscription_id);
    if (it != by_id.end()) {
      uint64_t n = it->second.Accept(m.sequence, m.fragment, &tally);
      if (n != SubscriptionChecker::kNone &&
          n < s->sent.load(std::memory_order_acquire)) {
        CompleteOne(s, n, now);
      }
      return;
    }
    auto c = churned.find(m.subscription_id);
    if (c == churned.end()) {
      ++tally.wrong;
      return;
    }
    c->second.got.push_back({m.sequence, m.fragment});
  }
  /// Reads every MATCH already queued or buffered.
  void DrainNow(Session* s, Client* c) {
    while (true) {
      Result<std::optional<vitex::net::Match>> m = c->PollMatch(0);
      if (!m.ok()) {
        if (error.empty()) error = m.status().ToString();
        return;
      }
      if (!m->has_value()) return;
      Route(s, **m, NowNs());
    }
  }
};

struct SubscriberSession {
  std::unique_ptr<Client> client;
  Checked checked;
};

// One thread serves every subscriber session: it drains whatever each has
// ready, then waits in poll() (counted as idle) until one is readable.
struct Receiver {
  std::vector<std::unique_ptr<SubscriberSession>> sessions;
  int64_t idle_ns = 0, busy_from = 0, busy_to = 0;
  std::vector<Span> spans;
  std::thread thread;
};

void ReceiveLoop(Session* s, Receiver* r) {
  r->busy_from = NowNs();
  std::vector<pollfd> fds;
  for (auto& ss : r->sessions) fds.push_back({ss->client->fd(), POLLIN, 0});
  while (!s->stop.load(std::memory_order_acquire)) {
    for (auto& ss : r->sessions) {
      ss->checked.DrainNow(s, ss->client.get());
      if (!ss->checked.error.empty()) {
        s->receiver_failed.store(true, std::memory_order_release);
        r->busy_to = NowNs();
        return;
      }
    }
    const int64_t t0 = NowNs();
    ::poll(fds.data(), fds.size(), 2);
    const int64_t t1 = NowNs();
    r->idle_ns += t1 - t0;
    if (s->traced) r->spans.push_back({"net.recv_wait", "", 0, t0, t1});
  }
  r->busy_to = NowNs();
}

// The service, server and subscriber sessions with every initial
// subscription installed.
struct Stack {
  std::unique_ptr<vitex::Service> service;
  std::unique_ptr<vitex::net::Server> server;
  Receiver receiver;

  ~Stack() { TearDown(); }
  void TearDown() {
    // Reset rather than close the sessions: hundreds of repeated set-ups
    // would otherwise leave thousands of loopback sockets in TIME_WAIT,
    // which slow the next set-ups' binds and connects (and the next run's).
    const linger reset{1, 0};
    for (auto& ss : receiver.sessions) {
      (void)::setsockopt(ss->client->fd(), SOL_SOCKET, SO_LINGER, &reset,
                         sizeof(reset));
    }
    receiver.sessions.clear();
    if (server != nullptr) (void)server->Stop();
    server.reset();
    if (service != nullptr) (void)service->Stop();
    service.reset();
  }
};

Status SetUp(Session* s, Stack* st) {
  st->service = std::make_unique<vitex::Service>(vitex::ServiceOptions{});
  Result<std::unique_ptr<vitex::net::Server>> server =
      vitex::net::Server::Start(st->service.get(), vitex::net::ServerOptions{});
  VITEX_RETURN_IF_ERROR(server.status());
  st->server = std::move(server.value());
  for (int i = 0; i < kSubscriberSessions; ++i) {
    Result<std::unique_ptr<Client>> c =
        Client::Connect("127.0.0.1", st->server->port());
    VITEX_RETURN_IF_ERROR(c.status());
    auto sub = std::make_unique<SubscriberSession>();
    sub->client = std::move(c.value());
    st->receiver.sessions.push_back(std::move(sub));
  }
  const Workload& w = *s->w;
  for (size_t q = 0; q < w.initial_queries; ++q) {
    SubscriberSession* sub = st->receiver.sessions[q % kSubscriberSessions].get();
    Result<uint64_t> id = sub->client->Subscribe(w.queries[q]);
    VITEX_RETURN_IF_ERROR(id.status());
    sub->checked.by_id.emplace(
        id.value(), SubscriptionChecker(&w, static_cast<uint32_t>(q), 0));
  }
  return st->service->Flush();
}

struct Phase {
  uint64_t first = 0, end = 0;  // publish numbers [first, end)
  int64_t start_ns = 0, end_ns = 0;
  std::vector<double> late_ms, ack_us;
};

// Publishes for `seconds`: back to back when rate == 0, else on the
// open-loop schedule start + i / rate.
void Publish(Session* s, Client* c, double rate, double seconds, Phase* ph,
             std::vector<Span>* spans, WireResult* out) {
  const Workload& w = *s->w;
  ph->first = s->sent.load();
  ph->start_ns = NowNs();
  const int64_t end = ph->start_ns + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0;; ++i) {
    int64_t due;
    if (rate > 0) {
      due = ph->start_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
      if (due >= end) break;
      int64_t now = NowNs();
      if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      ph->late_ms.push_back((NowNs() - due) / 1e6);
    } else {
      due = NowNs();
      if (due >= end) break;
    }
    const uint64_t n = s->sent.load(std::memory_order_relaxed);
    if (n >= PublishLog::kCapacity) break;
    PublishLog::Entry* e = s->log.Prepare(n);
    const uint32_t expected = w.doc_deliveries[n % w.pool_size()];
    e->due_ns = due;
    e->remaining.store(expected, std::memory_order_relaxed);
    s->sent.store(n + 1, std::memory_order_release);
    const int64_t t0 = NowNs();
    Status st = c->Publish(w.docs[n % w.pool_size()]);
    const int64_t t1 = NowNs();
    ph->ack_us.push_back((t1 - t0) / 1e3);
    if (s->traced) spans->push_back({"net.publish", "", n, t0, t1});
    ++out->publishes_attempted;
    if (!st.ok()) ++out->publish_errors;
    s->acked.store(n + 1, std::memory_order_release);
    if (expected == 0) {
      e->done_ns.store(t1, std::memory_order_release);
      s->completed.fetch_add(1, std::memory_order_acq_rel);
    }
  }
  ph->end = s->sent.load();
  ph->end_ns = NowNs();
}

bool WaitComplete(Session* s, double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (s->completed.load(std::memory_order_acquire) <
         s->sent.load(std::memory_order_acquire)) {
    if (NowNs() > deadline || s->receiver_failed.load()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::vector<double> LatenciesMs(Session* s, const Phase& ph) {
  std::vector<double> out;
  for (uint64_t n = ph.first; n < ph.end; ++n) {
    const PublishLog::Entry* e = s->log.Get(n);
    int64_t done = e->done_ns.load(std::memory_order_acquire);
    // A document that never completed misses any latency limit.
    out.push_back(done == 0 ? std::numeric_limits<double>::infinity()
                            : (done - e->due_ns) / 1e6);
  }
  return out;
}

// Appends the block's per-window rates to `docs_s` and `mb_s`, and returns
// its rate over the whole window after warm-up.
double Capacity(Session* s, const Phase& ph, const Workload& w,
                std::vector<double>* docs_s, std::vector<double>* mb_s) {
  const int64_t len = ph.end_ns - ph.start_ns;
  const int64_t from = ph.start_ns + std::min<int64_t>(
      static_cast<int64_t>(kCapacityWarmS * 1e9), static_cast<int64_t>(0.3 * len));
  const int64_t span = ph.end_ns - from;
  const size_t windows = std::max<size_t>(
      1, static_cast<size_t>(span / 1e9 / kCapacityWindowS));
  std::vector<uint64_t> docs(windows, 0), bytes(windows, 0);
  for (uint64_t n = ph.first; n < ph.end; ++n) {
    int64_t done = s->log.Get(n)->done_ns.load(std::memory_order_acquire);
    if (done >= from && done < ph.end_ns) {
      const size_t i = static_cast<size_t>((done - from) * windows / span);
      ++docs[i];
      bytes[i] += w.docs[n % w.pool_size()].size();
    }
  }
  const double window_s = span / 1e9 / windows;
  uint64_t total = 0;
  for (size_t i = 0; i < windows; ++i) {
    docs_s->push_back(docs[i] / window_s);
    mb_s->push_back(bytes[i] / window_s / 1e6);
    total += docs[i];
  }
  return total / (span / 1e9);
}

// --- /statsz helpers --------------------------------------------------------

Result<std::string> HttpGetStatsz(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string body;
  Status st = Status::OK();
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    st = Status::IoError("connect");
  } else {
    const std::string req = "GET /statsz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(req.size())) {
      st = Status::IoError("send");
    }
    char buf[65536];
    while (st.ok()) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 5000) <= 0) {
        st = Status::IoError("statsz read timed out");
        break;
      }
      ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
      if (r < 0) st = Status::IoError("recv");
      if (r <= 0) break;
      body.append(buf, static_cast<size_t>(r));
    }
  }
  ::close(fd);
  VITEX_RETURN_IF_ERROR(st);
  if (body.rfind("HTTP/1.1 200", 0) != 0 ||
      body.find("vitex_net_") == std::string::npos) {
    return Status::IoError("unexpected /statsz response");
  }
  return body;
}

// Rebuilds a histogram from its Prometheus `_bucket` lines.
vitex::obs::HistogramSnapshot ParseHistogram(const std::string& text,
                                             const std::string& name) {
  vitex::obs::HistogramSnapshot h;
  const std::string prefix = name + "_bucket{le=\"";
  std::istringstream in(text);
  std::string line;
  uint64_t prev = 0;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::string le = line.substr(prefix.size(), line.find('"', prefix.size()) - prefix.size());
    if (le == "+Inf") continue;
    uint64_t bound = std::stoull(le);
    uint64_t cum = std::stoull(line.substr(line.rfind(' ') + 1));
    int i = vitex::obs::Histogram::BucketIndex(bound);
    h.buckets[i] += cum - prev;
    prev = cum;
    h.max = bound;
  }
  return h;
}

// --- the control session ----------------------------------------------------

struct Control {
  std::unique_ptr<Client> client;
  Checked checked;
  std::vector<double> subscribe_ms, ping_us, statsz_ms;
  uint64_t errors = 0;
  std::vector<Span> spans;
};

void PollFor(Session* s, Control* ctl, int64_t until) {
  int64_t now = NowNs();
  while (now < until) {
    int wait_ms = static_cast<int>(std::min<int64_t>((until - now) / 1000000, 5));
    Result<std::optional<vitex::net::Match>> m = ctl->client->PollMatch(wait_ms);
    if (!m.ok()) {
      if (ctl->checked.error.empty()) ctl->checked.error = m.status().ToString();
      return;
    }
    if (m->has_value()) ctl->checked.Route(s, **m, NowNs());
    now = NowNs();
  }
}

void PingLoop(Session* s, Control* ctl, int64_t end) {
  for (int64_t next = NowNs(); next < end;
       next += static_cast<int64_t>(kPingIntervalS * 1e9)) {
    PollFor(s, ctl, next);
    const int64_t t0 = NowNs();
    Status st = ctl->client->Ping();
    const int64_t t1 = NowNs();
    if (!st.ok()) {
      ++ctl->errors;
      continue;
    }
    ctl->ping_us.push_back((t1 - t0) / 1e3);
    if (s->traced) ctl->spans.push_back({"net.ping", "", 0, t0, t1});
  }
}

void ChurnLoop(Session* s, Control* ctl, uint16_t port, int64_t start,
               int64_t end) {
  const Workload& w = *s->w;
  const size_t churn_pool = w.queries.size() - w.initial_queries;
  const int64_t every = static_cast<int64_t>(1e9 / w.spec->churn_rate);
  const int64_t life = static_cast<int64_t>(kChurnLifeS * 1e9);
  const int64_t scrape_every = static_cast<int64_t>(kScrapeIntervalS * 1e9);
  std::deque<std::pair<int64_t, uint64_t>> live;  // (unsubscribe at, id)
  int64_t next_sub = start, next_scrape = start + scrape_every / 2;
  uint64_t k = 0;
  while (true) {
    const int64_t now = NowNs();
    if (now >= end && live.empty()) break;
    if (!live.empty() && (live.front().first <= now || now >= end)) {
      const uint64_t id = live.front().second;
      live.pop_front();
      const uint64_t due = s->acked.load(std::memory_order_acquire);
      const int64_t t0 = NowNs();
      Status st = ctl->client->Unsubscribe(id);
      const int64_t t1 = NowNs();
      if (s->traced) ctl->spans.push_back({"net.unsubscribe", "", id, t0, t1});
      Churned& c = ctl->checked.churned.at(id);
      c.due = due;
      c.limit = s->sent.load(std::memory_order_acquire);
      if (!st.ok()) ++ctl->errors;
      continue;
    }
    if (next_sub <= now && now < end) {
      const uint32_t q = static_cast<uint32_t>(w.initial_queries + k++ % churn_pool);
      const uint64_t from = s->acked.load(std::memory_order_acquire);
      const int64_t t0 = NowNs();
      Result<uint64_t> id = ctl->client->Subscribe(w.queries[q]);
      const int64_t t1 = NowNs();
      const uint64_t started_by = s->sent.load(std::memory_order_acquire);
      next_sub += every;
      if (!id.ok()) {
        ++ctl->errors;
        continue;
      }
      ctl->subscribe_ms.push_back((t1 - t0) / 1e6);
      if (s->traced) ctl->spans.push_back({"net.subscribe", "", id.value(), t0, t1});
      Churned c;
      c.q = q;
      c.start_lo = from;
      c.start_hi = started_by;
      c.due = from;
      ctl->checked.churned.emplace(id.value(), std::move(c));
      live.emplace_back(t1 + life, id.value());
      continue;
    }
    if (next_scrape <= now && now < end) {
      const int64_t t0 = NowNs();
      Result<std::string> body = HttpGetStatsz(port);
      const int64_t t1 = NowNs();
      next_scrape += scrape_every;
      if (!body.ok()) {
        ++ctl->errors;
        continue;
      }
      ctl->statsz_ms.push_back((t1 - t0) / 1e6);
      if (s->traced) ctl->spans.push_back({"obs.statsz", "", 0, t0, t1});
      continue;
    }
    int64_t next = live.empty() ? end : live.front().first;
    if (now < end) next = std::min({next, next_sub, next_scrape});
    PollFor(s, ctl, std::min(next, now + 5'000'000));
  }
}

}  // namespace

Result<WireResult> RunWire(const Workload& w, const WireOptions& o,
                           SpanLog* spans) {
  WireResult out;
  Session s;
  s.w = &w;
  s.traced = o.traced;

  // Set-up, repeated; the last stack stays up for the run.
  Stack stack;
  const int64_t setup_start = NowNs();
  while (out.setup_s.size() < kMinSetups ||
         (NowNs() - setup_start < kSetupFloorNs &&
          out.setup_s.size() < kMaxSetups)) {
    stack.TearDown();
    const int64_t t0 = NowNs();
    VITEX_RETURN_IF_ERROR(SetUp(&s, &stack));
    out.setup_s.push_back((NowNs() - t0) / 1e9);
  }
  const uint16_t port = stack.server->port();
  Result<std::unique_ptr<Client>> pub = Client::Connect("127.0.0.1", port);
  VITEX_RETURN_IF_ERROR(pub.status());
  Control ctl;
  Result<std::unique_ptr<Client>> ctl_client = Client::Connect("127.0.0.1", port);
  VITEX_RETURN_IF_ERROR(ctl_client.status());
  ctl.client = std::move(ctl_client.value());

  Receiver* receiver = &stack.receiver;
  receiver->thread = std::thread([&s, receiver] { ReceiveLoop(&s, receiver); });
  std::vector<Span> pub_spans;
  bool drained = true;
  auto block_done = [&] { drained = WaitComplete(&s, kDrainTimeoutS) && drained; };

  const WorkloadSpec& spec = *w.spec;
  double low_total = kLatencyDocs / spec.low_rate;
  double high_total = std::max(kLatencyDocs / spec.high_rate, kMinHighS);
  const double open_loop = o.seconds * (1 - kMinCapacityShare);
  if (low_total + high_total > open_loop) {
    const double scale = open_loop / (low_total + high_total);
    low_total *= scale;
    high_total *= scale;
  }
  const double capacity_s = (o.seconds - low_total - high_total) / kCycles;
  const double low_s = low_total / kCycles;
  const double high_s = high_total / kCycles;
  std::printf("# timing per cycle (s): capacity %.2f low %.2f high %.2f, %d cycles\n",
              capacity_s, low_s, high_s, kCycles);
  std::vector<Phase> lows, highs;
  // Per-window capacity rates over the run; per-block rates for the log.
  std::vector<double> cap_docs, cap_mb, untraced_docs, untraced_mb, block_docs;
  std::vector<double> ack_us;
  const char* const kStages[] = {"ingest_wait", "parse", "shard_queue_wait",
                                 "match", "e2e"};
  vitex::obs::HistogramSnapshot low_stages[5];
  Client* publisher = pub.value().get();
  for (int cycle = 0; cycle < kCycles && drained; ++cycle) {
    if (o.traced) {
      // Reference pass with tracing off, for trace.overhead_pct; each pass
      // gets half the block, so a traced run lasts as long as an untraced.
      s.traced = false;
      Phase untraced;
      Publish(&s, publisher, 0, capacity_s / 2, &untraced, &pub_spans, &out);
      block_done();
      Capacity(&s, untraced, w, &untraced_docs, &untraced_mb);
      s.traced = true;
    }
    Phase capacity;
    Publish(&s, publisher, 0, o.traced ? capacity_s / 2 : capacity_s, &capacity,
            &pub_spans, &out);
    block_done();
    block_docs.push_back(Capacity(&s, capacity, w, &cap_docs, &cap_mb));
    ack_us.insert(ack_us.end(), capacity.ack_us.begin(), capacity.ack_us.end());

    const std::string before_low = stack.service->StatszText();
    {
      Phase low;
      const int64_t end = NowNs() + static_cast<int64_t>(low_s * 1e9);
      std::thread control([&] { PingLoop(&s, &ctl, end); });
      Publish(&s, publisher, spec.low_rate, low_s, &low, &pub_spans, &out);
      control.join();
      block_done();
      lows.push_back(std::move(low));
    }
    // The service's stage histograms over the low blocks alone.
    const std::string after_low = stack.service->StatszText();
    for (int i = 0; i < 5; ++i) {
      const std::string name = std::string("vitex_stage_") + kStages[i] + "_nanos";
      vitex::obs::HistogramSnapshot a = ParseHistogram(before_low, name);
      vitex::obs::HistogramSnapshot b = ParseHistogram(after_low, name);
      for (int k = 0; k < vitex::obs::HistogramSnapshot::kBuckets; ++k) {
        low_stages[i].buckets[k] += b.buckets[k] - std::min(a.buckets[k], b.buckets[k]);
      }
      low_stages[i].max = std::max(low_stages[i].max, b.max);
    }
    {
      Phase high;
      const int64_t start = NowNs();
      const int64_t end = start + static_cast<int64_t>(high_s * 1e9);
      std::thread control([&] { ChurnLoop(&s, &ctl, port, start, end); });
      Publish(&s, publisher, spec.high_rate, high_s, &high, &pub_spans, &out);
      control.join();
      block_done();
      highs.push_back(std::move(high));
    }
  }
  std::printf("# low-phase service stages (ms, p50/p99):");
  for (int i = 0; i < 5; ++i) {
    std::printf(" %s %.3f/%.3f", kStages[i], low_stages[i].Quantile(0.50) / 1e6,
                low_stages[i].Quantile(0.99) / 1e6);
  }
  std::printf("\n");
  out.low_stage_e2e_ms.count = low_stages[4].count();
  out.low_stage_e2e_ms.p50 = low_stages[4].Quantile(0.50) / 1e6;
  out.low_stage_e2e_ms.p99 = low_stages[4].Quantile(0.99) / 1e6;

  // Stop the receiver, let every shard finish, then collect whatever is
  // still in flight: a PONG is queued behind every MATCH enqueued before
  // its PING, so after Flush + Ping nothing for these sessions is missing.
  s.stop.store(true, std::memory_order_release);
  receiver->thread.join();
  VITEX_RETURN_IF_ERROR(stack.service->Flush());
  for (auto& ss : receiver->sessions) {
    if (ss->client->Ping().ok()) ss->checked.DrainNow(&s, ss->client.get());
  }
  if (ctl.client->Ping().ok()) ctl.checked.DrainNow(&s, ctl.client.get());

  const uint64_t total = s.sent.load();
  for (auto& ss : receiver->sessions) {
    for (auto& [id, c] : ss->checked.by_id) c.Finish(total, &ss->checked.tally);
    out.tally.Add(ss->checked.tally);
    if (!ss->checked.error.empty()) {
      return Status::IoError("subscriber session: " + ss->checked.error);
    }
  }
  for (const auto& [id, c] : ctl.checked.churned) {
    ctl.checked.tally.Add(
        CheckChurned(w, c.q, c.got, c.start_lo, c.start_hi, c.due, c.limit));
  }
  out.tally.Add(ctl.checked.tally);
  if (!ctl.checked.error.empty()) {
    return Status::IoError("control session: " + ctl.checked.error);
  }
  if (spans != nullptr) {
    spans->AddAll(receiver->spans);
    spans->AddAll(ctl.spans);
    spans->AddAll(pub_spans);
  }
  if (!drained) {
    std::fprintf(stderr, "warning: %llu of %llu documents never completed\n",
                 static_cast<unsigned long long>(total - s.completed.load()),
                 static_cast<unsigned long long>(total));
  }

  auto median = [](std::vector<double> v) { return Quantile(&v, 0.5); };
  auto pooled = [&](const std::vector<Phase>& phases) {
    std::vector<double> all;
    for (const Phase& ph : phases) {
      std::vector<double> l = LatenciesMs(&s, ph);
      all.insert(all.end(), l.begin(), l.end());
    }
    return Percentiles::Of(std::move(all));
  };
  std::printf("# blocks (capacity docs/s | low p50/p99 ms | high p50/p99 ms):");
  for (size_t i = 0; i < highs.size(); ++i) {
    Percentiles l = Percentiles::Of(LatenciesMs(&s, lows[i]));
    Percentiles h = Percentiles::Of(LatenciesMs(&s, highs[i]));
    std::printf(" [%.0f | %.2f/%.2f | %.2f/%.2f]", block_docs[i], l.p50, l.p99,
                h.p50, h.p99);
  }
  std::printf("\n# capacity windows of %.2f s: %zu, docs/s p25/p50/p75 %.0f/%.0f/%.0f\n",
              kCapacityWindowS, cap_docs.size(), Quantile(&cap_docs, 0.25),
              Quantile(&cap_docs, 0.5), Quantile(&cap_docs, 0.75));
  out.documents_total = total;
  out.churn_errors = ctl.errors;
  const int64_t busy = receiver->busy_to - receiver->busy_from;
  out.recv_idle_share = busy > 0 ? static_cast<double>(receiver->idle_ns) / busy : 0;
  out.capacity_docs_per_s = median(cap_docs);
  out.capacity_mb_per_s = median(cap_mb);
  out.untraced_capacity_docs_per_s = median(untraced_docs);
  out.low = pooled(lows);
  out.high = pooled(highs);
  out.subscribe = Percentiles::Of(ctl.subscribe_ms);
  out.ping_us = Percentiles::Of(ctl.ping_us);
  out.statsz_ms = Percentiles::Of(ctl.statsz_ms);
  out.publish_ack_us = Percentiles::Of(ack_us);
  std::vector<double> late;
  uint64_t offered = 0;
  int64_t high_ns = 0;
  for (const Phase& ph : highs) {
    late.insert(late.end(), ph.late_ms.begin(), ph.late_ms.end());
    offered += ph.end - ph.first;
    high_ns += ph.end_ns - ph.start_ns;
  }
  out.late_p99_ms = Quantile(&late, 0.99);
  out.offered_docs_per_s = offered / (high_ns / 1e9);

  const vitex::ServiceStats ss = stack.service->stats();
  out.results_overflowed = ss.results_overflowed;
  out.documents_rejected = ss.documents_rejected;
  const vitex::net::NetStatsSnapshot ns = stack.server->stats();
  out.matches_dropped = ns.matches_dropped;
  out.evicted = ns.connections_evicted;
  out.matches_sent = ns.matches_sent;
  out.bytes_out = ns.bytes_out;
  out.outbuf_high_watermark = ns.outbuf_high_watermark;

  pub.value()->Close();
  ctl.client->Close();
  stack.TearDown();
  return out;
}

}  // namespace perfbench
