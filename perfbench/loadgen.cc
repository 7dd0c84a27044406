// perfbench_loadgen — the end-to-end xpstreamd benchmark's load
// generator. It builds one workload's inputs and references from
// --seed, starts xpstreamd as a child process, drives it over loopback
// TCP from this single thread (closed loop: each publisher sends its
// next document once the previous one is complete), checks every
// result, and prints one metric per line followed by a JSON summary.
//
//   perfbench_loadgen --daemon PATH --workload NAME --seed N
//                     --seconds S --trace 0|1 [--trace-dir DIR]
//                     [--workers N] [--smoke]
//
// --workers overrides the workload's xpstreamd --pipeline-workers
// (1 = the serial service); the benchmark's own runs never pass it.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the TCP
// phase twice (untraced, then with client spans recorded), then times
// the benchmark's own calls into each layer, and prints the per-layer
// metrics with the tracing overhead.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "inputs.h"
#include "layers.h"
#include "trace.h"
#include "wire_client.h"

namespace perfbench {
namespace {

struct Args {
  std::string daemon;
  std::string workload;
  std::string trace_dir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  size_t workers = 0;  // 0 = the workload's own --pipeline-workers
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- the daemon child process ----------------------------------------

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Starts xpstreamd with only --port, --engine and --pipeline-workers
  /// and reads the bound port from its first line of output.
  bool Start(const std::string& path, const Workload& w) {
    int out[2];
    if (::pipe(out) != 0) return false;
    const std::string workers = std::to_string(w.workers);
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(path.c_str(), path.c_str(), "--port", "0", "--engine",
              w.engine.c_str(), "--pipeline-workers", workers.c_str(),
              static_cast<char*>(nullptr));
      std::perror("exec xpstreamd");
      ::_exit(127);
    }
    ::close(out[1]);
    out_fd_ = out[0];
    std::string line;
    const int64_t deadline = NowNs() + 20'000'000'000;
    while (line.find('\n') == std::string::npos && NowNs() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    // "xpstreamd listening on 127.0.0.1:PORT (engine=..., ...)"
    const size_t at = line.find("127.0.0.1:");
    if (at == std::string::npos) {
      std::fprintf(stderr, "xpstreamd did not report a port: %s\n",
                   line.c_str());
      return false;
    }
    port_ = static_cast<uint16_t>(std::atoi(line.c_str() + at + 10));
    return port_ != 0;
  }

  uint16_t port() const { return port_; }

  /// user and system CPU seconds of the whole process.
  bool Cpu(double* user, double* sys) const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const size_t close = text.rfind(')');
    if (close == std::string::npos) return false;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    for (int i = 3; fields >> field; ++i) {
      if (i == 14) *user = std::strtod(field.c_str(), nullptr) / tick;
      if (i == 15) {
        *sys = std::strtod(field.c_str(), nullptr) / tick;
        return true;
      }
    }
    return false;
  }

  /// VmHWM in MiB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  /// SIGTERM, then SIGKILL after five seconds; always reaps the child.
  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const int64_t deadline = NowNs() + 5'000'000'000;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowNs() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        ::usleep(2000);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// --- one TCP run --------------------------------------------------------

struct TcpResult {
  bool ok = false;  // the run itself worked (daemon up, protocol sane)
  std::vector<std::string> errors;  // wrong results: correct = false
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  double window_s = 0;
  uint64_t window_docs = 0;
  std::vector<double> latency_ms, first_match_ms, doc_ok_ms, subscribe_us;
  double user_cpu_s = 0, sys_cpu_s = 0;
  double loadgen_cpu_share = 0;
  double peak_rss_mb = 0;
  uint64_t push_frames = 0, push_bytes = 0;
  std::map<std::string, uint64_t> stats;  // control connection's STATS
};

class TcpRun {
 public:
  TcpRun(const Workload& w, const Args& args, Tracer* tracer, double seconds)
      : w_(w), args_(args), tracer_(tracer), seconds_(seconds) {}

  TcpResult Run();

 private:
  enum class PubState { kIdle, kSending, kAwaitOk, kAwaitDone };
  struct Publisher {
    Connection conn;
    PubState state = PubState::kIdle;
    size_t input = 0;
    size_t offset = 0;  // bytes of the document queued so far
    bool end_queued = false;
    int64_t first_send = 0;
    int64_t end_sent = 0;
  };
  struct DocState {
    int pub = -1;
    int64_t ok_recv = 0;
    int64_t first_match = 0;
    int64_t last_done = 0;
    uint32_t dones = 0;
  };
  // Connection slots: subscribers 0..S-1, then control (S).
  struct SubConn {
    Connection conn;
    std::vector<uint32_t> stable_ids;
    std::vector<SubSpec> to_subscribe;
    size_t next_subscribe = 0;
    bool awaiting = false;
    int64_t request_ns = 0;
    std::unordered_map<uint64_t, DocRecord> records;
    std::unordered_set<uint64_t> checked;
    std::map<std::string, uint64_t> stats;
    bool stats_pending = false;
  };

  bool Pump(int timeout_ms);
  bool OnSubscriberFrame(size_t c, const Frame& f);
  bool OnPublisherFrame(size_t p, const Frame& f);
  void OnDocDone(size_t c, const Frame& f);
  void OnMatch(size_t c, const Frame& f);
  void CheckRecord(size_t c, uint64_t doc);
  void MaybeComplete(uint64_t doc);
  void StartDocument(size_t p);
  void FeedPublisher(size_t p);
  void NextControlOp();
  bool Request(size_t c, uint8_t type, const std::string& payload);
  bool QueryStats();
  bool WindowOpen(int64_t t) const { return t >= window_start_ && t < window_end_; }

  const Workload& w_;
  const Args& args_;
  Tracer* tracer_;
  double seconds_;
  Daemon daemon_;
  TcpResult r_;

  std::vector<std::unique_ptr<SubConn>> conns_;  // subscribers + control
  std::vector<std::unique_ptr<Publisher>> pubs_;
  SubTable subs_;
  std::unordered_map<uint64_t, DocState> docs_;
  std::unordered_map<uint64_t, size_t> input_of_;
  size_t next_doc_ = 0;
  uint64_t completed_ = 0;
  uint64_t doc_oks_ = 0;
  int64_t last_subscribe_ok_ = 0;
  bool sending_ = true;
  int64_t window_start_ = INT64_MAX;
  int64_t window_end_ = INT64_MAX;

  // Control schedule.
  size_t ctl_next_op_ = 0;
  uint64_t ctl_next_at_ = 0;
  std::map<size_t, uint32_t> ctl_slot_ids_;
  ControlOp::Kind ctl_pending_kind_ = ControlOp::kCompact;
  size_t ctl_pending_slot_ = 0;
  SubSpec ctl_pending_spec_;

  // First checked record with an earliest MATCH, kept for the self-test.
  bool have_sample_ = false;
  DocRecord sample_;
  size_t sample_input_ = 0;
  size_t sample_conn_ = 0;
};

bool TcpRun::Request(size_t c, uint8_t type, const std::string& payload) {
  SubConn& sc = *conns_[c];
  sc.conn.Queue(type, payload);
  sc.awaiting = true;
  sc.request_ns = NowNs();
  if (type != kStats) ++r_.attempted;  // STATS reads are not workload ops
  return sc.conn.Flush();
}

void TcpRun::StartDocument(size_t p) {
  Publisher& pub = *pubs_[p];
  // Documents go out in generation order, so every seed sends the same
  // cycle of sizes.
  pub.input = next_doc_++ % w_.docs.size();
  pub.offset = 0;
  pub.end_queued = false;
  pub.first_send = NowNs();
  pub.state = PubState::kSending;
  ++r_.attempted;
  FeedPublisher(p);
}

void TcpRun::FeedPublisher(size_t p) {
  Publisher& pub = *pubs_[p];
  const std::string& xml = w_.docs[pub.input].xml;
  // Keep at most one chunk queued beyond what the socket has taken.
  while (pub.state == PubState::kSending &&
         pub.conn.pending_bytes() < w_.chunk_bytes) {
    if (pub.offset < xml.size()) {
      const size_t n = std::min(w_.chunk_bytes, xml.size() - pub.offset);
      pub.conn.Queue(kDocChunk, std::string_view(xml).substr(pub.offset, n));
      pub.offset += n;
    } else if (!pub.end_queued) {
      pub.conn.Queue(kDocEnd, "");
      pub.end_queued = true;
    } else {
      break;
    }
    pub.conn.Flush();
  }
  if (pub.state == PubState::kSending && pub.end_queued &&
      pub.conn.pending_bytes() == 0) {
    pub.end_sent = NowNs();
    pub.state = PubState::kAwaitOk;
  }
}

void TcpRun::NextControlOp() {
  const size_t c = conns_.size() - 1;
  const ControlOp& op = w_.control[ctl_next_op_ % w_.control.size()];
  ++ctl_next_op_;
  ctl_pending_kind_ = op.kind;
  ctl_pending_slot_ = op.slot;
  ctl_pending_spec_ = op.sub;
  if (op.kind == ControlOp::kSubscribe) {
    Request(c, kSubscribe,
            SubscribePayload(op.sub.earliest,
                             w_.classes[op.sub.cls].spellings[op.sub.spelling]));
  } else if (op.kind == ControlOp::kUnsubscribe) {
    auto it = ctl_slot_ids_.find(op.slot);
    if (it == ctl_slot_ids_.end()) return;  // its SUBSCRIBE failed
    const uint32_t id = it->second;
    subs_.Find(id)->unsubscribed = true;
    ctl_slot_ids_.erase(it);
    Request(c, kUnsubscribe, U32Payload(id));
  } else {
    Request(c, kCompact, "");
  }
}

void TcpRun::OnMatch(size_t c, const Frame& f) {
  if (f.payload.size() != 20) {
    r_.errors.push_back("malformed MATCH");
    return;
  }
  const uint32_t sub = GetU32(f.payload, 0);
  const uint64_t doc = GetU64(f.payload, 4);
  const uint64_t ordinal = GetU64(f.payload, 12);
  SubConn& sc = *conns_[c];
  if (sc.checked.count(doc) != 0) {
    r_.errors.push_back("MATCH after its document's DOC_DONE");
    return;
  }
  DocRecord& rec = sc.records[doc];
  if (rec.done) {
    ++rec.late_matches;  // its DOC_DONE waits for the DOC_OK mapping
  } else {
    rec.matches.emplace_back(sub, ordinal);
  }
  const SubInfo* info = subs_.Find(sub);
  if (c + 1 < conns_.size() && info != nullptr && info->spec.earliest) {
    DocState& d = docs_[doc];
    if (d.first_match == 0) d.first_match = f.recv_ns;
  }
}

void TcpRun::OnDocDone(size_t c, const Frame& f) {
  if (f.payload.size() < 12) {
    r_.errors.push_back("malformed DOC_DONE");
    return;
  }
  const uint64_t doc = GetU64(f.payload, 0);
  const uint32_t n = GetU32(f.payload, 8);
  if (f.payload.size() != 12 + 5 * static_cast<size_t>(n)) {
    r_.errors.push_back("malformed DOC_DONE");
    return;
  }
  SubConn& sc = *conns_[c];
  DocRecord& rec = sc.records[doc];
  if (rec.done) {
    r_.errors.push_back("two DOC_DONEs for one document");
    return;
  }
  rec.done = true;
  rec.verdicts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    rec.verdicts.emplace_back(GetU32(f.payload, 12 + 5 * i),
                              static_cast<uint8_t>(f.payload[16 + 5 * i]));
  }
  if (input_of_.count(doc) != 0) CheckRecord(c, doc);
  if (c + 1 < conns_.size()) {
    DocState& d = docs_[doc];
    ++d.dones;
    d.last_done = std::max(d.last_done, f.recv_ns);
    MaybeComplete(doc);
  }
}

void TcpRun::CheckRecord(size_t c, uint64_t doc) {
  SubConn& sc = *conns_[c];
  auto it = sc.records.find(doc);
  const size_t input = input_of_.at(doc);
  std::string error = CheckDocRecord(it->second, w_.docs[input], w_, subs_,
                                     sc.stable_ids);
  if (!error.empty()) {
    r_.errors.push_back("document " + std::to_string(doc) + " on connection " +
                        std::to_string(c) + ": " + error);
  } else if (!have_sample_ && c + 1 < conns_.size()) {
    for (const auto& [sub, ordinal] : it->second.matches) {
      (void)ordinal;
      if (subs_.Find(sub)->spec.earliest) {
        have_sample_ = true;
        sample_ = it->second;
        sample_input_ = input;
        sample_conn_ = c;
        break;
      }
    }
  }
  sc.records.erase(it);
  sc.checked.insert(doc);
}

void TcpRun::MaybeComplete(uint64_t doc) {
  auto it = docs_.find(doc);
  if (it == docs_.end()) return;
  DocState& d = it->second;
  if (d.pub < 0 || d.dones < conns_.size() - 1) return;
  Publisher& pub = *pubs_[d.pub];
  ++completed_;
  if (WindowOpen(d.last_done)) ++r_.window_docs;
  if (WindowOpen(pub.first_send)) {
    r_.latency_ms.push_back(Seconds(d.last_done - pub.first_send) * 1e3);
    r_.doc_ok_ms.push_back(Seconds(d.ok_recv - pub.end_sent) * 1e3);
    if (d.first_match != 0) {
      r_.first_match_ms.push_back(Seconds(d.first_match - pub.first_send) * 1e3);
    }
  }
  if (tracer_->enabled()) {
    const int64_t root =
        tracer_->Add("client.doc", pub.first_send, d.last_done, -1, doc);
    tracer_->Add("client.send", pub.first_send, pub.end_sent, root, doc);
    tracer_->Add("client.ack", pub.end_sent, d.ok_recv, root, doc);
    tracer_->Add("client.deliver", d.ok_recv, d.last_done, root, doc);
    if (d.first_match != 0) {
      tracer_->Add("client.first_match", pub.first_send, d.first_match, root,
                   doc);
    }
  }
  pub.state = PubState::kIdle;
  docs_.erase(it);
}

bool TcpRun::OnSubscriberFrame(size_t c, const Frame& f) {
  SubConn& sc = *conns_[c];
  const bool window = WindowOpen(f.recv_ns);
  switch (f.type) {
    case kMatch:
    case kDocDone:
      if (c + 1 < conns_.size() && window) {
        ++r_.push_frames;
        r_.push_bytes += 5 + f.payload.size();
      }
      if (f.type == kMatch) {
        OnMatch(c, f);
      } else {
        OnDocDone(c, f);
      }
      return true;
    case kSubscribeOk: {
      if (!sc.awaiting || f.payload.size() != 4) return false;
      sc.awaiting = false;
      const uint32_t id = GetU32(f.payload, 0);
      const bool stable = c + 1 < conns_.size();
      if (!subs_.Add(id, stable ? sc.to_subscribe[sc.next_subscribe - 1]
                                : ctl_pending_spec_)) {
        return false;
      }
      if (stable) {
        sc.stable_ids.push_back(id);
        last_subscribe_ok_ = std::max(last_subscribe_ok_, f.recv_ns);
      } else {
        ctl_slot_ids_[ctl_pending_slot_] = id;
        if (window) {
          r_.subscribe_us.push_back(static_cast<double>(f.recv_ns - sc.request_ns) /
                                    1e3);
        }
        if (tracer_->enabled()) {
          tracer_->Add("client.subscribe", sc.request_ns, f.recv_ns, -1, id);
        }
      }
      return true;
    }
    case kUnsubscribeOk:
    case kCompactOk:
      if (!sc.awaiting) return false;
      sc.awaiting = false;
      return true;
    case kStatsOk: {
      if (!sc.awaiting) return false;
      sc.awaiting = false;
      sc.stats_pending = false;
      std::istringstream lines{std::string(f.payload)};
      std::string line;
      while (std::getline(lines, line)) {
        const size_t eq = line.find('=');
        if (eq == std::string::npos) continue;
        sc.stats[line.substr(0, eq)] =
            std::strtoull(line.c_str() + eq + 1, nullptr, 10);
      }
      return true;
    }
    case kError:
      if (!sc.awaiting) return false;
      sc.awaiting = false;
      ++r_.failed;
      std::fprintf(stderr, "request failed on connection %zu: %.*s\n", c,
                   static_cast<int>(f.payload.size() > 1 ? f.payload.size() - 1 : 0),
                   f.payload.data() + 1);
      return true;
    default:
      return false;
  }
}

bool TcpRun::OnPublisherFrame(size_t p, const Frame& f) {
  Publisher& pub = *pubs_[p];
  if (f.type == kDocOk && pub.state == PubState::kAwaitOk &&
      f.payload.size() == 8) {
    const uint64_t doc = GetU64(f.payload, 0);
    ++doc_oks_;
    pub.state = PubState::kAwaitDone;
    input_of_[doc] = pub.input;
    DocState& d = docs_[doc];
    d.pub = static_cast<int>(p);
    d.ok_recv = f.recv_ns;
    for (size_t c = 0; c < conns_.size(); ++c) {
      auto it = conns_[c]->records.find(doc);
      if (it != conns_[c]->records.end() && it->second.done) CheckRecord(c, doc);
    }
    MaybeComplete(doc);
    // Control operations go out just as a document has been handed to
    // the pool, so each one meets an evaluation in flight at the same
    // phase. Sent at a document boundary instead, a SUBSCRIBE raced the
    // next document's chunks for the daemon's loop thread and the runs
    // split into two regimes.
    const size_t ctl = conns_.size() - 1;
    if (sending_ && !conns_[ctl]->awaiting && !w_.control.empty() &&
        completed_ >= ctl_next_at_) {
      ctl_next_at_ = completed_ + w_.docs_per_control_op;
      NextControlOp();
    }
    return true;
  }
  if (f.type == kError && pub.state == PubState::kAwaitOk) {
    ++r_.failed;
    std::fprintf(stderr, "DOC_END failed: %.*s\n",
                 static_cast<int>(f.payload.size() > 1 ? f.payload.size() - 1 : 0),
                 f.payload.data() + 1);
    pub.state = PubState::kIdle;
    return true;
  }
  return false;
}

bool TcpRun::Pump(int timeout_ms) {
  std::vector<pollfd> fds;
  for (auto& sc : conns_) {
    fds.push_back(pollfd{sc->conn.fd(),
                         static_cast<short>(POLLIN | (sc->conn.pending_bytes()
                                                          ? POLLOUT
                                                          : 0)),
                         0});
  }
  for (auto& pub : pubs_) {
    fds.push_back(pollfd{pub->conn.fd(),
                         static_cast<short>(POLLIN | (pub->conn.pending_bytes()
                                                          ? POLLOUT
                                                          : 0)),
                         0});
  }
  if (::poll(fds.data(), fds.size(), timeout_ms) < 0) return errno == EINTR;
  std::vector<Frame> frames;
  for (size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    const bool is_pub = i >= conns_.size();
    Connection& conn = is_pub ? pubs_[i - conns_.size()]->conn : conns_[i]->conn;
    if (fds[i].revents & POLLOUT) {
      if (!conn.Flush()) return false;
      if (is_pub) FeedPublisher(i - conns_.size());
    }
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      frames.clear();
      if (!conn.Read(&frames)) {
        std::fprintf(stderr, "connection %zu closed by the daemon\n", i);
        return false;
      }
      for (const Frame& f : frames) {
        const bool handled = is_pub ? OnPublisherFrame(i - conns_.size(), f)
                                    : OnSubscriberFrame(i, f);
        if (!handled) {
          std::fprintf(stderr, "unexpected frame 0x%02x on connection %zu\n",
                       f.type, i);
          return false;
        }
      }
    }
  }
  return true;
}

bool TcpRun::QueryStats() {
  for (size_t c = 0; c < conns_.size(); ++c) {
    conns_[c]->stats_pending = true;
    Request(c, kStats, "");
  }
  const int64_t deadline = NowNs() + 10'000'000'000;
  while (NowNs() < deadline) {
    bool pending = false;
    for (auto& sc : conns_) pending |= sc->stats_pending;
    if (!pending) return true;
    if (!Pump(10)) return false;
  }
  return false;
}

TcpResult TcpRun::Run() {
  const size_t num_subs = w_.subscriber_conns;
  const int64_t launch = NowNs();
  if (!daemon_.Start(args_.daemon, w_)) return r_;
  for (size_t c = 0; c <= num_subs; ++c) {
    conns_.push_back(std::make_unique<SubConn>());
    if (!conns_.back()->conn.Connect(daemon_.port())) return r_;
  }
  for (size_t p = 0; p < w_.publishers; ++p) {
    pubs_.push_back(std::make_unique<Publisher>());
    if (!pubs_.back()->conn.Connect(daemon_.port())) return r_;
  }
  for (size_t i = 0; i < w_.population.size(); ++i) {
    conns_[i % num_subs]->to_subscribe.push_back(w_.population[i]);
  }

  // Set-up: the population, one outstanding SUBSCRIBE per connection.
  for (;;) {
    bool busy = false;
    for (size_t c = 0; c < num_subs; ++c) {
      SubConn& sc = *conns_[c];
      if (sc.awaiting) {
        busy = true;
      } else if (sc.next_subscribe < sc.to_subscribe.size()) {
        const SubSpec& s = sc.to_subscribe[sc.next_subscribe++];
        Request(c, kSubscribe,
                SubscribePayload(s.earliest,
                                 w_.classes[s.cls].spellings[s.spelling]));
        busy = true;
      }
    }
    if (!busy) break;
    if (!Pump(100) || NowNs() - launch > 60'000'000'000) return r_;
  }
  if (r_.failed > 0) {
    std::fprintf(stderr, "the population's SUBSCRIBEs failed\n");
    return r_;
  }
  r_.setup_s = Seconds(last_subscribe_ok_ - launch);

  // Traffic: warm-up, the measured window, then a drain.
  const int64_t start = NowNs();
  const double warmup = std::min(1.0, 0.1 * seconds_);
  window_start_ = start + static_cast<int64_t>(warmup * 1e9);
  window_end_ = window_start_ + static_cast<int64_t>(seconds_ * 1e9);
  double cpu0_user = 0, cpu0_sys = 0;
  rusage self0{};
  bool window_started = false;
  int64_t drain_deadline = 0;
  const size_t ctl = conns_.size() - 1;
  for (;;) {
    const int64_t now = NowNs();
    if (!window_started && now >= window_start_) {
      window_started = true;
      daemon_.Cpu(&cpu0_user, &cpu0_sys);
      ::getrusage(RUSAGE_SELF, &self0);
    }
    if (sending_ && now >= window_end_) {
      sending_ = false;
      double user = 0, sys = 0;
      daemon_.Cpu(&user, &sys);
      r_.user_cpu_s = user - cpu0_user;
      r_.sys_cpu_s = sys - cpu0_sys;
      rusage self1{};
      ::getrusage(RUSAGE_SELF, &self1);
      auto cpu = [](const rusage& u) {
        return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
               static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
      };
      r_.window_s = Seconds(now - window_start_);
      r_.loadgen_cpu_share = (cpu(self1) - cpu(self0)) / r_.window_s;
      drain_deadline = now + 30'000'000'000;
    }
    bool idle = !conns_[ctl]->awaiting;
    for (size_t p = 0; p < pubs_.size(); ++p) {
      if (pubs_[p]->state == PubState::kIdle) {
        if (sending_) StartDocument(p);
      }
      idle &= pubs_[p]->state == PubState::kIdle;
    }
    if (!sending_ && idle) break;
    if (!sending_ && now > drain_deadline) {
      std::fprintf(stderr, "drain timed out\n");
      break;
    }
    if (!Pump(1)) return r_;
  }
  // Documents still open lack a DOC_DONE somewhere: failed.
  r_.failed += docs_.size();
  for (auto& [doc, d] : docs_) {
    (void)d;
    input_of_.erase(doc);
  }
  for (size_t p = 0; p < pubs_.size(); ++p) {
    if (pubs_[p]->state != PubState::kIdle &&
        pubs_[p]->state != PubState::kAwaitDone) {
      ++r_.failed;
    }
  }

  if (!QueryStats()) {
    r_.errors.push_back("STATS went unanswered");
    return r_;
  }
  // documents_seen may trail the last DOC_DONE by the worker's own
  // bookkeeping; give it a moment to settle before comparing.
  for (int i = 0; i < 100 && conns_[ctl]->stats["documents_seen"] < doc_oks_;
       ++i) {
    ::usleep(10'000);
    if (!QueryStats()) break;
  }
  r_.stats = conns_[ctl]->stats;
  r_.peak_rss_mb = daemon_.PeakRssMb();
  daemon_.Stop();

  uint64_t dropped = 0;
  for (auto& sc : conns_) dropped += sc->stats["dropped_frames"];
  // Records never completed: a MATCH-only record on the control
  // connection (all its subscriptions left mid-flight) is checked as
  // it stands; anywhere else a record without DOC_DONE is a failure.
  for (size_t c = 0; c < conns_.size(); ++c) {
    for (auto& [doc, rec] : conns_[c]->records) {
      if (c == ctl && input_of_.count(doc) != 0 && !rec.done) {
        rec.done = true;
        const std::string error = CheckDocRecord(
            rec, w_.docs[input_of_.at(doc)], w_, subs_, conns_[c]->stable_ids);
        if (!error.empty()) r_.errors.push_back("control: " + error);
      } else if (dropped == 0 && input_of_.count(doc) != 0) {
        r_.errors.push_back("document " + std::to_string(doc) +
                            " left without a DOC_DONE");
      }
    }
  }
  if (dropped > 0) {
    std::fprintf(stderr, "%llu pushes were shed\n",
                 static_cast<unsigned long long>(dropped));
    r_.failed += dropped;
  }

  // Service-wide checks.
  std::string e = CheckDocumentsSeen(r_.stats["documents_seen"], doc_oks_);
  if (!e.empty()) r_.errors.push_back(e);
  const bool churn = w_.engine == "frontier";
  const uint64_t bound = FrontierBound(w_);
  std::vector<size_t> live;
  for (const SubInfo& info : subs_.all()) {
    if (info.known && !info.unsubscribed) live.push_back(info.spec.cls);
  }
  const uint64_t signatures = DistinctSignatures(w_, live);
  if (churn) {
    e = CheckFrontierBound(r_.stats["peak_table_entries"], bound);
    if (!e.empty()) r_.errors.push_back(e);
    e = CheckEvalSlots(r_.stats["eval_slots"], signatures);
    if (!e.empty()) r_.errors.push_back(e);
  }
  if (!have_sample_) {
    r_.errors.push_back("self-test: no checked record with an earliest MATCH");
  } else {
    e = SelfTest(sample_, w_.docs[sample_input_], w_, subs_,
                 conns_[sample_conn_]->stable_ids, doc_oks_, churn, bound,
                 signatures);
    if (!e.empty()) r_.errors.push_back("self-test: checks missed " + e);
  }
  std::fprintf(stderr,
               "checks: %llu DOC_OKs, frontier bound %llu (peak %llu), "
               "%llu signatures (eval_slots %llu), self-test %s\n",
               static_cast<unsigned long long>(doc_oks_),
               static_cast<unsigned long long>(bound),
               static_cast<unsigned long long>(r_.stats["peak_table_entries"]),
               static_cast<unsigned long long>(signatures),
               static_cast<unsigned long long>(r_.stats["eval_slots"]),
               e.empty() ? "passed" : "FAILED");
  r_.ok = true;
  return r_;
}

// --- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool ReportErrors(const TcpResult& r) {
  for (size_t i = 0; i < r.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "WRONG: %s\n", r.errors[i].c_str());
  }
  if (r.loadgen_cpu_share > 0.85) {
    std::fprintf(stderr,
                 "WARNING: the load generator used %.0f%% of a core; it, not "
                 "xpstreamd, may have been the saturated side\n",
                 100 * r.loadgen_cpu_share);
  }
  if (r.latency_ms.size() < 1000) {
    std::fprintf(stderr,
                 "WARNING: %zu latency samples leave fewer than ten beyond "
                 "p99\n",
                 r.latency_ms.size());
  }
  return r.errors.empty();
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (v == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    ++i;
    if (a == "--daemon") {
      args.daemon = v;
    } else if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (a == "--trace-dir") {
      args.trace_dir = v;
    } else if (a == "--workers") {
      args.workers = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (args.daemon.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "usage: %s --daemon PATH --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--trace-dir D] [--workers N] "
                         "[--smoke]\n",
                 argv[0]);
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);

  Workload w;
  const int64_t t0 = NowNs();
  if (!MakeWorkload(args.workload, args.seed, args.smoke, &w)) return 2;
  if (args.workers > 0) w.workers = args.workers;
  size_t bytes = 0;
  for (const Document& d : w.docs) bytes += d.xml.size();
  std::fprintf(stderr,
               "%s: %zu documents (%.2f MB), %zu subscriptions, engine %s, "
               "%zu workers, %zu publishers; inputs in %.2f s\n",
               w.name.c_str(), w.docs.size(), static_cast<double>(bytes) / 1e6,
               w.population.size(), w.engine.c_str(), w.workers, w.publishers,
               Seconds(NowNs() - t0));

  if (!args.trace) {
    Tracer off(false);
    const TcpResult r = TcpRun(w, args, &off, args.seconds).Run();
    if (!r.ok) {
      std::fprintf(stderr, "the TCP run did not complete\n");
      return 1;
    }
    const bool correct = ReportErrors(r);
    const double docs = static_cast<double>(std::max<uint64_t>(1, r.window_docs));
    PrintResult(
        correct, r.attempted, r.failed,
        {{"docs_per_s", static_cast<double>(r.window_docs) / r.window_s, "docs/s"},
         {"doc_latency_p50_ms", Quantile(r.latency_ms, 0.5), "ms"},
         {"doc_latency_p99_ms", Quantile(r.latency_ms, 0.99), "ms"},
         {"first_match_ms", Quantile(r.first_match_ms, 0.5), "ms"},
         {"cpu_us_per_doc", (r.user_cpu_s + r.sys_cpu_s) * 1e6 / docs, "us"},
         {"peak_rss_mb", r.peak_rss_mb, "MB"},
         {"setup_s", r.setup_s, "s"},
         {"subscribe_p50_us", Quantile(r.subscribe_us, 0.5), "us"}});
    return 0;
  }

  // Traced: untraced and traced halves, then the in-process layers.
  Tracer off(false), on(true);
  const TcpResult plain = TcpRun(w, args, &off, args.seconds / 2).Run();
  const TcpResult traced = TcpRun(w, args, &on, args.seconds / 2).Run();
  if (!plain.ok || !traced.ok) {
    std::fprintf(stderr, "the TCP run did not complete\n");
    return 1;
  }
  const bool correct = ReportErrors(plain) && ReportErrors(traced);
  std::map<std::string, double> layer;
  const std::string error = RunLayers(w, args.smoke ? 0.05 : 0.4, &on, &layer);
  if (!error.empty()) {
    std::fprintf(stderr, "layers: %s\n", error.c_str());
    return 1;
  }
  const std::string trace_path = args.trace_dir + "/trace-" + w.name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
  if (!on.Write(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  const auto self_us = on.MeanSelfUs();
  for (const auto& [name, us] : self_us) {
    std::fprintf(stderr, "span %-28s mean self %12.2f us\n", name.c_str(), us);
  }
  std::fprintf(stderr, "%zu spans written to %s (%zu over the cap)\n",
               on.size(), trace_path.c_str(), on.dropped());

  const double docs = static_cast<double>(std::max<uint64_t>(1, traced.window_docs));
  const double plain_rate = static_cast<double>(plain.window_docs) / plain.window_s;
  const double traced_rate =
      static_cast<double>(traced.window_docs) / traced.window_s;
  auto stat = [&](const char* key) {
    auto it = traced.stats.find(key);
    return it == traced.stats.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto span = [&](const char* name) {
    auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : it->second;
  };
  PrintResult(
      correct, plain.attempted + traced.attempted, plain.failed + traced.failed,
      {{"xml.scan_ns_per_byte", layer["xml.scan_ns_per_byte"], "ns/B"},
       {"xml.parse_ns_per_byte", layer["xml.parse_ns_per_byte"], "ns/B"},
       {"xml.intern_ns_per_byte", layer["xml.intern_ns_per_byte"], "ns/B"},
       {"api.facade_us_per_doc", layer["api.facade_us_per_doc"], "us"},
       {"stream.match_ns_per_event", layer["stream.match_ns_per_event"], "ns"},
       {"stream.peak_table_entries", layer["stream.peak_table_entries"], "count"},
       {"api.arena_bytes", layer["api.arena_bytes"], "B"},
       {"api.symbol_bytes", layer["api.symbol_bytes"], "B"},
       {"xpath.compile_us", layer["xpath.compile_us"], "us"},
       {"planner.plan_us", layer["planner.plan_us"], "us"},
       {"api.subscribe_us", layer["api.subscribe_us"], "us"},
       {"api.compact_ms", layer["api.compact_ms"], "ms"},
       {"api.eval_slots_per_sub", layer["api.eval_slots_per_sub"], "ratio"},
       {"pipeline.docs_per_s", layer["pipeline.docs_per_s"], "docs/s"},
       {"pipeline.submit_to_done_us_p50", layer["pipeline.submit_to_done_us_p50"],
        "us"},
       {"pipeline.quiesce_us", layer["pipeline.quiesce_us"], "us"},
       {"server.frames_per_doc", static_cast<double>(traced.push_frames) / docs,
        "count"},
       {"server.bytes_per_doc", static_cast<double>(traced.push_bytes) / docs, "B"},
       {"server.user_cpu_us_per_doc", traced.user_cpu_s * 1e6 / docs, "us"},
       {"server.sys_cpu_us_per_doc", traced.sys_cpu_s * 1e6 / docs, "us"},
       {"server.doc_ok_ms", Quantile(traced.doc_ok_ms, 0.5), "ms"},
       {"server.overhead_us_per_doc",
        Quantile(traced.latency_ms, 0.5) * 1e3 - layer["direct_filter_us_p50"],
        "us"},
       {"server.queue_peak", stat("queue_peak"), "count"},
       {"client.send_us", span("client.send"), "us"},
       {"client.ack_us", span("client.ack"), "us"},
       {"client.deliver_us", span("client.deliver"), "us"},
       {"loadgen.cpu_share", traced.loadgen_cpu_share, "ratio"},
       {"trace.overhead_pct", 100 * (plain_rate - traced_rate) / plain_rate, "%"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
