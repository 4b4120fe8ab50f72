#include "exec/reliable.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts::exec {

namespace {

constexpr std::uint32_t kMagic = 0x53505254u;  // "SPRT"

/// Trailer appended to every data frame, after the user payload.  A
/// trailer rather than a prefix so stripping it on receive is an O(1)
/// resize instead of a whole-payload memmove — the envelope's per-message
/// cost must stay negligible against the solver's panel-sized messages.
struct WireHeader {
  std::uint32_t magic;
  std::uint32_t kind;  ///< 0 = data
  std::uint64_t seq;
};

/// Full payload of a control-tag message.
struct CtrlMsg {
  std::uint32_t magic;
  std::uint32_t kind;  ///< 2 = nack, 3 = fin
  std::int32_t tag;    ///< the data tag the nack refers to
  std::uint32_t pad;
  std::uint64_t seq;
};

constexpr std::uint32_t kData = 0;
constexpr std::uint32_t kNack = 2;
constexpr std::uint32_t kFin = 3;

static_assert(std::is_trivially_copyable_v<WireHeader>);
static_assert(std::is_trivially_copyable_v<CtrlMsg>);

void record_instant(const char* name, index_t rank, index_t peer, int tag) {
  if (!obs::Tracer::enabled()) return;
  obs::Tracer::instance().record(static_cast<std::int32_t>(rank),
                                 obs::EventKind::instant, obs::Category::fault,
                                 name, obs::Tracer::instance().timeline(),
                                 static_cast<std::int64_t>(peer),
                                 static_cast<std::int64_t>(tag));
}

}  // namespace

ReliableConfig ReliableConfig::for_simulated() {
  ReliableConfig cfg;
  // T3D message latencies are ~1e-5 simulated seconds; a millisecond is
  // an eternity of simulated network time, so a clean run never NACKs.
  cfg.timeout = 1e-3;
  return cfg;
}

ReliableConfig ReliableConfig::for_threads() {
  ReliableConfig cfg;
  cfg.timeout = 0.05;
  return cfg;
}

ReliableConfig ReliableConfig::for_wire(double rtt_seconds) {
  ReliableConfig cfg;
  // A NACK round trip on a real wire costs one RTT plus scheduling
  // noise; 32x the smoothed heartbeat RTT keeps clean runs NACK-free
  // (localhost RTTs jitter by an order of magnitude under load) while
  // still reacting within tens of milliseconds on a LAN.  Clamped so a
  // pathological RTT sample can neither hammer the wire nor stall
  // recovery behind the failure detector's suspicion window.
  cfg.timeout = std::clamp(32.0 * rtt_seconds, 2e-3, 0.5);
  return cfg;
}

ReliableConfig& ReliableConfig::from_env() {
  if (const char* env = std::getenv("SPARTS_TIMEOUT_MS")) {
    const double ms = std::atof(env);
    if (ms > 0.0) timeout = ms / 1000.0;
  }
  if (const char* env = std::getenv("SPARTS_MAX_RETRY")) {
    const long n = std::atol(env);
    if (n >= 0) max_retry = static_cast<int>(n);
  }
  return *this;
}

std::string ReliableStats::summary() const {
  std::ostringstream oss;
  oss << data_sends << " data send(s), " << retransmits << " retransmit(s), "
      << dup_discarded << " duplicate(s) discarded, " << nacks_sent
      << " nack(s), " << timeouts
      << " timeout(s)";
  return oss.str();
}

// ---------------------------------------------------------------------------
// ReliableProcess
// ---------------------------------------------------------------------------

/// Per-rank envelope state; owned by the rank's thread, merged into the
/// backend under its mutex when the rank finishes or dies.
class ReliableBackend::ReliableProcess final : public ForwardingProcess {
 public:
  ReliableProcess(ReliableBackend* backend, Process& inner)
      : ForwardingProcess(inner),
        backend_(backend),
        cfg_(backend->config_) {
    tick_ = cfg_.poll_tick > 0.0 ? cfg_.poll_tick : cfg_.timeout / 16.0;
    if (cfg_.fin_timeout > 0.0) {
      fin_timeout_ = cfg_.fin_timeout;
    } else {
      // Full retry horizon of a peer still waiting on one of my messages:
      // it NACKs at timeout, timeout*backoff, ... (capped) — I must stay
      // around to service the last round or a tail drop becomes
      // unrecoverable.
      double horizon = 0.0, wait = cfg_.timeout;
      for (int i = 0; i <= cfg_.max_retry; ++i) {
        horizon += wait;
        wait = backed_off(wait);
      }
      fin_timeout_ = horizon + cfg_.timeout;
    }
  }

  void send(index_t dst, int tag,
            std::span<const std::byte> payload) override {
    SPARTS_CHECK(tag != kCtrlTag,
                 "the control tag is reserved for the reliability envelope");
    WireHeader h{kMagic, kData, next_seq_[{dst, tag}]++};
    std::vector<std::byte> wire(payload.size() + sizeof(WireHeader));
    if (!payload.empty()) {
      std::memcpy(wire.data(), payload.data(), payload.size());
    }
    std::memcpy(wire.data() + payload.size(), &h, sizeof(WireHeader));
    inner_.send(dst, tag, wire);
    ++stats_.data_sends;
    ++prog_.sends;
    buffer_.emplace(BufferKey{dst, tag, h.seq}, std::move(wire));
    service_ctrl();
  }

  ReceivedMessage recv(index_t src, int tag) override {
    SPARTS_CHECK(tag != kCtrlTag,
                 "the control tag is reserved for the reliability envelope");
    {
      std::ostringstream oss;
      oss << "src=";
      if (src == kAnySource) {
        oss << "any";
      } else {
        oss << src;
      }
      oss << " tag=" << tag;
      prog_.last_wait = oss.str();
    }
    double wait = cfg_.timeout;
    double waited = 0.0;
    int attempts = 0;
    for (;;) {
      service_ctrl();
      ReceivedMessage m;
      if (inner_.try_recv(src, tag, &m)) {
        WireHeader h;
        SPARTS_CHECK(m.payload.size() >= sizeof(WireHeader),
                     "reliable envelope: short data frame on tag " << tag);
        std::memcpy(&h,
                    m.payload.data() + m.payload.size() - sizeof(WireHeader),
                    sizeof(WireHeader));
        SPARTS_CHECK(h.magic == kMagic && h.kind == kData,
                     "reliable envelope: malformed data frame on tag "
                         << tag << " (was this sent outside the envelope?)");
        if (!delivered_[{m.source, tag}].insert(h.seq).second) {
          ++stats_.dup_discarded;
          ++prog_.dup_discarded;
          record_instant("dup_discarded", rank(), m.source, tag);
          continue;
        }
        ++prog_.recvs;
        prog_.last_wait.clear();
        m.payload.resize(m.payload.size() - sizeof(WireHeader));
        return m;
      }
      if (waited >= wait) {
        if (attempts >= cfg_.max_retry) {
          ++stats_.timeouts;
          record_instant("recv_timeout", rank(), src, tag);
          std::ostringstream oss;
          oss << "reliable envelope: rank " << rank()
              << " gave up waiting for " << prog_.last_wait << " after "
              << attempts << " retransmit request(s)";
          if (!prog_.note.empty()) oss << " (progress: " << prog_.note << ")";
          throw TimeoutError(oss.str());
        }
        ++attempts;
        send_nack(src, tag);
        waited = 0.0;
        wait = backed_off(wait);
      } else {
        inner_.poll_wait(tick_);
        waited += tick_;
      }
    }
  }

  void set_note(std::string note) { prog_.note = std::move(note); }

  /// The envelope at any depth of the decorator chain under `proc` (e.g.
  /// below the message audit); null when the rank runs without one.
  static ReliableProcess* find(Process& proc) {
    if (auto* rp = dynamic_cast<ReliableProcess*>(&proc)) return rp;
    const auto* layer = dynamic_cast<const ForwardingProcess*>(&proc);
    return layer != nullptr ? find(layer->inner()) : nullptr;
  }

  /// Post-body termination protocol: announce FIN, linger servicing
  /// retransmit requests until every peer announced theirs (bounded).
  void finish_body() {
    prog_.finished = true;
    if (nprocs() > 1) {
      CtrlMsg fin{kMagic, kFin, 0, 0, 0};
      for (index_t q = 0; q < nprocs(); ++q) {
        if (q != rank()) send_ctrl(q, fin);
      }
      double waited = 0.0;
      while (static_cast<index_t>(fins_.size()) < nprocs() - 1 &&
             waited < fin_timeout_) {
        // A serviced NACK proves a peer is still blocked on one of my
        // messages: restart the linger clock rather than abandoning it
        // mid-recovery.  (A crashed or absent peer sends no NACKs, so
        // the linger still expires in bounded time.)
        if (service_ctrl() > 0) waited = 0.0;
        if (static_cast<index_t>(fins_.size()) >= nprocs() - 1) break;
        inner_.poll_wait(tick_);
        waited += tick_;
      }
    }
  }

  void merge_into_backend() { backend_->merge(rank(), stats_, prog_); }

 private:
  using BufferKey = std::tuple<index_t, int, std::uint64_t>;

  /// Next NACK wait: exponential, capped at timeout * backoff_cap so the
  /// late rounds stay evenly spaced (see ReliableConfig::backoff_cap).
  double backed_off(double wait) const {
    wait *= cfg_.backoff;
    if (cfg_.backoff_cap > 1.0) {
      wait = std::min(wait, cfg_.timeout * cfg_.backoff_cap);
    }
    return wait;
  }

  void send_ctrl(index_t dst, const CtrlMsg& c) {
    inner_.send(dst, kCtrlTag,
                {reinterpret_cast<const std::byte*>(&c), sizeof(CtrlMsg)});
  }

  void send_nack(index_t src, int tag) {
    const CtrlMsg nack{kMagic, kNack, tag, 0, 0};
    ++stats_.nacks_sent;
    record_instant("nack", rank(), src, tag);
    if (src == kAnySource) {
      // Wildcard recv: the sender is unknown, so ask everyone; peers with
      // nothing buffered on this (dst, tag) edge ignore it.
      for (index_t q = 0; q < nprocs(); ++q) {
        if (q != rank()) send_ctrl(q, nack);
      }
    } else {
      send_ctrl(src, nack);
    }
  }

  /// Drain and act on pending control messages; never blocks.  Returns
  /// the number of NACKs serviced, so the FIN linger can tell whether a
  /// peer still actively needs this rank.
  int service_ctrl() {
    int nacks = 0;
    ReceivedMessage m;
    while (inner_.try_recv(kAnySource, kCtrlTag, &m)) {
      CtrlMsg c;
      SPARTS_CHECK(m.payload.size() == sizeof(CtrlMsg),
                   "reliable envelope: malformed control message");
      std::memcpy(&c, m.payload.data(), sizeof(CtrlMsg));
      SPARTS_CHECK(c.magic == kMagic,
                   "reliable envelope: bad control-message magic");
      switch (c.kind) {
        case kNack:
          retransmit(m.source, c.tag);
          ++nacks;
          break;
        case kFin:
          fins_.insert(m.source);
          break;
        default:
          throw Error("reliable envelope: unknown control kind " +
                      std::to_string(c.kind));
      }
    }
    return nacks;
  }

  /// Resend every frame previously sent to `dst` on `tag`.
  void retransmit(index_t dst, int tag) {
    auto it = buffer_.lower_bound(BufferKey{dst, tag, 0});
    for (; it != buffer_.end(); ++it) {
      const auto& [key_dst, key_tag, key_seq] = it->first;
      if (key_dst != dst || key_tag != tag) break;
      inner_.send(dst, tag, it->second);
      ++stats_.retransmits;
      ++prog_.retransmits;
      record_instant("retransmit", rank(), dst, tag);
    }
  }

  ReliableBackend* backend_;
  const ReliableConfig cfg_;
  double tick_ = 0.0;
  double fin_timeout_ = 0.0;

  std::map<std::pair<index_t, int>, std::uint64_t> next_seq_;
  std::map<BufferKey, std::vector<std::byte>> buffer_;
  std::map<std::pair<index_t, int>, std::set<std::uint64_t>> delivered_;
  std::set<index_t> fins_;
  ReliableStats stats_;
  RankProgress prog_;
};

// ---------------------------------------------------------------------------
// ReliableBackend
// ---------------------------------------------------------------------------

ReliableBackend::ReliableBackend(std::unique_ptr<Comm> inner,
                                 ReliableConfig config)
    : ForwardingComm(std::move(inner)), config_(config) {
  SPARTS_CHECK(config_.timeout > 0.0, "envelope timeout must be positive");
  SPARTS_CHECK(config_.backoff >= 1.0, "envelope backoff must be >= 1");
  SPARTS_CHECK(config_.max_retry >= 0, "envelope max_retry must be >= 0");
}

ReliableBackend::~ReliableBackend() = default;

void ReliableBackend::merge(index_t rank, const ReliableStats& stats,
                            const RankProgress& prog) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.data_sends += stats.data_sends;
  stats_.retransmits += stats.retransmits;
  stats_.dup_discarded += stats.dup_discarded;
  stats_.nacks_sent += stats.nacks_sent;
  stats_.timeouts += stats.timeouts;
  progress_[static_cast<std::size_t>(rank)] = prog;
  if (obs::metrics_enabled()) {
    auto& m = obs::metrics();
    m.counter("reliable.data_sends").add(stats.data_sends);
    m.counter("reliable.retransmits").add(stats.retransmits);
    m.counter("reliable.dup_discarded").add(stats.dup_discarded);
    m.counter("reliable.nacks").add(stats.nacks_sent);
    m.counter("reliable.timeouts").add(stats.timeouts);
  }
}

std::string ReliableBackend::progress_report() const {
  std::ostringstream oss;
  oss << "per-rank progress:";
  for (std::size_t r = 0; r < progress_.size(); ++r) {
    const RankProgress& pr = progress_[r];
    oss << "\n  rank " << r << ": " << pr.sends << " send(s), " << pr.recvs
        << " recv(s), " << pr.retransmits << " retransmit(s), "
        << pr.dup_discarded << " dup(s) discarded, "
        << (pr.finished ? "finished" : "did not finish");
    if (!pr.last_wait.empty()) oss << ", blocked on " << pr.last_wait;
    if (!pr.note.empty()) oss << ", at " << pr.note;
  }
  return oss.str();
}

RunStats ReliableBackend::run(const std::function<void(Process&)>& spmd) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = ReliableStats{};
    progress_.assign(static_cast<std::size_t>(inner_->nprocs()),
                     RankProgress{});
  }
  ReliableBackend* self = this;
  try {
    return inner_->run([self, &spmd](Process& p) {
      ReliableProcess rp(self, p);
      try {
        spmd(rp);
        rp.finish_body();
      } catch (...) {
        rp.merge_into_backend();
        throw;
      }
      rp.merge_into_backend();
    });
  } catch (const TimeoutError& e) {
    // Deadline-based abort: enrich with the per-rank progress snapshot so
    // the caller sees where every rank was, then let the solver turn it
    // into a structured SolveError.
    throw TimeoutError(std::string(e.what()) + "\n" + progress_report());
  }
}

void note_progress(Process& proc, const std::string& note) {
  if (auto* rp = ReliableBackend::ReliableProcess::find(proc)) {
    rp->set_note(note);
  }
}

ProgressNotes::ProgressNotes(Process& proc)
    : envelope_(ReliableBackend::ReliableProcess::find(proc)) {}

void ProgressNotes::set(const char* what, index_t id) const {
  envelope_->set_note(std::string(what) + " " + std::to_string(id));
}

}  // namespace sparts::exec
