#include "exec/checked_backend.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"

namespace sparts::exec {

namespace {

/// A vector clock: one logical-event counter per rank.
using Clock = std::vector<std::uint64_t>;

/// Componentwise a <= b.
bool clock_leq(const Clock& a, const Clock& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

/// Two events are concurrent iff their clocks are incomparable.
bool clock_concurrent(const Clock& a, const Clock& b) {
  return !clock_leq(a, b) && !clock_leq(b, a);
}

}  // namespace

const char* to_string(Finding::Kind kind) {
  switch (kind) {
    case Finding::Kind::wildcard_race:
      return "wildcard-race";
    case Finding::Kind::tag_collision:
      return "tag-collision";
    case Finding::Kind::orphaned_send:
      return "orphaned-send";
    case Finding::Kind::deadlock_cycle:
      return "deadlock-cycle";
  }
  return "unknown";
}

std::int64_t AnalysisReport::count(Finding::Kind kind) const {
  std::int64_t total = 0;
  for (const Finding& f : findings) {
    if (f.kind == kind) total += f.count;
  }
  return total;
}

std::string AnalysisReport::summary() const {
  std::ostringstream oss;
  oss << "checked backend: " << findings.size() << " finding kind(s) over "
      << sends << " send(s), " << recvs << " recv(s) (" << wildcard_recvs
      << " wildcard)";
  if (findings_truncated) oss << " [finding table truncated]";
  if (history_truncated) oss << " [race history truncated]";
  for (const Finding& f : findings) {
    oss << "\n  [" << to_string(f.kind) << "] x" << f.count << ": " << f.detail;
  }
  return oss.str();
}

/// All mutable checker state for one run(), guarded by one mutex.  The
/// simulator calls in from a single thread; the threaded backend from p
/// threads.  Serializing the bookkeeping is fine — this backend trades
/// throughput for diagnostics by design.
struct CheckedBackend::Checker {
  /// One in-flight send on an edge: the sender's clock right after the
  /// send event, for the happens-before race pass.
  struct SendRecord {
    Clock clock;
    std::size_t bytes = 0;
  };

  /// A recv(kAnySource) that matched: replayed against the send history
  /// in the post-run race pass.
  struct WildcardMatch {
    index_t dst = -1;
    int tag = 0;
    index_t matched_src = -1;
    Clock matched_clock;
    double ts = -1.0;  ///< backend-local clock of the match
  };

  using EdgeKey = std::tuple<index_t, index_t, int>;  ///< (src, dst, tag)
  using SinkKey = std::pair<index_t, int>;            ///< (dst, tag)

  explicit Checker(index_t nprocs, const Options& opts)
      : options(opts),
        p(static_cast<std::size_t>(nprocs)),
        clocks(p, Clock(p, 0)),
        traces(p),
        blocked_on(p) {}

  Options options;
  std::size_t p;
  std::mutex mutex;

  std::vector<Clock> clocks;
  /// In-flight sends per edge, FIFO.  Front is what the backend matches.
  std::map<EdgeKey, std::deque<SendRecord>> pending;
  /// How many in-flight sends per (dst, tag), broken down by source —
  /// the online wildcard-race check scans this at match time.
  std::map<SinkKey, std::map<index_t, std::int64_t>> pending_sources;
  /// Every send ever made to (dst, tag), for the post-run race pass.
  std::map<SinkKey, std::vector<std::pair<index_t, Clock>>> history;
  std::size_t history_size = 0;
  std::vector<WildcardMatch> wildcard_matches;

  /// Per-rank ring buffer of recent operations (deadlock context).
  std::vector<std::deque<std::string>> traces;
  /// (src, tag) each rank is currently blocked on, if any.
  std::vector<std::optional<std::pair<index_t, int>>> blocked_on;
  bool deadlock_analyzed = false;
  std::string deadlock_context;

  std::map<std::tuple<Finding::Kind, index_t, index_t, int>, Finding> findings;
  AnalysisReport report;

  /// `ts` is the reporting rank's backend-local clock at detection time,
  /// or a negative value when no rank clock applies (post-run passes);
  /// those findings land at the current end of the trace timeline.
  void record(Finding::Kind kind, index_t src, index_t dst, int tag,
              const std::string& detail, double ts = -1.0) {
    if (obs::Tracer::enabled()) {
      auto& tracer = obs::Tracer::instance();
      const double when =
          ts >= 0.0 ? tracer.to_timeline(ts) : tracer.timeline();
      tracer.record(static_cast<std::int32_t>(dst), obs::EventKind::instant,
                    obs::Category::check, to_string(kind), when,
                    static_cast<std::int64_t>(src),
                    static_cast<std::int64_t>(tag));
    }
    // Always-on: the finding also lands in the flight recorder, so a
    // postmortem dump interleaves findings with the msgpath events that
    // led up to them.
    obs::flight_note(static_cast<std::int32_t>(dst), to_string(kind),
                     static_cast<std::int64_t>(src),
                     static_cast<std::int64_t>(tag));
    auto key = std::make_tuple(kind, src, dst, tag);
    auto it = findings.find(key);
    if (it != findings.end()) {
      ++it->second.count;
      return;
    }
    if (findings.size() >= options.max_findings) {
      report.findings_truncated = true;
      return;
    }
    findings.emplace(key, Finding{kind, src, dst, tag, 1, detail});
  }

  void trace(index_t rank, std::string line) {
    auto& t = traces[static_cast<std::size_t>(rank)];
    if (t.size() >= options.trace_depth) t.pop_front();
    t.push_back(std::move(line));
  }

  void on_send(index_t rank, index_t dst, int tag, std::size_t bytes,
               double ts = -1.0) {
    std::lock_guard<std::mutex> lock(mutex);
    Clock& c = clocks[static_cast<std::size_t>(rank)];
    ++c[static_cast<std::size_t>(rank)];
    ++report.sends;

    EdgeKey edge{rank, dst, tag};
    auto& fifo = pending[edge];
    if (!fifo.empty()) {
      std::ostringstream oss;
      oss << "rank " << rank << " sent to rank " << dst << " with tag " << tag
          << " while " << fifo.size()
          << " earlier message(s) on the same (src, dst, tag) edge were "
             "still in flight; the tag no longer identifies a unique message";
      record(Finding::Kind::tag_collision, rank, dst, tag, oss.str(), ts);
    }
    fifo.push_back(SendRecord{c, bytes});
    ++pending_sources[SinkKey{dst, tag}][rank];

    if (history_size < options.max_history) {
      history[SinkKey{dst, tag}].emplace_back(rank, c);
      ++history_size;
    } else {
      report.history_truncated = true;
    }

    std::ostringstream oss;
    oss << "send dst=" << dst << " tag=" << tag << " bytes=" << bytes;
    trace(rank, oss.str());
  }

  void on_recv_blocked(index_t rank, index_t src, int tag) {
    std::lock_guard<std::mutex> lock(mutex);
    blocked_on[static_cast<std::size_t>(rank)] = {src, tag};
    std::ostringstream oss;
    oss << "recv-wait src=";
    if (src == kAnySource) {
      oss << "any";
    } else {
      oss << src;
    }
    oss << " tag=" << tag;
    trace(rank, oss.str());
  }

  void on_recv_matched(index_t rank, index_t requested_src, int tag,
                       index_t actual_src, std::size_t bytes,
                       double ts = -1.0) {
    std::lock_guard<std::mutex> lock(mutex);
    blocked_on[static_cast<std::size_t>(rank)].reset();
    ++report.recvs;

    EdgeKey edge{actual_src, rank, tag};
    auto it = pending.find(edge);
    SPARTS_CHECK(it != pending.end() && !it->second.empty(),
                 "checked backend: recv matched a message the checker never "
                 "saw sent (src="
                     << actual_src << ", dst=" << rank << ", tag=" << tag
                     << ")");
    SendRecord rec = std::move(it->second.front());
    it->second.pop_front();
    if (it->second.empty()) pending.erase(it);

    SinkKey sink{rank, tag};
    auto ps = pending_sources.find(sink);
    if (ps != pending_sources.end()) {
      auto src_it = ps->second.find(actual_src);
      if (src_it != ps->second.end() && --src_it->second <= 0) {
        ps->second.erase(src_it);
      }
      if (requested_src == kAnySource) {
        // Online race check: another source's message is matchable right
        // now, so the backend's pick decided the outcome.
        for (const auto& [other_src, n] : ps->second) {
          if (other_src == actual_src || n <= 0) continue;
          std::ostringstream oss;
          oss << "rank " << rank << " recv(kAnySource, tag=" << tag
              << ") matched rank " << actual_src << " while a message from "
              << "rank " << other_src
              << " with the same tag was also pending; the match is "
                 "schedule-dependent";
          record(Finding::Kind::wildcard_race, other_src, rank, tag,
                 oss.str(), ts);
        }
      }
      if (ps->second.empty()) pending_sources.erase(ps);
    }

    if (requested_src == kAnySource) {
      ++report.wildcard_recvs;
      wildcard_matches.push_back(
          WildcardMatch{rank, tag, actual_src, rec.clock, ts});
    }

    // Receive event: tick own component, then join the sender's clock.
    Clock& c = clocks[static_cast<std::size_t>(rank)];
    ++c[static_cast<std::size_t>(rank)];
    for (std::size_t i = 0; i < p; ++i) {
      c[i] = std::max(c[i], rec.clock[i]);
    }

    std::ostringstream oss;
    oss << "recv src=" << actual_src << " tag=" << tag << " bytes=" << bytes;
    trace(rank, oss.str());
  }

  /// Called when the inner backend throws DeadlockError out of recv():
  /// snapshot the wait-for graph once and look for a cycle.
  void on_deadlock(index_t rank) {
    std::lock_guard<std::mutex> lock(mutex);
    if (deadlock_analyzed) return;
    deadlock_analyzed = true;

    std::ostringstream ctx;
    ctx << "wait-for snapshot at first deadlock report (rank " << rank
        << " threw):";
    for (std::size_t r = 0; r < p; ++r) {
      ctx << "\n  rank " << r << ": ";
      if (blocked_on[r].has_value()) {
        auto [src, tag] = *blocked_on[r];
        ctx << "blocked in recv(src=";
        if (src == kAnySource) {
          ctx << "any";
        } else {
          ctx << src;
        }
        ctx << ", tag=" << tag << ")";
      } else {
        ctx << "not blocked";
      }
      for (const std::string& line : traces[r]) {
        ctx << "\n    recent: " << line;
      }
    }
    deadlock_context = ctx.str();

    // Each blocked rank waits on at most one concrete source, so the
    // wait-for graph is functional; a stamped walk finds any cycle.
    std::vector<int> mark(p, 0);
    int stamp = 0;
    for (std::size_t start = 0; start < p; ++start) {
      if (mark[start] != 0) continue;
      ++stamp;
      std::size_t r = start;
      std::vector<std::size_t> path;
      while (mark[r] == 0 && blocked_on[r].has_value() &&
             blocked_on[r]->first != kAnySource) {
        mark[r] = stamp;
        path.push_back(r);
        r = static_cast<std::size_t>(blocked_on[r]->first);
      }
      if (mark[r] == stamp) {
        // Walked back into this walk: the suffix of `path` from r is a
        // genuine cycle of ranks each waiting on the next.
        auto cycle_begin = std::find(path.begin(), path.end(), r);
        std::ostringstream oss;
        oss << "deadlock cycle: ";
        for (auto it = cycle_begin; it != path.end(); ++it) {
          auto [src, tag] = *blocked_on[*it];
          oss << "rank " << *it << " waits on rank " << src << " (tag " << tag
              << ") -> ";
        }
        oss << "rank " << r;
        const index_t member = static_cast<index_t>(*cycle_begin);
        record(Finding::Kind::deadlock_cycle, member, member,
               blocked_on[*cycle_begin]->second, oss.str());
        for (auto it = cycle_begin; it != path.end(); ++it) mark[*it] = -1;
      }
      for (std::size_t q : path) {
        if (mark[q] == stamp) mark[q] = -1;
      }
      if (mark[r] == 0) mark[r] = -1;
    }
  }

  /// Post-run work: orphaned sends and the happens-before race pass.
  void finalize() {
    std::lock_guard<std::mutex> lock(mutex);

    for (const auto& [edge, fifo] : pending) {
      if (fifo.empty()) continue;
      auto [src, dst, tag] = edge;
      std::ostringstream oss;
      oss << fifo.size() << " message(s) from rank " << src << " to rank "
          << dst << " with tag " << tag
          << " were sent but never received";
      record(Finding::Kind::orphaned_send, src, dst, tag, oss.str());
      // record() dedups on the edge; fold the in-flight count in directly.
      auto it = findings.find(
          std::make_tuple(Finding::Kind::orphaned_send, src, dst, tag));
      if (it != findings.end()) {
        it->second.count = static_cast<std::int64_t>(fifo.size());
      }
    }

    // Happens-before pass: a wildcard match races with any send of the
    // same (dst, tag) from a different source whose clock is concurrent
    // with the matched send's.  A later send ordered after the recv has
    // joined the matched clock and is filtered out by the comparison.
    for (const WildcardMatch& m : wildcard_matches) {
      auto it = history.find(SinkKey{m.dst, m.tag});
      if (it == history.end()) continue;
      for (const auto& [src, clock] : it->second) {
        if (src == m.matched_src) continue;
        if (!clock_concurrent(clock, m.matched_clock)) continue;
        std::ostringstream oss;
        oss << "rank " << m.dst << " recv(kAnySource, tag=" << m.tag
            << ") matched rank " << m.matched_src << ", but a send from rank "
            << src
            << " with the same tag is concurrent with the matched send "
               "(vector clocks incomparable); another schedule can deliver "
               "the other message first";
        record(Finding::Kind::wildcard_race, src, m.dst, m.tag, oss.str(),
               m.ts);
      }
    }

    report.findings.reserve(findings.size());
    for (auto& [key, f] : findings) {
      report.findings.push_back(std::move(f));
    }
  }
};

/// Per-rank Process decorator: tells the checker about message traffic.
class CheckedBackend::CheckedProcess final : public ForwardingProcess {
 public:
  CheckedProcess(Checker* checker, Process& inner)
      : ForwardingProcess(inner), checker_(checker) {}

  void send(index_t dst, int tag, std::span<const std::byte> payload) override {
    // Control-plane traffic (reliability envelope nacks/fins, when the
    // audit sits below the envelope) is at-least-once by design; auditing
    // it against the solver's unique-tag discipline would only produce
    // noise.  Data is recorded before forwarding so the receiver always
    // finds the record.
    if (tag != kCtrlTag) {
      const double ts = obs::Tracer::enabled() ? inner_.now() : -1.0;
      checker_->on_send(inner_.rank(), dst, tag, payload.size(), ts);
    }
    inner_.send(dst, tag, payload);
  }

  ReceivedMessage recv(index_t src, int tag) override {
    const index_t self = inner_.rank();
    if (tag == kCtrlTag) return inner_.recv(src, tag);
    checker_->on_recv_blocked(self, src, tag);
    ReceivedMessage msg;
    try {
      msg = inner_.recv(src, tag);
    } catch (const DeadlockError&) {
      checker_->on_deadlock(self);
      throw;
    }
    const double ts = obs::Tracer::enabled() ? inner_.now() : -1.0;
    checker_->on_recv_matched(self, src, tag, msg.source, msg.payload.size(),
                              ts);
    return msg;
  }

  bool try_recv(index_t src, int tag, ReceivedMessage* out) override {
    if (!inner_.try_recv(src, tag, out)) return false;
    if (tag != kCtrlTag) {
      const double ts = obs::Tracer::enabled() ? inner_.now() : -1.0;
      checker_->on_recv_matched(inner_.rank(), src, tag, out->source,
                                out->payload.size(), ts);
    }
    return true;
  }

 private:
  Checker* checker_;
};

CheckedBackend::CheckedBackend(Comm& inner)
    : CheckedBackend(inner, Options{}) {}

CheckedBackend::CheckedBackend(Comm& inner, Options options)
    : ForwardingComm(inner), options_(options) {}

CheckedBackend::CheckedBackend(std::unique_ptr<Comm> inner)
    : CheckedBackend(std::move(inner), Options{}) {}

CheckedBackend::CheckedBackend(std::unique_ptr<Comm> inner, Options options)
    : ForwardingComm(std::move(inner)), options_(options) {}

CheckedBackend::~CheckedBackend() = default;

RunStats CheckedBackend::run(const std::function<void(Process&)>& spmd) {
  checker_ = std::make_unique<Checker>(inner_->nprocs(), options_);
  Checker* checker = checker_.get();

  RunStats stats;
  std::exception_ptr error;
  try {
    stats = inner_->run([checker, &spmd](Process& p) {
      CheckedProcess cp(checker, p);
      spmd(cp);
    });
  } catch (...) {
    error = std::current_exception();
  }

  checker_->finalize();
  report_ = std::move(checker_->report);
  const std::string deadlock_context = std::move(checker_->deadlock_context);
  checker_.reset();

  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const DeadlockError& e) {
      // Re-raise with the checker's wait-for analysis attached.
      std::ostringstream oss;
      oss << e.what();
      for (const Finding& f : report_.findings) {
        if (f.kind == Finding::Kind::deadlock_cycle) {
          oss << "\n" << f.detail;
        }
      }
      if (!deadlock_context.empty()) oss << "\n" << deadlock_context;
      throw DeadlockError(oss.str());
    }
    // Not a deadlock: surface the root cause unchanged.
  }

  if (options_.throw_on_findings && !report_.clean()) {
    // Attach the flight recorder's recent-event window: the findings plus
    // the msgpath traffic around them, without needing a trace file.
    std::string what = report_.summary();
    const std::string dump = obs::FlightRecorder::instance().dump_text();
    if (!dump.empty()) what += "\n" + dump;
    throw AnalysisError(what);
  }
  return stats;
}

}  // namespace sparts::exec
