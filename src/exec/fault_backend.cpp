#include "exec/fault_backend.hpp"

#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts::exec {

namespace {

/// splitmix64: the standard 64-bit finalizer-style mixer.  Good enough to
/// turn (seed, rank, counter) into independent uniform draws.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform draw in [0, 1) from the plan seed and a per-message identity.
double u01(std::uint64_t seed, index_t rank, std::int64_t counter) {
  const std::uint64_t h =
      mix64(seed ^ mix64(static_cast<std::uint64_t>(rank) * 0x100000001b3ULL +
                         static_cast<std::uint64_t>(counter)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double parse_double(const std::string& key, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return d;
  } catch (const std::exception&) {
    throw InvalidArgument("FaultPlan: bad numeric value for " + key + ": " +
                          v);
  }
}

std::int64_t parse_int(const std::string& key, const std::string& v) {
  try {
    std::size_t pos = 0;
    const long long i = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return static_cast<std::int64_t>(i);
  } catch (const std::exception&) {
    throw InvalidArgument("FaultPlan: bad integer value for " + key + ": " +
                          v);
  }
}

double parse_prob(const std::string& key, const std::string& v) {
  const double p = parse_double(key, v);
  if (p < 0.0 || p > 1.0) {
    throw InvalidArgument("FaultPlan: " + key + " must be in [0, 1], got " +
                          v);
  }
  return p;
}

void record_fault(const char* name, index_t rank, index_t peer, int tag) {
  // Always on: the simulator records no transport events of its own, so
  // these are all a simulated crash's postmortem has to show.
  obs::flight_note(static_cast<std::int32_t>(rank), name, peer, tag);
  if (obs::metrics_enabled()) {
    obs::metrics().counter(std::string("faults.injected.") + name).add();
  }
  if (obs::Tracer::enabled()) {
    obs::Tracer::instance().record(static_cast<std::int32_t>(rank),
                                   obs::EventKind::instant,
                                   obs::Category::fault, name,
                                   obs::Tracer::instance().timeline(),
                                   static_cast<std::int64_t>(peer),
                                   static_cast<std::int64_t>(tag));
  }
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::istringstream in(spec);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument("FaultPlan: expected key=value, got: " + item);
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(parse_int(key, value));
    } else if (key == "drop") {
      plan.drop = parse_prob(key, value);
    } else if (key == "dup") {
      plan.dup = parse_prob(key, value);
    } else if (key == "delay") {
      const auto colon = value.find(':');
      if (colon == std::string::npos) {
        throw InvalidArgument("FaultPlan: delay expects prob:seconds, got: " +
                              value);
      }
      plan.delay_prob = parse_prob(key, value.substr(0, colon));
      plan.delay_seconds = parse_double(key, value.substr(colon + 1));
      if (plan.delay_seconds < 0.0) {
        throw InvalidArgument("FaultPlan: delay seconds must be >= 0");
      }
    } else if (key == "reorder") {
      plan.reorder = parse_prob(key, value);
    } else if (key == "stall") {
      const auto at = value.find('@');
      if (at == std::string::npos) {
        throw InvalidArgument("FaultPlan: stall expects rank@seconds, got: " +
                              value);
      }
      plan.stall_rank = static_cast<index_t>(
          parse_int(key, value.substr(0, at)));
      plan.stall_seconds = parse_double(key, value.substr(at + 1));
      if (plan.stall_seconds < 0.0) {
        throw InvalidArgument("FaultPlan: stall seconds must be >= 0");
      }
    } else if (key == "crash") {
      const auto at = value.find('@');
      if (at == std::string::npos) {
        throw InvalidArgument(
            "FaultPlan: crash expects rank@op-count, got: " + value);
      }
      plan.crash_rank = static_cast<index_t>(
          parse_int(key, value.substr(0, at)));
      plan.crash_after = parse_int(key, value.substr(at + 1));
    } else if (key == "max_faults") {
      plan.max_faults = parse_int(key, value);
    } else {
      throw InvalidArgument("FaultPlan: unknown key: " + key);
    }
  }
  if (plan.drop + plan.dup + plan.delay_prob + plan.reorder > 1.0) {
    throw InvalidArgument(
        "FaultPlan: drop+dup+delay+reorder probabilities exceed 1");
  }
  return plan;
}

std::string FaultPlan::summary() const {
  std::ostringstream oss;
  oss << "seed=" << seed;
  if (drop > 0.0) oss << " drop=" << drop;
  if (dup > 0.0) oss << " dup=" << dup;
  if (delay_prob > 0.0) {
    oss << " delay=" << delay_prob << ":" << delay_seconds << "s";
  }
  if (reorder > 0.0) oss << " reorder=" << reorder;
  if (stall_rank >= 0) {
    oss << " stall=rank" << stall_rank << "@" << stall_seconds << "s";
  }
  if (crash_rank >= 0) {
    oss << " crash=rank" << crash_rank << "@op" << crash_after;
  }
  if (max_faults >= 0) oss << " max_faults=" << max_faults;
  return oss.str();
}

std::string FaultStats::summary() const {
  std::ostringstream oss;
  oss << "injected " << injected() << " fault(s): " << drops << " drop(s), "
      << dups << " dup(s), " << delays << " delay(s), " << reorders
      << " reorder(s), " << stalls << " stall(s), " << crashes
      << " crash(es)";
  return oss.str();
}

// ---------------------------------------------------------------------------
// FaultyProcess
// ---------------------------------------------------------------------------

/// Per-rank Process decorator.  All state is owned by the rank's thread;
/// the backend only reads the stats after merge() under its mutex.
class FaultyBackend::FaultyProcess final : public ForwardingProcess {
 public:
  FaultyProcess(FaultyBackend* backend, Process& inner)
      : ForwardingProcess(inner), backend_(backend), plan_(backend->plan_) {}

  void send(index_t dst, int tag,
            std::span<const std::byte> payload) override {
    on_operation();
    release_due(now());
    const double r = budget_left()
                         ? u01(plan_.seed, rank(), sends_++)
                         : 2.0;  // > any cumulative probability: no fault
    if (r < plan_.drop) {
      ++stats_.drops;
      record_fault("drop", rank(), dst, tag);
      release_reorder_slot();
      return;
    }
    if (r < plan_.drop + plan_.dup) {
      ++stats_.dups;
      record_fault("dup", rank(), dst, tag);
      inner_.send(dst, tag, payload);
      inner_.send(dst, tag, payload);
      release_reorder_slot();
      return;
    }
    if (r < plan_.drop + plan_.dup + plan_.delay_prob) {
      ++stats_.delays;
      record_fault("delay", rank(), dst, tag);
      held_.push_back(Held{dst, tag, now() + plan_.delay_seconds,
                           std::vector<std::byte>(payload.begin(),
                                                  payload.end())});
      return;
    }
    if (r < plan_.drop + plan_.dup + plan_.delay_prob + plan_.reorder &&
        !reorder_slot_.has_value()) {
      ++stats_.reorders;
      record_fault("reorder", rank(), dst, tag);
      reorder_slot_ = Held{dst, tag, 0.0,
                           std::vector<std::byte>(payload.begin(),
                                                  payload.end())};
      return;
    }
    inner_.send(dst, tag, payload);
    // A message was waiting to be overtaken: it goes out after this one,
    // completing the swap.
    release_reorder_slot();
  }

  ReceivedMessage recv(index_t src, int tag) override {
    on_operation();
    // A blocking recv may wait on a peer that in turn waits on one of our
    // held messages; release everything rather than risk a deadlock the
    // plan did not ask for.
    release_all();
    return inner_.recv(src, tag);
  }

  bool try_recv(index_t src, int tag, ReceivedMessage* out) override {
    release_due(now());
    return inner_.try_recv(src, tag, out);
  }

  void poll_wait(double seconds) override {
    inner_.poll_wait(seconds);
    release_due(now());
  }

  /// End-of-body flush: anything still held goes out so a fault plan can
  /// delay but never silently un-send a message the plan said to deliver.
  void finish() { release_all(); }

  const FaultStats& stats() const { return stats_; }

 private:
  struct Held {
    index_t dst;
    int tag;
    double release_at;
    std::vector<std::byte> payload;
  };

  bool budget_left() const {
    return plan_.max_faults < 0 ||
           stats_.drops + stats_.dups + stats_.delays + stats_.reorders <
               plan_.max_faults;
  }

  /// Crash/stall triggers, checked at every send/recv operation.
  void on_operation() {
    ++ops_;
    if (plan_.stall_rank == rank() && !stalled_ &&
        ops_ >= plan_.stall_after) {
      stalled_ = true;
      ++stats_.stalls;
      record_fault("stall", rank(), rank(), 0);
      inner_.poll_wait(plan_.stall_seconds);
    }
    if (plan_.crash_rank == rank() && ops_ >= plan_.crash_after) {
      ++stats_.crashes;
      record_fault("crash", rank(), rank(), 0);
      backend_->merge(stats_);
      stats_ = FaultStats{};  // merged; don't double-count in finish path
      throw InjectedFault(
          "injected crash on rank " + std::to_string(rank()) + " after " +
          std::to_string(ops_) + " operations (fault plan: " +
          plan_.summary() + ")");
    }
  }

  void release_due(double time_now) {
    for (std::size_t i = 0; i < held_.size();) {
      if (held_[i].release_at <= time_now) {
        inner_.send(held_[i].dst, held_[i].tag, held_[i].payload);
        held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  void release_reorder_slot() {
    if (!reorder_slot_.has_value()) return;
    inner_.send(reorder_slot_->dst, reorder_slot_->tag,
                reorder_slot_->payload);
    reorder_slot_.reset();
  }

  void release_all() {
    release_reorder_slot();
    for (const Held& h : held_) inner_.send(h.dst, h.tag, h.payload);
    held_.clear();
  }

  FaultyBackend* backend_;
  const FaultPlan plan_;
  FaultStats stats_;
  std::int64_t ops_ = 0;
  std::int64_t sends_ = 0;
  bool stalled_ = false;
  std::vector<Held> held_;
  std::optional<Held> reorder_slot_;
};

// ---------------------------------------------------------------------------
// FaultyBackend
// ---------------------------------------------------------------------------

FaultyBackend::FaultyBackend(std::unique_ptr<Comm> inner, FaultPlan plan)
    : ForwardingComm(std::move(inner)), plan_(plan) {
  if (plan_.crash_rank >= 0) {
    SPARTS_CHECK(plan_.crash_rank < inner_->nprocs(),
                 "FaultPlan crash rank " << plan_.crash_rank
                                         << " out of range");
  }
  if (plan_.stall_rank >= 0) {
    SPARTS_CHECK(plan_.stall_rank < inner_->nprocs(),
                 "FaultPlan stall rank " << plan_.stall_rank
                                         << " out of range");
  }
}

FaultyBackend::~FaultyBackend() = default;

void FaultyBackend::merge(const FaultStats& rank_stats) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.drops += rank_stats.drops;
  stats_.dups += rank_stats.dups;
  stats_.delays += rank_stats.delays;
  stats_.reorders += rank_stats.reorders;
  stats_.stalls += rank_stats.stalls;
  stats_.crashes += rank_stats.crashes;
}

RunStats FaultyBackend::run(const std::function<void(Process&)>& spmd) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_ = FaultStats{};
  }
  FaultyBackend* self = this;
  return inner_->run([self, &spmd](Process& p) {
    FaultyProcess fp(self, p);
    try {
      spmd(fp);
      fp.finish();
    } catch (...) {
      self->merge(fp.stats());
      throw;
    }
    self->merge(fp.stats());
  });
}

}  // namespace sparts::exec
