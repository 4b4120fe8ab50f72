#include "obs/phase.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts::obs {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

void write_escaped(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

struct PhaseProfiler::OpenPhase {
  std::string name;
  double timeline_start = 0.0;
  SteadyClock::time_point wall_start;
  /// Interned copy of `name` for trace events: the tracer stores name
  /// pointers, so the string must outlive the run.  Phase names come from
  /// a small fixed vocabulary, so interning is bounded.
  const char* interned = nullptr;
};

// Interning table: trace events hold name pointers until export, which
// may happen after the profiler is cleared, so interned names live for
// the process lifetime.  Phase names come from a small fixed vocabulary.
namespace {
const char* intern_phase_name(const std::string& name) {
  static std::vector<std::unique_ptr<std::string>> table;
  for (const auto& s : table) {
    if (*s == name) return s->c_str();
  }
  table.push_back(std::make_unique<std::string>(name));
  return table.back()->c_str();
}
}  // namespace

PhaseProfiler& PhaseProfiler::instance() {
  static PhaseProfiler profiler;
  return profiler;
}

void PhaseProfiler::begin(const std::string& name) {
  OpenPhase open;
  open.name = name;
  open.timeline_start = Tracer::instance().timeline();
  open.wall_start = SteadyClock::now();
  open.interned = intern_phase_name(name);
  Tracer::instance().record(kHostTrack, EventKind::span_begin,
                            Category::phase, open.interned,
                            open.timeline_start);
  stack_.push_back(std::move(open));
}

void PhaseProfiler::end() {
  SPARTS_CHECK(!stack_.empty(), "PhaseProfiler::end without begin");
  OpenPhase open = std::move(stack_.back());
  stack_.pop_back();

  PhaseRecord rec;
  rec.name = open.name;
  rec.start = open.timeline_start;
  rec.wall_seconds = seconds_since(open.wall_start);
  rec.depth = static_cast<int>(stack_.size());
  rec.parallel = false;

  // A host phase owns its timeline interval: advance the cursor by the
  // wall duration (minus whatever nested phases/runs already advanced).
  Tracer& tracer = Tracer::instance();
  const double advanced = tracer.timeline() - open.timeline_start;
  if (rec.wall_seconds > advanced) {
    tracer.advance_timeline(rec.wall_seconds - advanced);
  }
  rec.duration = tracer.timeline() - open.timeline_start;
  tracer.record(kHostTrack, EventKind::span_end, Category::phase,
                open.interned, open.timeline_start + rec.duration);

  if (metrics_enabled()) {
    metrics().gauge("phase." + rec.name + ".seconds").set(rec.duration);
    metrics().gauge("phase." + rec.name + ".wall_seconds")
        .set(rec.wall_seconds);
  }
  records_.push_back(std::move(rec));
}

void PhaseProfiler::end_parallel(const ParallelPhaseStats& stats) {
  SPARTS_CHECK(!stack_.empty(), "PhaseProfiler::end_parallel without begin");
  OpenPhase open = std::move(stack_.back());
  stack_.pop_back();

  PhaseRecord rec;
  rec.name = open.name;
  rec.start = open.timeline_start;
  rec.wall_seconds = seconds_since(open.wall_start);
  rec.depth = static_cast<int>(stack_.size());
  rec.parallel = true;
  rec.stats = stats;

  // The backend advanced the timeline by its parallel time inside
  // Tracer::end_run(); the phase interval is whatever the cursor covered
  // (>= parallel_time when several runs executed inside the bracket).
  Tracer& tracer = Tracer::instance();
  rec.duration =
      std::max(stats.parallel_time, tracer.timeline() - open.timeline_start);
  tracer.record(kHostTrack, EventKind::span_end, Category::phase,
                open.interned, open.timeline_start + rec.duration);

  if (metrics_enabled()) {
    double compute = 0.0, send = 0.0, idle = 0.0;
    for (const double v : stats.compute_time) compute += v;
    for (const double v : stats.send_time) send += v;
    for (const double v : stats.idle_time) idle += v;
    const std::string prefix = "phase." + rec.name;
    metrics().gauge(prefix + ".seconds").set(rec.duration);
    metrics().gauge(prefix + ".wall_seconds").set(rec.wall_seconds);
    metrics().gauge(prefix + ".compute_seconds").set(compute);
    metrics().gauge(prefix + ".send_seconds").set(send);
    metrics().gauge(prefix + ".idle_seconds").set(idle);
    metrics().gauge(prefix + ".messages")
        .set(static_cast<double>(stats.messages));
    metrics().gauge(prefix + ".words").set(static_cast<double>(stats.words));
    metrics().gauge(prefix + ".flops").set(static_cast<double>(stats.flops));
  }
  records_.push_back(std::move(rec));
}

void PhaseProfiler::clear() {
  records_.clear();
  stack_.clear();
}

void PhaseProfiler::write_json(std::ostream& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  out << pad << "[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const PhaseRecord& r = records_[i];
    out << (i == 0 ? "\n" : ",\n") << pad << "  {\"name\": \"";
    write_escaped(out, r.name);
    out << "\", \"start\": " << r.start << ", \"duration\": " << r.duration
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"depth\": " << r.depth
        << ", \"parallel\": " << (r.parallel ? "true" : "false");
    if (r.parallel) {
      const ParallelPhaseStats& s = r.stats;
      out << ", \"procs\": " << s.procs
          << ", \"backend_seconds\": " << s.parallel_time
          << ", \"flops\": " << s.flops << ", \"messages\": " << s.messages
          << ", \"words\": " << s.words << ", \"ranks\": [";
      for (int q = 0; q < s.procs; ++q) {
        const auto z = static_cast<std::size_t>(q);
        const double c = z < s.compute_time.size() ? s.compute_time[z] : 0.0;
        const double sd = z < s.send_time.size() ? s.send_time[z] : 0.0;
        const double id = z < s.idle_time.size() ? s.idle_time[z] : 0.0;
        out << (q == 0 ? "" : ", ") << "{\"rank\": " << q
            << ", \"compute\": " << c << ", \"send\": " << sd
            << ", \"idle\": " << id << "}";
      }
      out << "]";
    }
    out << "}";
  }
  out << (records_.empty() ? "" : "\n" + pad) << "]";
}

void write_metrics_report(std::ostream& out) {
  out << "{\n\"metrics\":\n";
  Registry::instance().write_json(out);
  out << ",\n\"phases\":\n";
  PhaseProfiler::instance().write_json(out);
  out << "\n}\n";
}

bool write_metrics_report_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_metrics_report(out);
  return static_cast<bool>(out);
}

PhaseScope::PhaseScope(const std::string& name) {
  PhaseProfiler::instance().begin(name);
}

void PhaseScope::set_parallel(const ParallelPhaseStats& stats) {
  parallel_ = true;
  stats_ = stats;
}

PhaseScope::~PhaseScope() {
  if (parallel_) {
    PhaseProfiler::instance().end_parallel(stats_);
  } else {
    PhaseProfiler::instance().end();
  }
}

}  // namespace sparts::obs
