#include "exec/task_scheduler.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "exec/waitgroup.hpp"
#include "obs/trace.hpp"

namespace sparts::exec {

namespace {

// Identity of the calling thread inside its pool.  A scheduler pointer is
// kept alongside the index so submit(affinity = -1) can tell "worker of
// *this* scheduler" from "worker of some other scheduler" (tests nest
// pools).
thread_local const TaskScheduler* tl_scheduler = nullptr;
thread_local int tl_worker = -1;

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<int>(std::strtol(v, nullptr, 10));
}

}  // namespace

TaskScheduler::TaskScheduler() : TaskScheduler(Config{}) {}

TaskScheduler::TaskScheduler(const Config& config) {
  int w = config.workers;
  if (w <= 0) w = env_int("SPARTS_TASK_WORKERS", 0);
  if (w <= 0) w = static_cast<int>(std::thread::hardware_concurrency());
  if (w <= 0) w = 1;
  int cluster = config.cluster_size;
  if (cluster <= 0) cluster = env_int("SPARTS_TASK_CLUSTER", 0);
  if (cluster <= 0) cluster = 4;
  spin_sweeps_ = config.spin_sweeps > 0 ? config.spin_sweeps : 1;

  workers_.reserve(static_cast<std::size_t>(w));
  for (int i = 0; i < w; ++i) workers_.push_back(std::make_unique<Worker>());

  // Victim order for worker i: the rest of i's cluster first, then the
  // other workers; both groups rotated by i so thieves fan out instead of
  // converging on worker 0.
  victim_order_.assign(static_cast<std::size_t>(w), {});
  for (int i = 0; i < w; ++i) {
    auto& order = victim_order_[static_cast<std::size_t>(i)];
    const int my_cluster = i / cluster;
    std::vector<int> remote;
    for (int k = 1; k < w; ++k) {
      const int v = (i + k) % w;
      if (v / cluster == my_cluster) {
        order.push_back(v);
      } else {
        remote.push_back(v);
      }
    }
    order.insert(order.end(), remote.begin(), remote.end());
  }

  for (int i = 0; i < w; ++i) {
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_loop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    stop_ = true;
  }
  park_cv_.notify_all();
  for (auto& w : workers_) w->thread.join();
}

int TaskScheduler::current_worker() { return tl_worker; }

void TaskScheduler::submit(Job job, int affinity, bool low_priority) {
  const int w = workers();
  int target;
  if (affinity >= 0) {
    target = affinity % w;
  } else if (tl_scheduler == this && tl_worker >= 0) {
    target = tl_worker;
  } else {
    target = static_cast<int>(
        next_rr_.fetch_add(1, std::memory_order_relaxed) % w);
  }
  Worker& wk = *workers_[static_cast<std::size_t>(target)];
  if (low_priority) {
    wk.deque.push_steal_end(std::move(job));
  } else {
    wk.deque.push(std::move(job));
  }
  wk.depth.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_add(1, std::memory_order_release);
  // Pairing with the queued_ check under park_mutex_ in worker_loop: a
  // worker that misses the increment is still holding the mutex we are
  // about to take, so the notify cannot be lost.
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
  }
  park_cv_.notify_all();
}

bool TaskScheduler::try_pop(int w, Job* out) {
  Worker& wk = *workers_[static_cast<std::size_t>(w)];
  if (!wk.deque.try_pop_owner(out)) return false;
  wk.depth.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool TaskScheduler::try_steal(int w, Job* out, int* victim) {
  for (const int v : victim_order_[static_cast<std::size_t>(w)]) {
    Worker& wk = *workers_[static_cast<std::size_t>(v)];
    if (wk.deque.try_steal(out)) {
      wk.depth.fetch_sub(1, std::memory_order_relaxed);
      if (victim != nullptr) *victim = v;
      return true;
    }
  }
  return false;
}

void TaskScheduler::worker_loop(int w) {
  tl_scheduler = this;
  tl_worker = w;
  Worker& self = *workers_[static_cast<std::size_t>(w)];
  // All worker events land on this worker's own Perfetto track, written
  // only by this thread (the tracer's single-writer ring discipline).
  const std::int32_t track = obs::worker_track(w);
  auto& tracer = obs::Tracer::instance();
  // Open this worker's counter tracks at their initial values, so a
  // traced run has them even when no worker ever parks.  TaskBackend
  // starts a scheduler per run, after Tracer::begin_run().
  if (obs::Tracer::enabled()) {
    tracer.record_local(track, obs::EventKind::counter, obs::Category::sched,
                        "sched.deque_depth", tracer.run_elapsed(),
                        self.depth.load(std::memory_order_relaxed));
    tracer.record_local(track, obs::EventKind::counter, obs::Category::sched,
                        "sched.parked_workers", tracer.run_elapsed(),
                        parked_.load(std::memory_order_relaxed));
  }
  for (;;) {
    Job job;
    bool found = false;
    bool stolen = false;
    int victim = -1;
    const bool tracing = obs::Tracer::enabled();
    const double iter_start = tracing ? tracer.run_elapsed() : 0.0;
    for (int sweep = 0; sweep < spin_sweeps_ && !found; ++sweep) {
      if (try_pop(w, &job)) {
        found = true;
      } else if (try_steal(w, &job, &victim)) {
        found = true;
        stolen = true;
      }
    }
    if (found) {
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      if (stolen) self.steals.fetch_add(1, std::memory_order_relaxed);
      self.jobs_run.fetch_add(1, std::memory_order_relaxed);
      if (tracing) {
        if (stolen) {
          tracer.record_local(track, obs::EventKind::instant,
                              obs::Category::sched, "sched_steal",
                              tracer.run_elapsed(), w, victim);
        }
        tracer.record_local(track, obs::EventKind::counter,
                            obs::Category::sched, "sched.deque_depth",
                            tracer.run_elapsed(),
                            self.depth.load(std::memory_order_relaxed));
        tracer.record_local(track, obs::EventKind::span_begin,
                            obs::Category::sched, "sched_run",
                            tracer.run_elapsed(), w, stolen ? victim : w);
        job(JobContext{w, stolen});
        if (obs::Tracer::enabled()) {
          tracer.record_local(track, obs::EventKind::span_end,
                              obs::Category::sched, "sched_run",
                              tracer.run_elapsed(), w);
        }
      } else {
        job(JobContext{w, stolen});
      }
      continue;
    }
    if (tracing) {
      // Every sweep above came up empty: that whole window was idle spin.
      tracer.record_local(track, obs::EventKind::span_begin,
                          obs::Category::sched, "sched_spin", iter_start, w);
      tracer.record_local(track, obs::EventKind::span_end,
                          obs::Category::sched, "sched_spin",
                          tracer.run_elapsed(), w);
    }
    std::unique_lock<std::mutex> lock(park_mutex_);
    if (stop_) return;
    if (queued_.load(std::memory_order_acquire) > 0) continue;
    self.parks.fetch_add(1, std::memory_order_relaxed);
    const int now_parked =
        parked_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (tracing) {
      tracer.record_local(track, obs::EventKind::counter,
                          obs::Category::sched, "sched.parked_workers",
                          tracer.run_elapsed(), now_parked);
      tracer.record_local(track, obs::EventKind::span_begin,
                          obs::Category::sched, "sched_park",
                          tracer.run_elapsed(), w);
    }
    park_cv_.wait(lock, [&] {
      return stop_ || queued_.load(std::memory_order_acquire) > 0;
    });
    const int after_parked =
        parked_.fetch_sub(1, std::memory_order_relaxed) - 1;
    if (tracing && obs::Tracer::enabled()) {
      tracer.record_local(track, obs::EventKind::span_end,
                          obs::Category::sched, "sched_park",
                          tracer.run_elapsed(), w);
      tracer.record_local(track, obs::EventKind::counter,
                          obs::Category::sched, "sched.parked_workers",
                          tracer.run_elapsed(), after_parked);
    }
    if (stop_) return;
  }
}

SchedulerStats TaskScheduler::stats() const {
  SchedulerStats st;
  st.workers = workers();
  for (const auto& w : workers_) {
    st.jobs_run += w->jobs_run.load(std::memory_order_relaxed);
    st.steals += w->steals.load(std::memory_order_relaxed);
    st.parks += w->parks.load(std::memory_order_relaxed);
  }
  return st;
}

void TaskScheduler::run_graph(const TaskGraph& graph) {
  SPARTS_CHECK(tl_scheduler != this,
               "run_graph must not be called from a worker of the same pool");
  const index_t n = graph.num_tasks();
  if (n == 0) return;

  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();
  // A graph run is its own segment of the trace timeline: freeze the
  // base so measured task spans lay out after whatever came before.
  const bool traced_run = obs::Tracer::enabled();
  if (traced_run) obs::Tracer::instance().begin_run();

  struct RunState {
    std::vector<std::atomic<index_t>> pending;
    WaitGroup wg;
    std::atomic<bool> cancelled{false};
    std::mutex err_mutex;
    std::exception_ptr first_error;
    explicit RunState(index_t count)
        : pending(static_cast<std::size_t>(count)), wg(count) {}
  };
  RunState state(n);
  for (TaskId id = 0; id < n; ++id) {
    state.pending[static_cast<std::size_t>(id)].store(
        graph.num_predecessors(id), std::memory_order_relaxed);
  }

  // Release = enqueue on the node's preferred worker (or wherever the
  // releasing job is running, for locality).  Bodies that throw flip
  // `cancelled`: later tasks skip their bodies but still drain the DAG so
  // the wait group reaches zero.
  std::function<void(TaskId)> release = [&](TaskId id) {
    submit(
        [&state, &graph, &release, id](const JobContext& ctx) {
          const TaskNode& nd = graph.node(id);
          if (!state.cancelled.load(std::memory_order_acquire)) {
            const bool tracing = obs::Tracer::enabled();
            auto& tracer = obs::Tracer::instance();
            const std::int32_t track = obs::worker_track(ctx.worker);
            if (tracing) {
              tracer.record_local(track, obs::EventKind::instant,
                                  obs::Category::task,
                                  ctx.stolen ? "task_steal" : "task_ready",
                                  tracer.run_elapsed(),
                                  static_cast<std::int64_t>(id),
                                  static_cast<std::int64_t>(nd.item));
              tracer.record_local(track, obs::EventKind::span_begin,
                                  obs::Category::task, "task_run",
                                  tracer.run_elapsed(),
                                  static_cast<std::int64_t>(id),
                                  static_cast<std::int64_t>(nd.item));
            }
            try {
              if (nd.body) nd.body();
            } catch (...) {
              std::lock_guard<std::mutex> lock(state.err_mutex);
              if (!state.first_error) {
                state.first_error = std::current_exception();
              }
              state.cancelled.store(true, std::memory_order_release);
            }
            if (tracing && obs::Tracer::enabled()) {
              tracer.record_local(track, obs::EventKind::span_end,
                                  obs::Category::task, "task_run",
                                  tracer.run_elapsed(),
                                  static_cast<std::int64_t>(id),
                                  static_cast<std::int64_t>(nd.item));
            }
          }
          for (const TaskId s : graph.successors(id)) {
            if (state.pending[static_cast<std::size_t>(s)].fetch_sub(
                    1, std::memory_order_acq_rel) == 1) {
              release(s);
            }
          }
          state.wg.done();
        },
        graph.node(id).affinity);
  };
  for (TaskId id = 0; id < n; ++id) {
    if (graph.num_predecessors(id) == 0) release(id);
  }
  state.wg.wait();

  if (traced_run) {
    obs::Tracer::instance().end_run(
        std::chrono::duration<double>(Clock::now() - wall_start).count());
  }
  if (state.first_error) std::rethrow_exception(state.first_error);
}

}  // namespace sparts::exec
