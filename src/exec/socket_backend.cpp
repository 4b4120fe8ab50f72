#include "exec/socket_backend.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/inbox.hpp"
#include "exec/wall_process.hpp"
#include "exec/wire.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sparts::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double env_ms(const char* name, double fallback_s) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback_s;
  char* end = nullptr;
  const double ms = std::strtod(v, &end);
  if (end == v || *end != '\0' || ms <= 0.0) {
    throw InvalidArgument(std::string(name) + " must be a positive number "
                          "of milliseconds, got '" + v + "'");
  }
  return ms / 1000.0;
}

/// SPARTS_TEST_KILL countdown: >0 means "SIGKILL after this many more
/// data sends".  Decremented on the SPMD thread's send path only.
std::atomic<int> g_kill_countdown{0};

}  // namespace

SocketConfig& SocketConfig::from_env() {
  heartbeat_interval = env_ms("SPARTS_HB_MS", heartbeat_interval);
  suspect_after = env_ms("SPARTS_SUSPECT_MS", suspect_after);
  return *this;
}

PeerFailure::PeerFailure(index_t suspected, double last_contact_age,
                         std::uint32_t epoch)
    : Error("peer failure: suspected rank " + std::to_string(suspected) +
            " (no contact for " +
            std::to_string(static_cast<long long>(last_contact_age * 1000)) +
            " ms, epoch " + std::to_string(epoch) + ")"),
      suspected_(suspected),
      age_(last_contact_age),
      epoch_(epoch) {}

RemoteAbort::RemoteAbort(index_t origin, const std::string& reason)
    : Error("remote abort from rank " + std::to_string(origin) + ": " +
            reason),
      origin_(origin) {}

void socket_test_kill_after(int n) {
  g_kill_countdown.store(n > 0 ? n : 0, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// SocketSession
// ---------------------------------------------------------------------------

namespace {

/// One queued outbound frame.  Owned payloads (send_owned) are moved in
/// here and written to the socket directly — the wire writer emits the
/// header and then the payload bytes from this buffer, so the zero-copy
/// lane never duplicates the panel.
struct OutFrame {
  wire::FrameKind kind = wire::FrameKind::data;
  std::uint32_t epoch = 0;
  int tag = 0;
  Payload payload;
};

/// Everything the session knows about one remote rank.  `mx` guards all
/// mutable fields; the sender/reader threads below are per-peer.
struct PeerState {
  index_t rank = -1;
  wire::Endpoint endpoint;  ///< where to (re)connect; fixed after setup

  std::mutex mx;
  std::condition_variable cv;
  std::shared_ptr<wire::WireConn> conn;
  std::deque<OutFrame> outbox;
  bool writing = false;    ///< the sender holds a popped, unwritten frame
  bool stop = false;
  bool goodbye = false;    ///< peer announced a clean shutdown
  bool suspected = false;  ///< failure detector fired for this peer
  double suspected_age = 0.0;
  double last_heard = -1.0;  ///< session seconds of the last frame read
  // Inter-arrival EWMA (phi-accrual-style suspicion input).
  bool ia_init = false;
  double ia_mean = 0.0;
  double ia_var = 0.0;
  // Smoothed heartbeat round-trip time.
  bool rtt_init = false;
  double rtt = 0.0;

  std::thread sender;
  std::thread reader;
};

}  // namespace

/// The per-process socket session: listener, full connection mesh,
/// per-peer sender/reader threads, heartbeat failure detector, and the
/// local rank's mailbox.  Created by the first SocketBackend, shared by
/// every per-phase backend after it, destroyed by
/// socket_session_shutdown().
class SocketSession {
 public:
  explicit SocketSession(const SocketConfig& config);
  ~SocketSession();
  SocketSession(const SocketSession&) = delete;
  SocketSession& operator=(const SocketSession&) = delete;

  const SocketConfig& config() const { return config_; }

  double session_now() const { return seconds_between(start_, Clock::now()); }

  /// Advance to the next epoch and replay any stashed early frames.
  std::uint32_t begin_phase();
  /// The self-healing end-of-phase rank-0-star barrier.
  void end_phase_barrier(std::uint32_t epoch);

  // --- the transport WallProcess calls (see exec/wall_process.hpp);
  // `rank` is always this process's own rank ---
  index_t nprocs() const { return config_.nprocs; }
  const CostModel& cost() const { return config_.cost; }
  const Topology& topology() const { return topology_; }
  /// Enqueue a DATA frame for `dst` on the current epoch.
  void deliver(index_t dst, ReceivedMessage&& msg);
  /// Non-blocking match; throws RemoteAbort/PeerFailure when the session
  /// is failing (pollers must not spin on a dead run).
  bool take_match_now(index_t rank, index_t src, int tag,
                      ReceivedMessage* out);
  /// Blocking match with the same failure semantics plus the
  /// recv_timeout deadlock backstop.
  ReceivedMessage take_match(index_t rank, index_t src, int tag);
  /// Bounded wait for mailbox traffic; wakes early on arrival or failure.
  void poll_wait(index_t rank, double seconds);

  /// Tell every peer this rank's body failed (they unwind with
  /// RemoteAbort).  No-op for a failure we ourselves received remotely.
  void broadcast_abort(const std::string& reason);

  /// Largest smoothed per-peer heartbeat RTT (seconds).
  double measured_rtt() const;

  /// GOODBYE + flush + join; the destructor also runs this.
  void shutdown();

 private:
  static double chaos_now(const void* ctx) {
    return static_cast<const SocketSession*>(ctx)->session_now();
  }

  void setup_mesh();
  void install_conn(PeerState& peer, std::shared_ptr<wire::WireConn> conn,
                    bool replacement);
  void enqueue(PeerState& peer, wire::FrameKind kind, std::uint32_t epoch,
               int tag, Payload&& payload);
  void sender_loop(PeerState& peer);
  void reader_loop(PeerState& peer);
  void accept_loop();
  void heartbeat_loop();
  void reconnect(PeerState& peer);
  void handle_frame(PeerState& peer, wire::Frame& frame);
  void note_heard(PeerState& peer);
  /// Suspicion threshold for `peer` in seconds; peer.mx must be held.
  double threshold_locked(const PeerState& peer) const;
  void mark_suspected(PeerState& peer, double age);
  /// Throws RemoteAbort/PeerFailure if the session is failing; mx_ held.
  void check_failures_locked();

  PeerState& peer_state(index_t rank) {
    return *peers_[static_cast<std::size_t>(rank)];
  }

  SocketConfig config_;
  Topology topology_;
  Clock::time_point start_;
  wire::ChaosState chaos_;
  wire::Listener listener_;
  std::vector<std::unique_ptr<PeerState>> peers_;  ///< self slot is null
  std::thread accept_thread_;
  std::thread hb_thread_;
  std::atomic<bool> stopping_{false};
  bool shut_down_ = false;  ///< shutdown() already ran (main thread only)

  // ---- mailbox + control plane, guarded by mx_ -----------------------
  std::mutex mx_;
  std::condition_variable cv_;
  std::deque<ReceivedMessage> pending_;  ///< current-epoch data frames
  struct Stashed {
    std::uint32_t epoch;
    ReceivedMessage msg;
  };
  std::vector<Stashed> stash_;  ///< frames from future epochs
  /// Count of messages ever appended to pending_; poll_wait compares it
  /// against the count it saw last time so it only returns early on NEW
  /// arrivals, never on old non-matching messages parked in the mailbox.
  std::uint64_t arrivals_ = 0;
  std::uint64_t polled_arrivals_ = 0;
  std::uint32_t epoch_ = 0;
  bool aborted_ = false;
  index_t abort_src_ = -1;
  std::string abort_reason_;
  index_t suspect_rank_ = -1;  ///< first suspected peer
  double suspect_age_ = 0.0;
  std::vector<std::uint32_t> barrier_seen_;  ///< rank 0: entries per rank
  std::uint32_t released_epoch_ = 0;         ///< rank 0: last release
  std::uint32_t release_epoch_ = 0;          ///< rank != 0: last release seen
  std::uint64_t stale_dropped_ = 0;
};

SocketSession::SocketSession(const SocketConfig& config)
    : config_(config),
      topology_(config.topology, config.nprocs),
      start_(Clock::now()) {
  SPARTS_CHECK(config_.rank >= 0 && config_.rank < config_.nprocs,
               "socket backend rank " << config_.rank << " outside [0, "
                                      << config_.nprocs << ")");
  SPARTS_CHECK(config_.heartbeat_interval > 0.0,
               "heartbeat_interval must be positive");
  SPARTS_CHECK(!config_.rendezvous_dir.empty() || !config_.rankfile.empty() ||
                   config_.nprocs == 1,
               "socket backend needs a rendezvous dir or a rank file");
  chaos_.spec = wire::ChaosSpec::from_env();
  chaos_.now = &SocketSession::chaos_now;
  chaos_.ctx = this;
  peers_.resize(static_cast<std::size_t>(config_.nprocs));
  barrier_seen_.assign(static_cast<std::size_t>(config_.nprocs), 0);
  try {
    setup_mesh();
  } catch (...) {
    // A peer died mid-rendezvous (dial refused, handshake EOF, connect
    // timeout).  The accept thread — and possibly some per-peer threads —
    // are already running; tear them down in order before rethrowing, or
    // the unwind destroys joinable std::threads and calls std::terminate.
    shutdown();
    throw;
  }
}

void SocketSession::setup_mesh() {
  const index_t self = config_.rank;
  std::vector<wire::Endpoint> endpoints;
  if (!config_.rankfile.empty()) {
    endpoints = wire::read_rank_file(config_.rankfile, config_.nprocs);
    // Bind the port assigned to this rank on all interfaces (the file
    // names the address *peers* dial, which need not be bindable here).
    listener_.open({"0.0.0.0", endpoints[static_cast<std::size_t>(self)].port});
  } else if (config_.nprocs > 1 || !config_.rendezvous_dir.empty()) {
    listener_.open({"127.0.0.1", 0});
    if (!config_.rendezvous_dir.empty()) {
      wire::publish_endpoint(config_.rendezvous_dir, self,
                             {"127.0.0.1", listener_.port()});
    }
  }
  for (index_t r = 0; r < config_.nprocs; ++r) {
    if (r == self) continue;
    auto peer = std::make_unique<PeerState>();
    peer->rank = r;
    if (!endpoints.empty()) {
      peer->endpoint = endpoints[static_cast<std::size_t>(r)];
    }
    peers_[static_cast<std::size_t>(r)] = std::move(peer);
  }

  // Accept first: while this rank dials the lower ranks, the higher
  // ranks are dialing it.
  if (listener_.valid()) {
    accept_thread_ = std::thread([this] { accept_loop(); });
  }

  // Dial every lower rank (rank i owns the i -> j < i connections, and
  // owns re-establishing them after a failure).
  for (index_t r = 0; r < self; ++r) {
    PeerState& peer = peer_state(r);
    if (peer.endpoint.port == 0) {
      peer.endpoint = wire::wait_endpoint(config_.rendezvous_dir, r,
                                          config_.connect_timeout);
    }
    const int fd =
        wire::connect_with_backoff(peer.endpoint, config_.connect_timeout);
    auto conn = std::make_shared<wire::WireConn>(fd, self, r, &chaos_);
    const double sent = session_now();
    conn->write_frame(wire::FrameKind::hello, self, 0, 0,
                      {reinterpret_cast<const std::byte*>(&sent),
                       sizeof(sent)});
    wire::Frame frame;
    if (conn->read_frame(&frame) != wire::ReadStatus::ok ||
        frame.kind != wire::FrameKind::hello_ack) {
      throw IoError("socket backend handshake with rank " +
                    std::to_string(r) +
                    " failed (wire version mismatch or dead peer)");
    }
    install_conn(peer, std::move(conn), /*replacement=*/false);
    {
      std::lock_guard<std::mutex> lock(peer.mx);
      peer.rtt = session_now() - sent;
      peer.rtt_init = true;
    }
  }

  // Wait for every higher rank to dial in (the accept thread installs
  // their connections).
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config_.connect_timeout));
  for (index_t r = self + 1; r < config_.nprocs; ++r) {
    PeerState& peer = peer_state(r);
    std::unique_lock<std::mutex> lock(peer.mx);
    if (!peer.cv.wait_until(lock, deadline,
                            [&] { return peer.conn != nullptr; })) {
      throw TimeoutError("socket backend setup: rank " + std::to_string(r) +
                         " did not connect within " +
                         std::to_string(config_.connect_timeout) + "s");
    }
  }

  for (index_t r = 0; r < config_.nprocs; ++r) {
    if (r == self) continue;
    PeerState& peer = peer_state(r);
    peer.sender = std::thread([this, &peer] { sender_loop(peer); });
    peer.reader = std::thread([this, &peer] { reader_loop(peer); });
  }
  if (config_.nprocs > 1) {
    hb_thread_ = std::thread([this] { heartbeat_loop(); });
  }
}

SocketSession::~SocketSession() { shutdown(); }

void SocketSession::install_conn(PeerState& peer,
                                 std::shared_ptr<wire::WireConn> conn,
                                 bool replacement) {
  {
    std::lock_guard<std::mutex> lock(peer.mx);
    if (peer.conn != nullptr) peer.conn->shutdown();
    peer.conn = std::move(conn);
    peer.last_heard = session_now();
  }
  peer.cv.notify_all();
  if (replacement) {
    obs::flight_note(static_cast<std::int32_t>(config_.rank),
                     "sock_reconnect", static_cast<std::int64_t>(peer.rank));
    if (obs::metrics_enabled()) {
      obs::metrics().counter("sock.reconnects").add(1);
    }
  }
}

void SocketSession::enqueue(PeerState& peer, wire::FrameKind kind,
                            std::uint32_t epoch, int tag, Payload&& payload) {
  {
    std::lock_guard<std::mutex> lock(peer.mx);
    if (peer.stop) return;
    peer.outbox.push_back(OutFrame{kind, epoch, tag, std::move(payload)});
  }
  peer.cv.notify_all();
}

void SocketSession::sender_loop(PeerState& peer) {
  for (;;) {
    OutFrame frame;
    std::shared_ptr<wire::WireConn> conn;
    {
      std::unique_lock<std::mutex> lock(peer.mx);
      // Frames queue while a connection is being replaced (dropping them
      // here would lose control traffic); they are only abandoned when
      // the session stops with the link still down.
      peer.cv.wait(lock, [&] {
        return peer.stop || (!peer.outbox.empty() && peer.conn != nullptr);
      });
      if (peer.stop && (peer.outbox.empty() || peer.conn == nullptr)) {
        if (!peer.outbox.empty()) {
          if (obs::metrics_enabled()) {
            obs::metrics().counter("sock.frames_abandoned").add(
                static_cast<std::int64_t>(peer.outbox.size()));
          }
          // Emptied, so shutdown()'s drain wait ends now instead of
          // sitting out its grace for frames no one will write.
          peer.outbox.clear();
          lock.unlock();
          peer.cv.notify_all();
        }
        return;
      }
      frame = std::move(peer.outbox.front());
      peer.outbox.pop_front();
      peer.writing = true;
      conn = peer.conn;
    }
    // Failed writes are deliberately fire-and-forget: a chaos drop or a
    // dying connection is recovered by the reliability envelope (data),
    // periodic re-send (heartbeats, barrier), or failure detection.
    (void)conn->write_frame(frame.kind, config_.rank, frame.epoch, frame.tag,
                            {frame.payload.data(), frame.payload.size()});
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(peer.mx);
      peer.writing = false;
      drained = peer.outbox.empty();
    }
    if (drained) peer.cv.notify_all();  // shutdown()'s drain wait
  }
}

void SocketSession::reader_loop(PeerState& peer) {
  for (;;) {
    std::shared_ptr<wire::WireConn> conn;
    {
      std::unique_lock<std::mutex> lock(peer.mx);
      peer.cv.wait(lock, [&] { return peer.stop || peer.conn != nullptr; });
      if (peer.stop) return;
      conn = peer.conn;
    }
    wire::Frame frame;
    const wire::ReadStatus status = conn->read_frame(&frame);
    if (status == wire::ReadStatus::ok) {
      note_heard(peer);
      handle_frame(peer, frame);
      continue;
    }
    if (status == wire::ReadStatus::bad_payload) {
      // Corrupt payload on a still-framed stream: drop the frame, the
      // envelope retransmits.  (wire.cpp already counted the metric.)
      note_heard(peer);
      obs::flight_note(static_cast<std::int32_t>(config_.rank),
                       "sock_crc_reject",
                       static_cast<std::int64_t>(peer.rank));
      continue;
    }
    // closed: EOF, hard error, or header desync.
    bool ours = false;
    {
      std::unique_lock<std::mutex> lock(peer.mx);
      if (peer.stop || peer.goodbye) return;
      if (peer.conn == conn) {
        peer.conn->shutdown();
        peer.conn = nullptr;
        ours = true;
      }
      // else: already replaced under us; loop picks up the new one.
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    if (ours && config_.rank > peer.rank) {
      // We own this link's dialing side: re-establish it.
      reconnect(peer);
    }
    // Accepting side: wait for the peer to dial back in (the accept
    // thread installs the replacement); if it never does, the failure
    // detector fires within its bounded window.
  }
}

void SocketSession::reconnect(PeerState& peer) {
  double deadline = config_.suspect_after > 0.0
                        ? config_.suspect_after
                        : std::max(8.0 * config_.heartbeat_interval, 0.25);
  try {
    const int fd = wire::connect_with_backoff(peer.endpoint, deadline);
    auto conn =
        std::make_shared<wire::WireConn>(fd, config_.rank, peer.rank, &chaos_);
    const double sent = session_now();
    conn->write_frame(wire::FrameKind::hello, config_.rank, 0, 0,
                      {reinterpret_cast<const std::byte*>(&sent),
                       sizeof(sent)});
    wire::Frame frame;
    if (conn->read_frame(&frame) != wire::ReadStatus::ok ||
        frame.kind != wire::FrameKind::hello_ack) {
      throw IoError("reconnect handshake failed");
    }
    install_conn(peer, std::move(conn), /*replacement=*/true);
  } catch (const std::exception&) {
    // Could not re-establish within the suspicion window: the peer is
    // gone as far as this rank can tell.
    double age = deadline;
    {
      std::lock_guard<std::mutex> lock(peer.mx);
      if (peer.last_heard >= 0.0) age = session_now() - peer.last_heard;
    }
    mark_suspected(peer, age);
  }
}

void SocketSession::note_heard(PeerState& peer) {
  const double now = session_now();
  std::lock_guard<std::mutex> lock(peer.mx);
  if (peer.last_heard >= 0.0) {
    const double ia = now - peer.last_heard;
    if (!peer.ia_init) {
      peer.ia_mean = ia;
      peer.ia_var = 0.0;
      peer.ia_init = true;
    } else {
      constexpr double kAlpha = 0.1;
      const double d = ia - peer.ia_mean;
      peer.ia_mean += kAlpha * d;
      peer.ia_var = (1.0 - kAlpha) * (peer.ia_var + kAlpha * d * d);
    }
  }
  peer.last_heard = now;
}

double SocketSession::threshold_locked(const PeerState& peer) const {
  if (config_.suspect_after > 0.0) return config_.suspect_after;
  // Phi-accrual-style: adapt to the observed inter-arrival statistics,
  // floored so one scheduler hiccup cannot kill a healthy peer.
  const double floor = std::max(8.0 * config_.heartbeat_interval, 0.25);
  if (!peer.ia_init) return floor;
  return std::max(floor,
                  peer.ia_mean + config_.phi * std::sqrt(peer.ia_var));
}

void SocketSession::mark_suspected(PeerState& peer, double age) {
  {
    std::lock_guard<std::mutex> lock(peer.mx);
    if (peer.suspected || peer.goodbye) return;
    peer.suspected = true;
    peer.suspected_age = age;
  }
  peer.cv.notify_all();
  obs::flight_note(static_cast<std::int32_t>(config_.rank), "sock_suspect",
                   static_cast<std::int64_t>(peer.rank),
                   static_cast<std::int64_t>(age * 1000.0));
  if (obs::metrics_enabled()) {
    obs::metrics().counter("sock.suspected_peers").add(1);
  }
  {
    std::lock_guard<std::mutex> lock(mx_);
    if (suspect_rank_ < 0) {
      suspect_rank_ = peer.rank;
      suspect_age_ = age;
    }
  }
  cv_.notify_all();
}

void SocketSession::heartbeat_loop() {
  const auto interval =
      std::chrono::duration<double>(config_.heartbeat_interval);
  std::mutex hb_mx;
  std::unique_lock<std::mutex> hb_lock(hb_mx);
  std::condition_variable hb_cv;  // never notified: a pure interval timer
  while (!stopping_.load(std::memory_order_acquire)) {
    hb_cv.wait_for(hb_lock, interval);
    if (stopping_.load(std::memory_order_acquire)) break;
    const double now = session_now();
    for (auto& slot : peers_) {
      if (slot == nullptr) continue;
      PeerState& peer = *slot;
      bool fire = false;
      double age = 0.0;
      {
        std::lock_guard<std::mutex> lock(peer.mx);
        if (peer.stop || peer.goodbye || peer.suspected) continue;
        Payload beat(sizeof(double));
        std::memcpy(beat.data(), &now, sizeof(double));
        peer.outbox.push_back(
            OutFrame{wire::FrameKind::heartbeat, 0, 0, std::move(beat)});
        if (peer.last_heard >= 0.0) {
          age = now - peer.last_heard;
          fire = age > threshold_locked(peer);
        }
      }
      peer.cv.notify_all();
      if (fire) mark_suspected(peer, age);
    }
  }
}

void SocketSession::handle_frame(PeerState& peer, wire::Frame& frame) {
  switch (frame.kind) {
    case wire::FrameKind::data: {
      bool stale = false;
      {
        std::lock_guard<std::mutex> lock(mx_);
        if (frame.epoch == epoch_) {
          pending_.push_back(
              ReceivedMessage{peer.rank, frame.tag, std::move(frame.payload)});
          ++arrivals_;
        } else if (frame.epoch > epoch_) {
          stash_.push_back(Stashed{
              frame.epoch,
              ReceivedMessage{peer.rank, frame.tag, std::move(frame.payload)}});
        } else {
          ++stale_dropped_;
          stale = true;
        }
      }
      cv_.notify_all();
      if (stale) {
        obs::flight_note(static_cast<std::int32_t>(config_.rank),
                         "sock_stale_drop",
                         static_cast<std::int64_t>(peer.rank),
                         static_cast<std::int64_t>(frame.epoch));
        if (obs::metrics_enabled()) {
          obs::metrics().counter("sock.stale_dropped").add(1);
        }
      }
      break;
    }
    case wire::FrameKind::heartbeat:
      // Echo the sender's timestamp so it can measure the RTT.
      enqueue(peer, wire::FrameKind::heartbeat_ack, 0, 0,
              std::move(frame.payload));
      break;
    case wire::FrameKind::heartbeat_ack: {
      if (frame.payload.size() == sizeof(double)) {
        double sent = 0.0;
        std::memcpy(&sent, frame.payload.data(), sizeof(double));
        const double sample = session_now() - sent;
        if (sample >= 0.0) {
          std::lock_guard<std::mutex> lock(peer.mx);
          peer.rtt = peer.rtt_init ? 0.8 * peer.rtt + 0.2 * sample : sample;
          peer.rtt_init = true;
        }
      }
      break;
    }
    case wire::FrameKind::barrier: {
      // Rank 0 collects entries; duplicates for an epoch already released
      // get an immediate re-release (the self-healing half of the
      // protocol: a peer re-sends its entry until the release arrives).
      bool rerelease = false;
      {
        std::lock_guard<std::mutex> lock(mx_);
        auto& seen = barrier_seen_[static_cast<std::size_t>(peer.rank)];
        seen = std::max(seen, frame.epoch);
        rerelease = frame.epoch <= released_epoch_;
      }
      cv_.notify_all();
      if (rerelease) {
        enqueue(peer, wire::FrameKind::barrier_release, frame.epoch, 0, {});
      }
      break;
    }
    case wire::FrameKind::barrier_release: {
      {
        std::lock_guard<std::mutex> lock(mx_);
        release_epoch_ = std::max(release_epoch_, frame.epoch);
      }
      cv_.notify_all();
      break;
    }
    case wire::FrameKind::abort: {
      {
        std::lock_guard<std::mutex> lock(mx_);
        if (!aborted_) {
          aborted_ = true;
          abort_src_ = peer.rank;
          abort_reason_.assign(
              reinterpret_cast<const char*>(frame.payload.data()),
              frame.payload.size());
        }
      }
      cv_.notify_all();
      obs::flight_note(static_cast<std::int32_t>(config_.rank),
                       "sock_abort_rx", static_cast<std::int64_t>(peer.rank));
      break;
    }
    case wire::FrameKind::goodbye: {
      {
        std::lock_guard<std::mutex> lock(peer.mx);
        peer.goodbye = true;
      }
      peer.cv.notify_all();
      break;
    }
    default:
      break;  // late hello/hello_ack duplicates: ignore
  }
}

std::uint32_t SocketSession::begin_phase() {
  std::lock_guard<std::mutex> lock(mx_);
  check_failures_locked();
  // Everything still pending belongs to a finished epoch: the previous
  // run's closing barrier proves every rank consumed all the messages its
  // program wanted, so leftovers are envelope duplicates (e.g. a late
  // NACK-triggered retransmit that landed after the collective completed).
  // Dropping them here keeps a same-tag recv in the new epoch from
  // matching a stale payload.
  if (!pending_.empty()) {
    stale_dropped_ += static_cast<std::uint64_t>(pending_.size());
    obs::flight_note(static_cast<std::int32_t>(config_.rank),
                     "sock_stale_drop",
                     static_cast<std::int64_t>(pending_.size()),
                     static_cast<std::int64_t>(epoch_));
    if (obs::metrics_enabled()) {
      obs::metrics().counter("sock.stale_dropped")
          .add(static_cast<std::int64_t>(pending_.size()));
    }
    pending_.clear();
  }
  ++epoch_;
  // Replay frames that raced ahead of this rank into the new epoch.
  for (std::size_t i = 0; i < stash_.size();) {
    if (stash_[i].epoch == epoch_) {
      pending_.push_back(std::move(stash_[i].msg));
      ++arrivals_;
      stash_.erase(stash_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return epoch_;
}

void SocketSession::end_phase_barrier(std::uint32_t epoch) {
  obs::flight_note(static_cast<std::int32_t>(config_.rank), "sock_barrier",
                   static_cast<std::int64_t>(epoch));
  if (config_.nprocs == 1) return;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config_.recv_timeout));
  const auto resend =
      std::chrono::duration<double>(
          std::max(4.0 * config_.heartbeat_interval, 0.1));
  if (config_.rank == 0) {
    {
      std::unique_lock<std::mutex> lock(mx_);
      for (;;) {
        check_failures_locked();
        bool all = true;
        for (index_t r = 1; r < config_.nprocs; ++r) {
          if (barrier_seen_[static_cast<std::size_t>(r)] < epoch) {
            all = false;
            break;
          }
        }
        if (all) break;
        if (Clock::now() >= deadline) {
          throw DeadlockError("socket barrier timed out after " +
                              std::to_string(config_.recv_timeout) +
                              "s (epoch " + std::to_string(epoch) + ")");
        }
        cv_.wait_for(lock, resend);
      }
      released_epoch_ = epoch;
    }
    for (index_t r = 1; r < config_.nprocs; ++r) {
      enqueue(peer_state(r), wire::FrameKind::barrier_release, epoch, 0, {});
    }
  } else {
    enqueue(peer_state(0), wire::FrameKind::barrier, epoch, 0, {});
    std::unique_lock<std::mutex> lock(mx_);
    for (;;) {
      check_failures_locked();
      if (release_epoch_ >= epoch) break;
      if (Clock::now() >= deadline) {
        throw DeadlockError("socket barrier timed out after " +
                            std::to_string(config_.recv_timeout) +
                            "s (epoch " + std::to_string(epoch) + ")");
      }
      if (cv_.wait_for(lock, resend) == std::cv_status::timeout) {
        // Release not seen: re-enter (idempotent on rank 0) in case the
        // entry or the release rode a dying connection.
        lock.unlock();
        enqueue(peer_state(0), wire::FrameKind::barrier, epoch, 0, {});
        lock.lock();
      }
    }
  }
}

void SocketSession::deliver(index_t dst, ReceivedMessage&& msg) {
  obs::flight_note(static_cast<std::int32_t>(msg.source), "sock_send",
                   static_cast<std::int64_t>(msg.payload.size()),
                   static_cast<std::int64_t>(dst));
  std::uint32_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mx_);
    epoch = epoch_;
  }
  enqueue(peer_state(dst), wire::FrameKind::data, epoch, msg.tag,
          std::move(msg.payload));
  // SPARTS_TEST_KILL hook: die *after* handing over n frames, so the
  // kill lands genuinely mid-sweep with bytes in flight.
  if (g_kill_countdown.load(std::memory_order_acquire) > 0 &&
      g_kill_countdown.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    (void)::kill(::getpid(), SIGKILL);
  }
}

void SocketSession::check_failures_locked() {
  if (aborted_) throw RemoteAbort(abort_src_, abort_reason_);
  if (suspect_rank_ >= 0) {
    throw PeerFailure(suspect_rank_, suspect_age_, epoch_);
  }
}

bool SocketSession::take_match_now(index_t /*rank*/, index_t src, int tag,
                                   ReceivedMessage* out) {
  std::lock_guard<std::mutex> lock(mx_);
  if (match_pending(pending_, src, tag, out)) return true;
  check_failures_locked();
  return false;
}

ReceivedMessage SocketSession::take_match(index_t rank, index_t src, int tag) {
  ReceivedMessage out;
  if (take_match_now(rank, src, tag, &out)) return out;
  obs::flight_note(static_cast<std::int32_t>(rank), "sock_recv_wait",
                   static_cast<std::int64_t>(src),
                   static_cast<std::int64_t>(tag));
  std::unique_lock<std::mutex> lock(mx_);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config_.recv_timeout));
  for (;;) {
    if (match_pending(pending_, src, tag, &out)) return out;
    check_failures_locked();
    if (Clock::now() >= deadline) {
      obs::flight_note(static_cast<std::int32_t>(config_.rank),
                       "sock_recv_timeout", static_cast<std::int64_t>(src),
                       static_cast<std::int64_t>(tag));
      throw DeadlockError(
          "socket backend recv timed out after " +
          std::to_string(config_.recv_timeout) + "s: rank " +
          std::to_string(config_.rank) + " waits for src=" +
          std::to_string(src) + " tag=" + std::to_string(tag) +
          " (likely deadlock; every peer still heartbeats)");
    }
    cv_.wait_until(lock,
                   std::min(deadline, Clock::now() +
                                          std::chrono::milliseconds(100)));
  }
}

void SocketSession::poll_wait(index_t /*rank*/, double seconds) {
  std::unique_lock<std::mutex> lock(mx_);
  check_failures_locked();
  // Return early only on NEW arrivals since the last poll, never on a
  // non-empty mailbox: a non-matching message parked in pending_ would
  // otherwise turn the caller's polling loop into a spin — the
  // reliability envelope accounts every poll_wait as `seconds` of
  // waiting, so instant returns would burn its whole NACK budget in
  // microseconds of wall time.
  if (arrivals_ == polled_arrivals_) {
    cv_.wait_for(lock, std::chrono::duration<double>(seconds), [&] {
      return arrivals_ != polled_arrivals_ || aborted_ || suspect_rank_ >= 0;
    });
  }
  polled_arrivals_ = arrivals_;
  check_failures_locked();
}

void SocketSession::broadcast_abort(const std::string& reason) {
  std::uint32_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mx_);
    epoch = epoch_;
    if (!aborted_) {
      aborted_ = true;
      abort_src_ = config_.rank;
      abort_reason_ = reason;
    }
  }
  cv_.notify_all();
  for (auto& slot : peers_) {
    if (slot == nullptr) continue;
    Payload payload(reason.size());
    if (!reason.empty()) {
      std::memcpy(payload.data(), reason.data(), reason.size());
    }
    enqueue(*slot, wire::FrameKind::abort, epoch, 0, std::move(payload));
  }
}

double SocketSession::measured_rtt() const {
  double worst = 0.0;
  for (const auto& slot : peers_) {
    if (slot == nullptr) continue;
    PeerState& peer = *slot;
    std::lock_guard<std::mutex> lock(peer.mx);
    if (peer.rtt_init) worst = std::max(worst, peer.rtt);
  }
  return worst > 0.0 ? worst : 1e-3;
}

void SocketSession::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;

  // Say goodbye first so no peer suspects this rank, then stop the
  // senders in flush-then-exit mode.
  for (auto& slot : peers_) {
    if (slot == nullptr) continue;
    enqueue(*slot, wire::FrameKind::goodbye, 0, 0, {});
    {
      std::lock_guard<std::mutex> lock(slot->mx);
      slot->stop = true;
    }
    slot->cv.notify_all();
  }
  // Grace period for each outbox to drain and its last frame, the
  // goodbye, to be written before the link is shut below (healthy links
  // take microseconds; a dead link fails fast).
  const Clock::time_point grace = Clock::now() + std::chrono::seconds(1);
  for (auto& slot : peers_) {
    if (slot == nullptr) continue;
    std::unique_lock<std::mutex> lock(slot->mx);
    slot->cv.wait_until(lock, grace, [&] {
      return slot->outbox.empty() && !slot->writing;
    });
  }

  stopping_.store(true, std::memory_order_release);
  for (auto& slot : peers_) {
    if (slot == nullptr) continue;
    {
      std::lock_guard<std::mutex> lock(slot->mx);
      if (slot->conn != nullptr) slot->conn->shutdown();
    }
    slot->cv.notify_all();
  }
  cv_.notify_all();

  // Wake the accept thread's poll, which then sees stopping_.  It must be
  // joined *before* the listener fd is closed — closing out from under
  // its poll() is a data race on the fd (and risks fd reuse hitting the
  // wrong descriptor).
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  for (auto& slot : peers_) {
    if (slot == nullptr) continue;
    if (slot->sender.joinable()) slot->sender.join();
    if (slot->reader.joinable()) slot->reader.join();
  }
  if (hb_thread_.joinable()) hb_thread_.join();
}

void SocketSession::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = listener_.accept_fd(0.2);
    if (fd < 0) continue;
    auto conn = std::make_shared<wire::WireConn>(fd, config_.rank,
                                                 /*peer=*/-1, &chaos_);
    wire::Frame frame;
    if (conn->read_frame(&frame) != wire::ReadStatus::ok ||
        frame.kind != wire::FrameKind::hello || frame.src < 0 ||
        frame.src >= config_.nprocs || frame.src == config_.rank) {
      continue;  // refused: wrong version, garbage, or bogus rank
    }
    conn->set_peer(frame.src);
    conn->write_frame(wire::FrameKind::hello_ack, config_.rank, 0, 0,
                      {frame.payload.data(), frame.payload.size()});
    PeerState& peer = peer_state(frame.src);
    bool replacement = false;
    {
      std::lock_guard<std::mutex> lock(peer.mx);
      replacement = peer.conn != nullptr;
    }
    install_conn(peer, std::move(conn), replacement);
  }
}

// ---------------------------------------------------------------------------
// Process-wide session storage
// ---------------------------------------------------------------------------

namespace {

std::unique_ptr<SocketSession>& session_slot() {
  static std::unique_ptr<SocketSession> session;
  return session;
}

SocketSession& session_or_die() {
  SPARTS_CHECK(session_slot() != nullptr,
               "no active socket session (SocketBackend not constructed, "
               "or socket_session_shutdown already ran)");
  return *session_slot();
}

}  // namespace

bool socket_session_active() { return session_slot() != nullptr; }

void socket_session_shutdown() {
  if (session_slot() != nullptr) {
    session_slot()->shutdown();
    session_slot().reset();
  }
}

// ---------------------------------------------------------------------------
// SocketBackend
// ---------------------------------------------------------------------------

SocketBackend::SocketBackend(const SocketConfig& config) : config_(config) {
  if (session_slot() == nullptr) {
    session_slot() = std::make_unique<SocketSession>(config_);
  } else {
    const SocketConfig& live = session_slot()->config();
    SPARTS_CHECK(live.rank == config_.rank && live.nprocs == config_.nprocs,
                 "socket session already exists with rank "
                     << live.rank << "/" << live.nprocs
                     << "; a process hosts exactly one rank");
  }
}

SocketBackend::~SocketBackend() = default;

const Topology& SocketBackend::topology() const {
  return session_or_die().topology();
}

double SocketBackend::measured_rtt() const {
  return session_or_die().measured_rtt();
}

RunStats SocketBackend::run(const std::function<void(Process&)>& spmd) {
  SocketSession& session = session_or_die();
  const std::uint32_t epoch = session.begin_phase();
  if (obs::Tracer::enabled()) obs::Tracer::instance().begin_run();
  WallProcess<SocketSession> proc(session, config_.rank, Clock::now());
  try {
    spmd(proc);
  } catch (const RemoteAbort&) {
    throw;  // the origin already told everyone; re-broadcasting would storm
  } catch (const std::exception& e) {
    session.broadcast_abort(e.what());
    throw;
  } catch (...) {
    session.broadcast_abort("unknown error");
    throw;
  }
  session.end_phase_barrier(epoch);
  RunStats out;
  out.procs.resize(static_cast<std::size_t>(config_.nprocs));
  out.procs[static_cast<std::size_t>(config_.rank)] = proc.finish();
  if (obs::Tracer::enabled()) {
    obs::Tracer::instance().end_run(out.parallel_time());
  }
  return out;
}

}  // namespace sparts::exec
