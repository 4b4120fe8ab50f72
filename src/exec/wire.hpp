// The wire layer of the socket process backend: framing, checksums,
// connection establishment, rendezvous, and the OS-level chaos shim.
//
// Everything that touches a raw socket lives in wire.cpp — the
// `raw-socket-call` lint rule (tools/lint.py) keeps it that way, so the
// framing invariants below cannot be bypassed from algorithm code:
//
//   * Every frame is length-prefixed and double-checksummed: a fixed
//     28-byte header (magic, version, kind, source rank, phase epoch,
//     tag, payload length, payload CRC32C, header CRC32C) followed by
//     the payload bytes.
//   * A payload whose CRC does not match is *dropped in place* — the
//     stream stays framed (the header told us the length), the receiver
//     counts a `sock.crc_rejected`, and the reliability envelope
//     (exec/reliable.hpp) retransmits.  Corruption costs a retransmit,
//     never a wrong byte delivered.
//   * A header whose CRC or magic does not match means the stream is
//     desynchronized (a truncated write, a garbage peer): the connection
//     is declared dead and torn down; reconnection with capped
//     exponential backoff — or failure detection — takes over above.
//
// Wire-format versioning rule (DESIGN.md): any change to the header
// layout, the frame kinds' meaning, or the checksum algorithm MUST bump
// kWireVersion.  A HELLO with a different version is refused with a
// clear error instead of being half-parsed; there is no cross-version
// negotiation, because every rank of one solve runs the same binary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "exec/process.hpp"

namespace sparts::exec::wire {

/// CRC32C (Castagnoli, the iSCSI polynomial) of `data`, software
/// slice-by-one.  crc32c({}) == 0; the "123456789" test vector is
/// 0xE3069283 (unit-tested).
std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed = 0);

inline constexpr std::uint32_t kWireMagic = 0x53505731u;  // "SPW1"
inline constexpr std::uint8_t kWireVersion = 1;

/// Frame kinds.  DATA carries SPMD payloads (epoch-tagged so a straggler
/// frame from phase k can never be delivered into phase k+1); everything
/// else is session control.
enum class FrameKind : std::uint8_t {
  hello = 1,      ///< connection handshake: "I am rank `src`"
  hello_ack,      ///< handshake reply (echoes the hello timestamp payload)
  data,           ///< SPMD message: (src, epoch, tag, payload)
  heartbeat,      ///< liveness probe, payload = sender's send-time (double)
  heartbeat_ack,  ///< echo of a heartbeat payload (RTT measurement)
  barrier,        ///< end-of-phase barrier entry (to rank 0)
  barrier_release,///< end-of-phase barrier release (from rank 0)
  abort,          ///< rank died with an error; payload = reason string
  goodbye,        ///< clean session shutdown; peer must not be suspected
};

const char* to_string(FrameKind kind);

/// Decoded frame header.
struct FrameHeader {
  std::uint32_t magic = kWireMagic;
  std::uint8_t version = kWireVersion;
  FrameKind kind = FrameKind::data;
  std::uint16_t src = 0;     ///< sender world rank
  std::uint32_t epoch = 0;   ///< session phase number (DATA filtering)
  std::int32_t tag = 0;
  std::uint32_t len = 0;     ///< payload bytes
  std::uint32_t payload_crc = 0;
};

/// Serialized header size: 4+1+1+2+4+4+4+4 fields + 4 header CRC.
inline constexpr std::size_t kHeaderBytes = 28;

void encode_header(const FrameHeader& h, std::byte out[kHeaderBytes]);
/// False when the magic, version, or header CRC does not match (stream
/// desync); the decoded fields are only valid on true.
bool decode_header(const std::byte in[kHeaderBytes], FrameHeader* out);

/// One received frame.
struct Frame {
  FrameKind kind = FrameKind::data;
  index_t src = -1;
  std::uint32_t epoch = 0;
  int tag = 0;
  Payload payload;
};

/// Result of WireConn::read_frame.
enum class ReadStatus {
  ok,           ///< *out holds a verified frame
  bad_payload,  ///< payload CRC mismatch: frame dropped, stream still synced
  closed,       ///< EOF, hard error, or header desync: drop the connection
};

// ---------------------------------------------------------------------------
// Chaos shim: OS-socket-level fault injection (SPARTS_CHAOS), below
// everything the in-process FaultyBackend can reach.
// ---------------------------------------------------------------------------

/// Parsed SPARTS_CHAOS spec.  Grammar (comma-separated, seeded and
/// deterministic per (seed, src, dst) link):
///   seed=N            RNG seed (default 1)
///   corrupt=P         flip one payload byte after the CRC was computed,
///                     with probability P per frame (receiver rejects it)
///   trunc=P           write only a prefix of the frame and kill the
///                     connection, with probability P per frame (the
///                     receiver desyncs and must reconnect)
///   delay=P:S         sleep S wall seconds before a write with
///                     probability P (slow link)
///   partition=A-B@T:D drop every frame between world ranks A and B
///                     (both directions) from T until T+D seconds after
///                     session start (heals afterwards)
///
/// Scope: corrupt/trunc/delay hit DATA frames only; partition drops DATA
/// and heartbeats (so a long partition drives failure detection).  The
/// session control plane (hello/barrier/abort/goodbye) is exempt — chaos
/// models a faulty network under the algorithm's traffic, not a broken
/// session protocol, and keeping aborts deliverable is what turns every
/// chaos outcome into either recovery or a *structured* error.
struct ChaosSpec {
  struct Partition {
    index_t a = -1;
    index_t b = -1;
    double start = 0.0;
    double duration = 0.0;
  };
  std::uint64_t seed = 1;
  double corrupt = 0.0;
  double trunc = 0.0;
  double delay_p = 0.0;
  double delay_s = 0.0;
  std::vector<Partition> partitions;

  bool any() const {
    return corrupt > 0.0 || trunc > 0.0 || delay_p > 0.0 ||
           !partitions.empty();
  }
  /// Parse a spec string; throws InvalidArgument with the offending
  /// token on malformed input.
  static ChaosSpec parse(const std::string& spec);
  /// Parse SPARTS_CHAOS if set and non-empty, else an inert spec.
  static ChaosSpec from_env();
  std::string summary() const;
};

// ---------------------------------------------------------------------------
// Endpoints, rank files, rendezvous
// ---------------------------------------------------------------------------

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parse "host:port" (host may be empty -> 127.0.0.1).  Throws IoError
/// naming `context` on junk, a non-numeric port, or a port outside
/// [1, 65535].
Endpoint parse_host_port(const std::string& text, const std::string& context);

/// Parse a rank file: one "RANK HOST:PORT" line per rank, '#' comments
/// and blank lines ignored.  Hardened like the Matrix Market reader:
/// every diagnostic carries `filename:line`; duplicate ranks, ranks
/// outside [0, nprocs), ports outside [1, 65535], trailing junk, and
/// missing ranks are all rejected.  Returns endpoints indexed by rank.
std::vector<Endpoint> parse_rank_file(std::istream& in,
                                      const std::string& filename,
                                      index_t nprocs);
std::vector<Endpoint> read_rank_file(const std::string& path, index_t nprocs);

/// Rendezvous directory: each rank binds an ephemeral port and publishes
/// "HOST:PORT" in <dir>/rank<R>.addr (written to a temp name and renamed,
/// so readers never see a partial file).  Avoids the port races a static
/// rank file invites on one host.
void publish_endpoint(const std::string& dir, index_t rank,
                      const Endpoint& ep);
/// Poll for rank `rank`'s endpoint file until `deadline_s` seconds of
/// wall time elapse; throws TimeoutError on expiry.
Endpoint wait_endpoint(const std::string& dir, index_t rank,
                       double deadline_s);

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// Listening TCP socket.  port 0 binds an ephemeral port; port() reports
/// the actual one.
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind + listen on `host:port`.  Throws IoError on failure.
  void open(const Endpoint& ep);
  bool valid() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }
  /// Accept one connection, waiting at most `timeout_s` (poll-based).
  /// Returns the connected fd, or -1 on timeout / a closed listener.
  int accept_fd(double timeout_s);
  /// Stop listening without closing the fd: a thread blocked in
  /// accept_fd() returns -1 at once, and so does every later call.
  void shutdown();
  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connect to `ep`, retrying with capped exponential backoff (50 ms
/// doubling to a 1 s cap) until `deadline_s` seconds have elapsed.
/// Returns the connected fd or throws TimeoutError carrying the last
/// OS error.
int connect_with_backoff(const Endpoint& ep, double deadline_s);

/// Shared chaos context for every connection of a session: the spec plus
/// the session epoch the partition windows are measured from.
struct ChaosState {
  ChaosSpec spec;
  /// Seconds since the session started (monotonic), supplied by the
  /// session so partitions share its clock.
  double (*now)(const void* ctx) = nullptr;
  const void* ctx = nullptr;
};

/// A framed, full-duplex connection.  One thread may write while another
/// reads; writes and reads are individually single-threaded.
class WireConn {
 public:
  WireConn() = default;
  /// Takes ownership of `fd`.  `self`/`peer` are world ranks (used by the
  /// chaos shim to key its per-link RNG and partitions).
  WireConn(int fd, index_t self, index_t peer, const ChaosState* chaos);
  ~WireConn();
  WireConn(WireConn&&) = delete;
  WireConn& operator=(WireConn&&) = delete;

  bool valid() const { return fd_ >= 0; }

  /// Re-key the chaos RNG once the peer's rank is learned (the accepting
  /// side constructs the connection before the HELLO names the peer).
  /// Must be called before any data frames flow.
  void set_peer(index_t peer);

  /// Write one frame (blocking; loops over partial writes and EINTR).
  /// Returns false when the chaos shim dropped or truncated the frame
  /// (after truncation the connection is dead); throws IoError on a hard
  /// OS error with the connection already closed for writing.
  bool write_frame(FrameKind kind, index_t src, std::uint32_t epoch, int tag,
                   std::span<const std::byte> payload);

  /// Read one frame (blocking).
  ReadStatus read_frame(Frame* out);

  /// Wake any blocked reader/writer and forbid further I/O (used by the
  /// owner thread to shut the connection down from outside).
  void shutdown();
  void close();

 private:
  bool write_all(const std::byte* data, std::size_t size);

  int fd_ = -1;
  index_t self_ = -1;
  index_t peer_ = -1;
  const ChaosState* chaos_ = nullptr;
  std::uint64_t rng_ = 0;  ///< per-link xorshift state (seeded from spec)
};

}  // namespace sparts::exec::wire
