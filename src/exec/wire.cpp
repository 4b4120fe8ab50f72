// The only translation unit in the repository that may touch raw
// sockets (tools/lint.py: raw-socket-call).  Everything here is plain
// blocking BSD-socket I/O; the threading discipline lives one layer up
// in socket_backend.cpp.
#include "exec/wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace sparts::exec::wire {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string errno_string() { return std::strerror(errno); }

// xorshift64*: tiny deterministic per-link RNG for the chaos shim (we
// deliberately avoid <random> engines here: the shim sits on the write
// path of every frame and needs one multiply, not a Mersenne state).
std::uint64_t xorshift_next(std::uint64_t* s) {
  std::uint64_t x = *s;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *s = x;
  return x * 0x2545F4914F6CDD1Dull;
}

double uniform01(std::uint64_t* s) {
  return static_cast<double>(xorshift_next(s) >> 11) * 0x1.0p-53;
}

void put_u32(std::byte* out, std::uint32_t v) {
  out[0] = static_cast<std::byte>(v & 0xFF);
  out[1] = static_cast<std::byte>((v >> 8) & 0xFF);
  out[2] = static_cast<std::byte>((v >> 16) & 0xFF);
  out[3] = static_cast<std::byte>((v >> 24) & 0xFF);
}

std::uint32_t get_u32(const std::byte* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

}  // namespace

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

namespace {

struct Crc32cTable {
  std::uint32_t t[256];
  Crc32cTable() {
    // Reflected Castagnoli polynomial.
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
  }
};

const Crc32cTable& crc_table() {
  static const Crc32cTable table;
  return table;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  const Crc32cTable& table = crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::byte b : data) {
    c = table.t[(c ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Header encoding
// ---------------------------------------------------------------------------

const char* to_string(FrameKind kind) {
  switch (kind) {
    case FrameKind::hello: return "hello";
    case FrameKind::hello_ack: return "hello_ack";
    case FrameKind::data: return "data";
    case FrameKind::heartbeat: return "heartbeat";
    case FrameKind::heartbeat_ack: return "heartbeat_ack";
    case FrameKind::barrier: return "barrier";
    case FrameKind::barrier_release: return "barrier_release";
    case FrameKind::abort: return "abort";
    case FrameKind::goodbye: return "goodbye";
  }
  return "unknown";
}

void encode_header(const FrameHeader& h, std::byte out[kHeaderBytes]) {
  put_u32(out + 0, h.magic);
  out[4] = static_cast<std::byte>(h.version);
  out[5] = static_cast<std::byte>(h.kind);
  out[6] = static_cast<std::byte>(h.src & 0xFF);
  out[7] = static_cast<std::byte>((h.src >> 8) & 0xFF);
  put_u32(out + 8, h.epoch);
  put_u32(out + 12, static_cast<std::uint32_t>(h.tag));
  put_u32(out + 16, h.len);
  put_u32(out + 20, h.payload_crc);
  put_u32(out + 24, crc32c({out, kHeaderBytes - 4}));
}

bool decode_header(const std::byte in[kHeaderBytes], FrameHeader* out) {
  if (get_u32(in + 24) != crc32c({in, kHeaderBytes - 4})) return false;
  out->magic = get_u32(in + 0);
  out->version = static_cast<std::uint8_t>(in[4]);
  out->kind = static_cast<FrameKind>(in[5]);
  out->src = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(in[6]) |
      (static_cast<std::uint16_t>(in[7]) << 8));
  out->epoch = get_u32(in + 8);
  out->tag = static_cast<std::int32_t>(get_u32(in + 12));
  out->len = get_u32(in + 16);
  out->payload_crc = get_u32(in + 20);
  if (out->magic != kWireMagic) return false;
  if (out->version != kWireVersion) return false;
  const std::uint8_t k = static_cast<std::uint8_t>(out->kind);
  if (k < static_cast<std::uint8_t>(FrameKind::hello) ||
      k > static_cast<std::uint8_t>(FrameKind::goodbye)) {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Chaos spec
// ---------------------------------------------------------------------------

namespace {

double parse_chaos_double(const std::string& token, const std::string& text) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    throw InvalidArgument("SPARTS_CHAOS: bad number in '" + token + "'");
  }
  if (used != text.size() || v < 0.0) {
    throw InvalidArgument("SPARTS_CHAOS: bad number in '" + token + "'");
  }
  return v;
}

long long parse_chaos_int(const std::string& token, const std::string& text) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &used);
  } catch (const std::exception&) {
    throw InvalidArgument("SPARTS_CHAOS: bad integer in '" + token + "'");
  }
  if (used != text.size() || v < 0) {
    throw InvalidArgument("SPARTS_CHAOS: bad integer in '" + token + "'");
  }
  return v;
}

}  // namespace

ChaosSpec ChaosSpec::parse(const std::string& spec) {
  ChaosSpec out;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument("SPARTS_CHAOS: expected key=value, got '" +
                            token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "seed") {
      out.seed = static_cast<std::uint64_t>(parse_chaos_int(token, value));
      if (out.seed == 0) out.seed = 1;  // xorshift must not be seeded 0
    } else if (key == "corrupt") {
      out.corrupt = parse_chaos_double(token, value);
    } else if (key == "trunc") {
      out.trunc = parse_chaos_double(token, value);
    } else if (key == "delay") {
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        throw InvalidArgument("SPARTS_CHAOS: delay expects P:SECONDS in '" +
                              token + "'");
      }
      out.delay_p = parse_chaos_double(token, value.substr(0, colon));
      out.delay_s = parse_chaos_double(token, value.substr(colon + 1));
    } else if (key == "partition") {
      // A-B@T:D
      const std::size_t dash = value.find('-');
      const std::size_t at = value.find('@');
      const std::size_t colon = value.find(':', at == std::string::npos
                                                    ? 0
                                                    : at);
      if (dash == std::string::npos || at == std::string::npos ||
          colon == std::string::npos || dash > at || at > colon) {
        throw InvalidArgument(
            "SPARTS_CHAOS: partition expects A-B@START:DURATION in '" +
            token + "'");
      }
      Partition part;
      part.a = static_cast<index_t>(
          parse_chaos_int(token, value.substr(0, dash)));
      part.b = static_cast<index_t>(
          parse_chaos_int(token, value.substr(dash + 1, at - dash - 1)));
      part.start =
          parse_chaos_double(token, value.substr(at + 1, colon - at - 1));
      part.duration = parse_chaos_double(token, value.substr(colon + 1));
      out.partitions.push_back(part);
    } else {
      throw InvalidArgument("SPARTS_CHAOS: unknown key '" + key + "'");
    }
  }
  return out;
}

ChaosSpec ChaosSpec::from_env() {
  const char* env = std::getenv("SPARTS_CHAOS");
  if (env == nullptr || *env == '\0') return {};
  return parse(env);
}

std::string ChaosSpec::summary() const {
  if (!any()) return "none";
  std::ostringstream os;
  os << "seed=" << seed;
  if (corrupt > 0.0) os << " corrupt=" << corrupt;
  if (trunc > 0.0) os << " trunc=" << trunc;
  if (delay_p > 0.0) os << " delay=" << delay_p << ":" << delay_s << "s";
  for (const Partition& p : partitions) {
    os << " partition=" << p.a << "-" << p.b << "@" << p.start << ":"
       << p.duration << "s";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Endpoints, rank files, rendezvous
// ---------------------------------------------------------------------------

Endpoint parse_host_port(const std::string& text, const std::string& context) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    throw IoError(context + ": expected HOST:PORT, got '" + text + "'");
  }
  Endpoint ep;
  ep.host = text.substr(0, colon);
  if (ep.host.empty()) ep.host = "127.0.0.1";
  const std::string port_text = text.substr(colon + 1);
  if (port_text.empty()) {
    throw IoError(context + ": empty port in '" + text + "'");
  }
  long long port = 0;
  std::size_t used = 0;
  try {
    port = std::stoll(port_text, &used);
  } catch (const std::exception&) {
    throw IoError(context + ": port is not a number in '" + text + "'");
  }
  if (used != port_text.size()) {
    throw IoError(context + ": trailing junk after port in '" + text + "'");
  }
  if (port < 1 || port > 65535) {
    throw IoError(context + ": port " + std::to_string(port) +
                  " outside [1, 65535]");
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

std::vector<Endpoint> parse_rank_file(std::istream& in,
                                      const std::string& filename,
                                      index_t nprocs) {
  SPARTS_CHECK(nprocs >= 1, "rank file needs nprocs >= 1");
  std::vector<Endpoint> endpoints(static_cast<std::size_t>(nprocs));
  std::vector<bool> seen(static_cast<std::size_t>(nprocs), false);
  std::string line;
  long lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = filename + ":" + std::to_string(lineno);
    // Strip comments and surrounding whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string rank_text, addr_text, extra;
    if (!(ls >> rank_text)) continue;  // blank / comment-only line
    if (!(ls >> addr_text)) {
      throw IoError(where + ": expected 'RANK HOST:PORT'");
    }
    if (ls >> extra) {
      throw IoError(where + ": trailing junk '" + extra + "'");
    }
    long long rank = 0;
    std::size_t used = 0;
    try {
      rank = std::stoll(rank_text, &used);
    } catch (const std::exception&) {
      throw IoError(where + ": rank is not a number: '" + rank_text + "'");
    }
    if (used != rank_text.size()) {
      throw IoError(where + ": rank is not a number: '" + rank_text + "'");
    }
    if (rank < 0 || rank >= nprocs) {
      throw IoError(where + ": rank " + std::to_string(rank) +
                    " outside [0, " + std::to_string(nprocs) + ")");
    }
    if (seen[static_cast<std::size_t>(rank)]) {
      throw IoError(where + ": duplicate rank " + std::to_string(rank));
    }
    seen[static_cast<std::size_t>(rank)] = true;
    endpoints[static_cast<std::size_t>(rank)] =
        parse_host_port(addr_text, where);
  }
  for (index_t r = 0; r < nprocs; ++r) {
    if (!seen[static_cast<std::size_t>(r)]) {
      throw IoError(filename + ": missing endpoint for rank " +
                    std::to_string(r));
    }
  }
  return endpoints;
}

std::vector<Endpoint> read_rank_file(const std::string& path, index_t nprocs) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open rank file: " + path);
  return parse_rank_file(in, path, nprocs);
}

void publish_endpoint(const std::string& dir, index_t rank,
                      const Endpoint& ep) {
  const std::string final_path =
      dir + "/rank" + std::to_string(rank) + ".addr";
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path);
    if (!out) throw IoError("cannot write rendezvous file: " + tmp_path);
    out << ep.host << ":" << ep.port << "\n";
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    throw IoError("cannot publish rendezvous file " + final_path + ": " +
                  errno_string());
  }
}

Endpoint wait_endpoint(const std::string& dir, index_t rank,
                       double deadline_s) {
  const std::string path = dir + "/rank" + std::to_string(rank) + ".addr";
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    std::ifstream in(path);
    if (in) {
      std::string text;
      if (std::getline(in, text) && !text.empty()) {
        return parse_host_port(text, path);
      }
    }
    if (seconds_since(t0) > deadline_s) {
      throw TimeoutError("rendezvous timeout: no endpoint for rank " +
                         std::to_string(rank) + " in " + dir + " after " +
                         std::to_string(deadline_s) + "s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

namespace {

/// Resolve `host` to an IPv4 sockaddr.  Numeric addresses and names both
/// work; only AF_INET is used (the backend targets LAN / localhost).
sockaddr_in resolve_ipv4(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    return addr;
  }
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    throw IoError("cannot resolve host '" + host +
                  "': " + gai_strerror(rc));
  }
  addr.sin_addr =
      reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr;
  freeaddrinfo(res);
  return addr;
}

void set_nodelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void Listener::open(const Endpoint& ep) {
  close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw IoError("socket(): " + errno_string());
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = resolve_ipv4(ep.host, ep.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = errno_string();
    ::close(fd);
    throw IoError("bind(" + ep.host + ":" + std::to_string(ep.port) +
                  "): " + err);
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const std::string err = errno_string();
    ::close(fd);
    throw IoError("listen(): " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const std::string err = errno_string();
    ::close(fd);
    throw IoError("getsockname(): " + err);
  }
  fd_ = fd;
  port_ = ntohs(bound.sin_port);
}

int Listener::accept_fd(double timeout_s) {
  if (fd_ < 0) return -1;
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int rc =
      ::poll(&pfd, 1, static_cast<int>(timeout_s * 1000.0));
  if (rc <= 0) return -1;
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return -1;
  set_nodelay(fd);
  return fd;
}

void Listener::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int connect_with_backoff(const Endpoint& ep, double deadline_s) {
  const Clock::time_point t0 = Clock::now();
  double backoff = 0.05;  // seconds; doubles to a 1 s cap
  std::string last_error = "not attempted";
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw IoError("socket(): " + errno_string());
    sockaddr_in addr = resolve_ipv4(ep.host, ep.port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      set_nodelay(fd);
      return fd;
    }
    last_error = errno_string();
    ::close(fd);
    if (seconds_since(t0) + backoff > deadline_s) {
      throw TimeoutError("connect to " + ep.host + ":" +
                         std::to_string(ep.port) + " failed after " +
                         std::to_string(deadline_s) +
                         "s of capped-backoff retries (last error: " +
                         last_error + ")");
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    backoff = std::min(backoff * 2.0, 1.0);
  }
}

// ---------------------------------------------------------------------------
// WireConn
// ---------------------------------------------------------------------------

WireConn::WireConn(int fd, index_t self, index_t peer,
                   const ChaosState* chaos)
    : fd_(fd), self_(self), chaos_(chaos) {
  set_peer(peer);
}

void WireConn::set_peer(index_t peer) {
  peer_ = peer;
  std::uint64_t seed = chaos_ != nullptr ? chaos_->spec.seed : 1;
  // Key the link RNG by the directed (self, peer) pair so both directions
  // of a link draw independent but reproducible streams.
  seed ^= 0x9E3779B97F4A7C15ull *
          (static_cast<std::uint64_t>(self_ + 1) * 8191u +
           static_cast<std::uint64_t>(peer_ + 1));
  rng_ = seed == 0 ? 1 : seed;
}

WireConn::~WireConn() { close(); }

bool WireConn::write_all(const std::byte* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::send(fd_, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool WireConn::write_frame(FrameKind kind, index_t src, std::uint32_t epoch,
                           int tag, std::span<const std::byte> payload) {
  if (fd_ < 0) throw IoError("write_frame on a closed connection");
  FrameHeader h;
  h.kind = kind;
  h.src = static_cast<std::uint16_t>(src);
  h.epoch = epoch;
  h.tag = static_cast<std::int32_t>(tag);
  h.len = static_cast<std::uint32_t>(payload.size());
  h.payload_crc = crc32c(payload);
  std::byte header[kHeaderBytes];
  encode_header(h, header);

  // -------- chaos shim: everything below the CRC computation ----------
  // Kind scoping (see wire.hpp): partition hits DATA and heartbeats,
  // corrupt/trunc/delay hit DATA only; the control plane is exempt.
  const bool chaos_partition_kind = kind == FrameKind::data ||
                                    kind == FrameKind::heartbeat ||
                                    kind == FrameKind::heartbeat_ack;
  const bool chaos_data_kind = kind == FrameKind::data;
  Payload corrupted;  // alive until the write if corruption fires
  if (chaos_ != nullptr && chaos_->spec.any() && chaos_partition_kind) {
    const ChaosSpec& spec = chaos_->spec;
    const double now =
        chaos_->now != nullptr ? chaos_->now(chaos_->ctx) : 0.0;
    for (const ChaosSpec::Partition& part : spec.partitions) {
      const bool on_link = (part.a == self_ && part.b == peer_) ||
                           (part.a == peer_ && part.b == self_);
      if (on_link && now >= part.start &&
          now < part.start + part.duration) {
        return false;  // silently dropped: the link is partitioned
      }
    }
    if (chaos_data_kind && spec.delay_p > 0.0 &&
        uniform01(&rng_) < spec.delay_p) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(spec.delay_s));
    }
    if (chaos_data_kind && spec.trunc > 0.0 &&
        uniform01(&rng_) < spec.trunc) {
      // A genuinely truncated write: emit a prefix, then kill the
      // stream.  The receiver desyncs on the next header and must
      // reconnect.
      const std::size_t total = kHeaderBytes + payload.size();
      const std::size_t cut = 1 + static_cast<std::size_t>(
                                      uniform01(&rng_) *
                                      static_cast<double>(total - 1));
      if (cut <= kHeaderBytes) {
        (void)write_all(header, cut);
      } else {
        (void)write_all(header, kHeaderBytes);
        (void)write_all(payload.data(), cut - kHeaderBytes);
      }
      ::shutdown(fd_, SHUT_RDWR);
      return false;
    }
    if (chaos_data_kind && !payload.empty() && spec.corrupt > 0.0 &&
        uniform01(&rng_) < spec.corrupt) {
      // Flip one payload byte *after* the CRC was computed: the receiver
      // must reject the frame and the envelope must retransmit.
      corrupted.assign(payload.begin(), payload.end());
      const std::size_t at = static_cast<std::size_t>(
          uniform01(&rng_) * static_cast<double>(corrupted.size()));
      corrupted[std::min(at, corrupted.size() - 1)] ^= std::byte{0x40};
      payload = {corrupted.data(), corrupted.size()};
    }
  }
  // --------------------------------------------------------------------

  if (!write_all(header, kHeaderBytes)) return false;
  if (!payload.empty() && !write_all(payload.data(), payload.size())) {
    return false;
  }
  if (obs::metrics_enabled()) {
    obs::metrics().counter("sock.bytes_tx").add(
        static_cast<std::int64_t>(kHeaderBytes + payload.size()));
    obs::metrics().counter("sock.frames_tx").add(1);
  }
  return true;
}

ReadStatus WireConn::read_frame(Frame* out) {
  if (fd_ < 0) return ReadStatus::closed;
  std::byte header[kHeaderBytes];
  std::size_t done = 0;
  while (done < kHeaderBytes) {
    const ssize_t n = ::recv(fd_, header + done, kHeaderBytes - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::closed;
    }
    if (n == 0) return ReadStatus::closed;
    done += static_cast<std::size_t>(n);
  }
  FrameHeader h;
  if (!decode_header(header, &h)) return ReadStatus::closed;  // desync
  Payload payload;
  payload.resize(h.len);
  done = 0;
  while (done < h.len) {
    const ssize_t n = ::recv(fd_, payload.data() + done, h.len - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::closed;
    }
    if (n == 0) return ReadStatus::closed;
    done += static_cast<std::size_t>(n);
  }
  if (obs::metrics_enabled()) {
    obs::metrics().counter("sock.bytes_rx").add(
        static_cast<std::int64_t>(kHeaderBytes + payload.size()));
  }
  if (crc32c({payload.data(), payload.size()}) != h.payload_crc) {
    // The stream is still framed (the verified header carried the
    // length); drop just this frame.
    if (obs::metrics_enabled()) {
      obs::metrics().counter("sock.crc_rejected").add(1);
    }
    return ReadStatus::bad_payload;
  }
  out->kind = h.kind;
  out->src = static_cast<index_t>(h.src);
  out->epoch = h.epoch;
  out->tag = static_cast<int>(h.tag);
  out->payload = std::move(payload);
  return ReadStatus::ok;
}

void WireConn::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void WireConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace sparts::exec::wire
