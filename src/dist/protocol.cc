#include "dist/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "core/statistics.h"

namespace scpm {
namespace dist {

namespace {

// Bumped whenever the embedded ScpmCounters field list changes, so a
// payload written with another field list is rejected, not misread.
constexpr std::uint64_t kResultVersion = 2;

const char* TypeName(FrameType type) {
  switch (type) {
    case FrameType::kBatch:
      return "batch";
    case FrameType::kExit:
      return "exit";
    case FrameType::kHeartbeat:
      return "heartbeat";
    case FrameType::kResult:
      return "result";
    case FrameType::kFail:
      return "fail";
  }
  return "?";
}

bool ParseType(const std::string& name, FrameType* out) {
  for (FrameType t : {FrameType::kBatch, FrameType::kExit,
                      FrameType::kHeartbeat, FrameType::kResult,
                      FrameType::kFail}) {
    if (name == TypeName(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

Status SendAll(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

Status RecvAll(int fd, char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::recv(fd, data + off, size - off, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IoError("peer closed the connection");
    off += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

std::uint64_t DoubleBits(double d) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsDouble(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

std::uint64_t Checksum(const std::string& data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Status WriteFrame(int fd, const Frame& frame, bool corrupt_payload) {
  std::string header = "scpm-dist ";
  header += TypeName(frame.type);
  header += ' ';
  header += std::to_string(frame.batch_id);
  header += ' ';
  header += std::to_string(frame.payload.size());
  header += ' ';
  header += std::to_string(Checksum(frame.payload));
  header += '\n';
  std::string payload = frame.payload;
  if (corrupt_payload && !payload.empty()) {
    payload[payload.size() / 2] ^= 0x40;
  }
  SCPM_RETURN_IF_ERROR(SendAll(fd, header.data(), header.size()));
  return SendAll(fd, payload.data(), payload.size());
}

Result<ReadFrameResult> ReadFrame(int fd) {
  // The header is one newline-terminated line; read it byte-wise (it is
  // tens of bytes against payloads of kilobytes, and keeps the payload
  // read exact).
  std::string header;
  for (;;) {
    char c;
    SCPM_RETURN_IF_ERROR(RecvAll(fd, &c, 1));
    if (c == '\n') break;
    header += c;
    if (header.size() > 256) {
      return Status::IoError("dist frame header overlong");
    }
  }
  std::istringstream in(header);
  std::string magic;
  std::string type_name;
  std::uint64_t batch_id = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
  if (!(in >> magic >> type_name >> batch_id >> payload_size >> checksum) ||
      magic != "scpm-dist") {
    return Status::IoError("malformed dist frame header: " + header);
  }
  ReadFrameResult out;
  if (!ParseType(type_name, &out.frame.type)) {
    return Status::IoError("unknown dist frame type: " + type_name);
  }
  if (payload_size > (std::uint64_t{1} << 32)) {
    return Status::IoError("dist frame payload implausibly large");
  }
  out.frame.batch_id = batch_id;
  out.frame.payload.resize(payload_size);
  if (payload_size > 0) {
    SCPM_RETURN_IF_ERROR(RecvAll(fd, out.frame.payload.data(), payload_size));
  }
  out.checksum_ok = Checksum(out.frame.payload) == checksum;
  return out;
}

std::string EncodeBatch(const BatchPayload& batch) {
  std::ostringstream os;
  os << "dist-batch 1 " << batch.max_evaluations << ' ' << batch.wave << ' '
     << batch.lease_ms << '\n';
  (void)batch.checkpoint.Save(os);
  return os.str();
}

Result<BatchPayload> DecodeBatch(const std::string& text) {
  std::istringstream in(text);
  std::string magic;
  std::uint64_t version = 0;
  BatchPayload batch;
  if (!(in >> magic >> version >> batch.max_evaluations >> batch.wave >>
        batch.lease_ms) ||
      magic != "dist-batch" || version != 1) {
    return Status::IoError("malformed dist batch payload");
  }
  Result<EngineCheckpoint> cp = EngineCheckpoint::Load(in);
  if (!cp.ok()) return cp.status();
  batch.checkpoint = std::move(cp).value();
  return batch;
}

std::string EncodeResult(const ResultPayload& result) {
  std::ostringstream os;
  os << "dist-result " << kResultVersion << '\n';
  os << "exhausted " << (result.exhausted ? 1 : 0) << '\n';
  os << "counters";
  WriteScpmCountersFields(os, result.counters) << '\n';
  os << "emissions " << result.emissions.size() << '\n';
  for (const ResultPayload::Emission& e : result.emissions) {
    os << "key " << e.key.size();
    for (const std::uint32_t k : e.key) os << ' ' << k;
    os << '\n';
    const AttributeSetStats& s = e.output.stats;
    os << "stats " << s.attributes.size();
    for (const AttributeId a : s.attributes) os << ' ' << a;
    os << ' ' << s.support << ' ' << s.covered << ' '
       << DoubleBits(s.epsilon) << ' ' << DoubleBits(s.expected_epsilon)
       << ' ' << DoubleBits(s.delta) << '\n';
    // Pattern attribute sets equal the stats row's attributes by
    // construction, so they are reconstructed on decode, not sent.
    os << "patterns " << e.output.patterns.size() << '\n';
    for (const StructuralCorrelationPattern& p : e.output.patterns) {
      os << DoubleBits(p.min_degree_ratio) << ' '
         << DoubleBits(p.edge_density) << ' ' << p.vertices.size();
      for (const VertexId v : p.vertices) os << ' ' << v;
      os << '\n';
    }
  }
  os << "remainder " << (result.exhausted ? 0 : 1) << '\n';
  if (!result.exhausted) {
    (void)result.remainder.Save(os);
  }
  os << "dist-end\n";
  return os.str();
}

Result<ResultPayload> DecodeResult(const std::string& text) {
  std::istringstream in(text);
  const auto bad = [](const char* what) {
    return Status::IoError(std::string("malformed dist result payload: ") +
                           what);
  };
  std::string tok;
  std::uint64_t version = 0;
  ResultPayload result;
  if (!(in >> tok >> version) || tok != "dist-result") return bad("magic");
  if (version != kResultVersion) {
    return Status::IoError("unsupported dist result payload version " +
                           std::to_string(version));
  }
  int exhausted = 0;
  if (!(in >> tok >> exhausted) || tok != "exhausted") return bad("exhausted");
  result.exhausted = exhausted != 0;
  if (!(in >> tok) || tok != "counters" ||
      !ReadScpmCountersFields(in, &result.counters)) {
    return bad("counters");
  }
  std::uint64_t emissions = 0;
  if (!(in >> tok >> emissions) || tok != "emissions") return bad("emissions");
  result.emissions.reserve(emissions);
  for (std::uint64_t i = 0; i < emissions; ++i) {
    ResultPayload::Emission e;
    std::uint64_t n = 0;
    if (!(in >> tok >> n) || tok != "key") return bad("key");
    e.key.resize(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      if (!(in >> e.key[k])) return bad("key item");
    }
    AttributeSetStats& s = e.output.stats;
    if (!(in >> tok >> n) || tok != "stats") return bad("stats");
    s.attributes.resize(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      if (!(in >> s.attributes[k])) return bad("stats attr");
    }
    std::uint64_t eps = 0;
    std::uint64_t expected = 0;
    std::uint64_t delta = 0;
    if (!(in >> s.support >> s.covered >> eps >> expected >> delta)) {
      return bad("stats fields");
    }
    s.epsilon = BitsDouble(eps);
    s.expected_epsilon = BitsDouble(expected);
    s.delta = BitsDouble(delta);
    std::uint64_t patterns = 0;
    if (!(in >> tok >> patterns) || tok != "patterns") return bad("patterns");
    e.output.patterns.resize(patterns);
    for (std::uint64_t p = 0; p < patterns; ++p) {
      StructuralCorrelationPattern& pat = e.output.patterns[p];
      std::uint64_t mdr = 0;
      std::uint64_t density = 0;
      std::uint64_t verts = 0;
      if (!(in >> mdr >> density >> verts)) return bad("pattern");
      pat.min_degree_ratio = BitsDouble(mdr);
      pat.edge_density = BitsDouble(density);
      pat.attributes = s.attributes;
      pat.vertices.resize(verts);
      for (std::uint64_t v = 0; v < verts; ++v) {
        if (!(in >> pat.vertices[v])) return bad("pattern vertex");
      }
    }
    result.emissions.push_back(std::move(e));
  }
  int remainder = 0;
  if (!(in >> tok >> remainder) || tok != "remainder") return bad("remainder");
  if ((remainder != 0) == result.exhausted) return bad("remainder flag");
  if (remainder != 0) {
    Result<EngineCheckpoint> cp = EngineCheckpoint::Load(in);
    if (!cp.ok()) return cp.status();
    result.remainder = std::move(cp).value();
  }
  if (!(in >> tok) || tok != "dist-end") return bad("trailer");
  return result;
}

}  // namespace dist
}  // namespace scpm
