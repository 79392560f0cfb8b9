// EngineCheckpoint codec: the checksummed binary v2 form ("SCPB").
//
// The encoding is versioned and length-prefixed, and interns covered
// vertex sets and attribute sets in shared dictionary tables so a set
// referenced by many frontier entries is stored once. Table entries are
// sorted lexicographically and front-coded (longest common prefix with
// the previous entry + delta-encoded suffix), ids and all scalars are
// LEB128 varints, and the payload carries an FNV-1a-64 checksum so
// truncation and bit flips fail parsing instead of resuming from
// silently wrong state. The dictionary approach follows ltsmin's
// tree-compressed state database: frontier entries share most of their
// covered sets, so structural sharing — not per-entry compression — is
// where the bytes go.
//
// The length prefix lets an embedder (the journal's q<id>.ckpt, a meta
// header line followed by the checkpoint) read a checkpoint mid-stream
// and know exactly where it ends. Any other leading bytes —
// including the retired v1 text form ("scpm-checkpoint 1 ...") — are a
// typed kInvalidArgument; there is no migration path.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "graph/types.h"
#include "util/status.h"

namespace scpm {
namespace {

// Layout ("fixed64" = 8 bytes little-endian, everything else varint):
//
//   "SCPB"  varint version=2  fixed64 fnv1a64(payload)  varint |payload|
//   payload:
//     num_vertices  num_attributes  num_edges   fixed64 options_fp
//     byte phase (1 = roots, 0 = tree)
//     vertex-set table     (front-coded, see AppendSetTable)
//     attribute-set table  (same encoding)
//     done-roots:    count, then per root  (index, attr, vset-id)
//     root-batches:  count, then per batch (n, then n x (index, attr))
//     classes:       count, then per class (path-len, path...,
//                    member-count, then per member (aset-id, vset-id))
//     expansions:    count, then per entry (class-index, sibling)
//
// The checksum covers the payload only; the prefix fields protect
// themselves (a corrupt length or version fails structurally). Decoding
// must consume the payload exactly, which together with the
// deterministic table order makes decode(encode(x)) re-encode
// byte-identically.

constexpr char kBinaryMagic[4] = {'S', 'C', 'P', 'B'};
constexpr std::uint64_t kBinaryVersion = 2;

std::uint64_t Fnv1a64(const char* data, std::size_t size) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

void AppendVarint(std::string* out, std::uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>(0x80u | (value & 0x7fu)));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

void AppendFixed64(std::string* out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xffu));
  }
}

// Bounds-checked cursor over the decoded payload. All Read* methods
// latch `ok` false on underflow / overlong input and then read zeros,
// so decode loops can check once per structure instead of per field.
struct ByteReader {
  const char* p = nullptr;
  const char* end = nullptr;
  bool ok = true;

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

  std::uint64_t ReadVarint() {
    std::uint64_t value = 0;
    int shift = 0;
    while (ok && p < end) {
      const unsigned char byte = static_cast<unsigned char>(*p++);
      if (shift == 63 && byte > 1) break;  // would overflow 64 bits
      value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
      if ((byte & 0x80u) == 0) return value;
      shift += 7;
      if (shift > 63) break;
    }
    ok = false;
    return 0;
  }

  std::uint64_t ReadFixed64() {
    if (remaining() < 8) {
      ok = false;
      return 0;
    }
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(static_cast<unsigned char>(*p++))
               << (8 * i);
    }
    return value;
  }

  std::uint8_t ReadByte() {
    if (p >= end) {
      ok = false;
      return 0;
    }
    return static_cast<std::uint8_t>(*p++);
  }

  // Varint that must fit the given structural bound (counts are capped
  // by the bytes actually present: every encoded element costs >= 1
  // byte, so a count beyond `remaining` is malformed by construction).
  std::uint64_t ReadCount(std::uint64_t limit) {
    const std::uint64_t value = ReadVarint();
    if (value > limit || value > remaining()) ok = false;
    return ok ? value : 0;
  }
};

// Interns sorted u32 sets; ids are assigned in lexicographic order so
// the encoded table is deterministic and front-coding sees maximally
// similar neighbors. Keys are pointers into the checkpoint's own sets
// (which outlive the interner) compared by value — encode never copies
// a covered set.
class SetInterner {
 public:
  void Add(const std::vector<std::uint32_t>& set) { ids_.emplace(&set, 0); }

  void Freeze() {
    std::uint64_t id = 0;
    for (auto& entry : ids_) entry.second = id++;
  }

  std::uint64_t IdOf(const std::vector<std::uint32_t>& set) const {
    return ids_.find(&set)->second;
  }

  // Front-coded table: per entry a header varint (lcp << 1 | raw), then
  // the suffix count and suffix values. For the sorted-unique fast path
  // (raw = 0) suffix values are deltas against the previous element of
  // the entry (the first suffix element is absolute when lcp == 0). A
  // non-monotone set — impossible for engine-produced checkpoints but
  // cheap to stay total over — is stored raw with lcp 0.
  void AppendTable(std::string* out) const {
    AppendVarint(out, ids_.size());
    const std::vector<std::uint32_t>* prev = nullptr;
    for (const auto& entry : ids_) {
      const std::vector<std::uint32_t>& set = *entry.first;
      bool sorted = true;
      for (std::size_t j = 1; j < set.size(); ++j) {
        if (set[j] <= set[j - 1]) {
          sorted = false;
          break;
        }
      }
      std::size_t lcp = 0;
      if (sorted && prev != nullptr) {
        const std::size_t max = std::min(prev->size(), set.size());
        while (lcp < max && (*prev)[lcp] == set[lcp]) ++lcp;
      }
      AppendVarint(out, (static_cast<std::uint64_t>(lcp) << 1) |
                            (sorted ? 0u : 1u));
      AppendVarint(out, set.size() - lcp);
      for (std::size_t j = lcp; j < set.size(); ++j) {
        if (!sorted || j == 0) {
          AppendVarint(out, set[j]);
        } else {
          AppendVarint(out, set[j] - set[j - 1]);
        }
      }
      prev = &set;
    }
  }

 private:
  struct DerefLess {
    bool operator()(const std::vector<std::uint32_t>* a,
                    const std::vector<std::uint32_t>* b) const {
      return *a < *b;
    }
  };
  std::map<const std::vector<std::uint32_t>*, std::uint64_t, DerefLess> ids_;
};

bool ReadSetTable(ByteReader* r, std::vector<std::vector<std::uint32_t>>* out) {
  const std::uint64_t count = r->ReadCount(std::uint64_t{1} << 32);
  out->clear();
  out->reserve(static_cast<std::size_t>(count));
  for (std::uint64_t k = 0; k < count && r->ok; ++k) {
    const std::uint64_t header = r->ReadVarint();
    const bool raw = (header & 1) != 0;
    const std::uint64_t lcp = header >> 1;
    if (raw && lcp != 0) r->ok = false;
    if (out->empty() ? lcp != 0 : lcp > out->back().size()) r->ok = false;
    const std::uint64_t suffix = r->ReadCount(std::uint64_t{1} << 32);
    if (!r->ok) break;
    std::vector<std::uint32_t> set;
    set.reserve(static_cast<std::size_t>(lcp + suffix));
    if (lcp > 0) {
      const std::vector<std::uint32_t>& prev = out->back();
      set.assign(prev.begin(), prev.begin() + static_cast<std::size_t>(lcp));
    }
    for (std::uint64_t j = 0; j < suffix && r->ok; ++j) {
      const std::uint64_t v = r->ReadVarint();
      std::uint64_t value = v;
      if (!raw && !set.empty()) value = set.back() + v;
      if (value > 0xffffffffull) r->ok = false;
      if (r->ok) set.push_back(static_cast<std::uint32_t>(value));
    }
    out->push_back(std::move(set));
  }
  return r->ok;
}

std::string EncodeBinary(const EngineCheckpoint& cp) {
  SetInterner vsets;
  SetInterner asets;
  for (const EngineCheckpoint::DoneRoot& dr : cp.done_roots) {
    vsets.Add(dr.covered);
  }
  for (const EngineCheckpoint::PendingClass& pc : cp.classes) {
    for (const EngineCheckpoint::Member& m : pc.members) {
      vsets.Add(m.covered);
      asets.Add(m.items);
    }
  }
  vsets.Freeze();
  asets.Freeze();

  std::string payload;
  AppendVarint(&payload, cp.num_vertices);
  AppendVarint(&payload, cp.num_attributes);
  AppendVarint(&payload, cp.num_edges);
  AppendFixed64(&payload, cp.options_fingerprint);
  payload.push_back(cp.in_roots_phase ? '\x01' : '\x00');
  vsets.AppendTable(&payload);
  asets.AppendTable(&payload);

  AppendVarint(&payload, cp.done_roots.size());
  for (const EngineCheckpoint::DoneRoot& dr : cp.done_roots) {
    AppendVarint(&payload, dr.index);
    AppendVarint(&payload, dr.attr);
    AppendVarint(&payload, vsets.IdOf(dr.covered));
  }
  AppendVarint(&payload, cp.root_batches.size());
  for (const EngineCheckpoint::PendingRootBatch& batch : cp.root_batches) {
    AppendVarint(&payload, batch.attrs.size());
    for (std::size_t k = 0; k < batch.attrs.size(); ++k) {
      AppendVarint(&payload, batch.indices[k]);
      AppendVarint(&payload, batch.attrs[k]);
    }
  }
  AppendVarint(&payload, cp.classes.size());
  for (const EngineCheckpoint::PendingClass& pc : cp.classes) {
    AppendVarint(&payload, pc.path.size());
    for (std::uint32_t p : pc.path) AppendVarint(&payload, p);
    AppendVarint(&payload, pc.members.size());
    for (const EngineCheckpoint::Member& m : pc.members) {
      AppendVarint(&payload, asets.IdOf(m.items));
      AppendVarint(&payload, vsets.IdOf(m.covered));
    }
  }
  AppendVarint(&payload, cp.expansions.size());
  for (const EngineCheckpoint::PendingExpansion& e : cp.expansions) {
    AppendVarint(&payload, e.class_index);
    AppendVarint(&payload, e.sibling);
  }

  std::string out;
  out.reserve(payload.size() + 24);
  out.append(kBinaryMagic, sizeof(kBinaryMagic));
  AppendVarint(&out, kBinaryVersion);
  AppendFixed64(&out, Fnv1a64(payload.data(), payload.size()));
  AppendVarint(&out, payload.size());
  out.append(payload);
  return out;
}

// The caller already consumed and checked the 4-byte magic; `is` is
// positioned at the version varint.
Result<EngineCheckpoint> LoadBody(std::istream& is) {
  const Status malformed = Status::InvalidArgument("malformed checkpoint");
  // Prefix fields (version, checksum, length) are read byte-by-byte off
  // the stream; the payload is then pulled in one read of exactly the
  // declared length, leaving any trailer bytes unconsumed.
  auto read_prefix_varint = [&is](std::uint64_t* out) {
    std::uint64_t value = 0;
    int shift = 0;
    for (;;) {
      const int c = is.get();
      if (c == std::char_traits<char>::eof() || shift > 63) return false;
      value |= static_cast<std::uint64_t>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) break;
      shift += 7;
    }
    *out = value;
    return true;
  };
  std::uint64_t version = 0;
  if (!read_prefix_varint(&version)) return malformed;
  if (version != kBinaryVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  char checksum_bytes[8];
  if (!is.read(checksum_bytes, 8)) return malformed;
  std::uint64_t checksum = 0;
  for (int i = 0; i < 8; ++i) {
    checksum |= static_cast<std::uint64_t>(
                    static_cast<unsigned char>(checksum_bytes[i]))
                << (8 * i);
  }
  std::uint64_t payload_len = 0;
  if (!read_prefix_varint(&payload_len)) return malformed;
  if (payload_len > (std::uint64_t{1} << 40)) return malformed;
  std::string payload(static_cast<std::size_t>(payload_len), '\0');
  if (payload_len > 0 &&
      !is.read(payload.data(), static_cast<std::streamsize>(payload_len))) {
    return malformed;
  }
  if (Fnv1a64(payload.data(), payload.size()) != checksum) {
    return Status::InvalidArgument("checkpoint checksum mismatch");
  }

  ByteReader r{payload.data(), payload.data() + payload.size(), true};
  EngineCheckpoint cp;
  cp.num_vertices = static_cast<VertexId>(r.ReadVarint());
  cp.num_attributes = r.ReadVarint();
  cp.num_edges = r.ReadVarint();
  cp.options_fingerprint = r.ReadFixed64();
  const std::uint8_t phase = r.ReadByte();
  if (phase > 1) r.ok = false;
  cp.in_roots_phase = phase == 1;

  std::vector<std::vector<std::uint32_t>> vsets;
  std::vector<std::vector<std::uint32_t>> asets;
  if (!r.ok || !ReadSetTable(&r, &vsets) || !ReadSetTable(&r, &asets)) {
    return malformed;
  }

  std::uint64_t count = r.ReadCount(std::uint64_t{1} << 32);
  for (std::uint64_t k = 0; k < count && r.ok; ++k) {
    EngineCheckpoint::DoneRoot dr;
    dr.index = static_cast<std::uint32_t>(r.ReadVarint());
    dr.attr = static_cast<AttributeId>(r.ReadVarint());
    const std::uint64_t id = r.ReadVarint();
    if (id >= vsets.size()) {
      r.ok = false;
      break;
    }
    dr.covered = vsets[static_cast<std::size_t>(id)];
    cp.done_roots.push_back(std::move(dr));
  }

  count = r.ReadCount(std::uint64_t{1} << 32);
  for (std::uint64_t k = 0; k < count && r.ok; ++k) {
    EngineCheckpoint::PendingRootBatch batch;
    const std::uint64_t n = r.ReadCount(std::uint64_t{1} << 32);
    for (std::uint64_t j = 0; j < n && r.ok; ++j) {
      batch.indices.push_back(static_cast<std::uint32_t>(r.ReadVarint()));
      batch.attrs.push_back(static_cast<AttributeId>(r.ReadVarint()));
    }
    cp.root_batches.push_back(std::move(batch));
  }

  count = r.ReadCount(std::uint64_t{1} << 32);
  for (std::uint64_t k = 0; k < count && r.ok; ++k) {
    EngineCheckpoint::PendingClass pc;
    const std::uint64_t path_len = r.ReadCount(std::uint64_t{1} << 32);
    for (std::uint64_t j = 0; j < path_len && r.ok; ++j) {
      pc.path.push_back(static_cast<std::uint32_t>(r.ReadVarint()));
    }
    const std::uint64_t members = r.ReadCount(std::uint64_t{1} << 32);
    for (std::uint64_t j = 0; j < members && r.ok; ++j) {
      EngineCheckpoint::Member m;
      const std::uint64_t aid = r.ReadVarint();
      const std::uint64_t vid = r.ReadVarint();
      if (aid >= asets.size() || vid >= vsets.size()) {
        r.ok = false;
        break;
      }
      m.items = asets[static_cast<std::size_t>(aid)];
      m.covered = vsets[static_cast<std::size_t>(vid)];
      pc.members.push_back(std::move(m));
    }
    cp.classes.push_back(std::move(pc));
  }

  count = r.ReadCount(std::uint64_t{1} << 32);
  for (std::uint64_t k = 0; k < count && r.ok; ++k) {
    EngineCheckpoint::PendingExpansion e;
    e.class_index = static_cast<std::uint32_t>(r.ReadVarint());
    e.sibling = static_cast<std::uint32_t>(r.ReadVarint());
    cp.expansions.push_back(e);
  }

  // The payload must be consumed exactly: trailing garbage would break
  // the re-encode byte-identity guarantee, so it is malformed too.
  if (!r.ok || r.p != r.end) return malformed;
  cp.valid = true;
  return cp;
}

}  // namespace

// ----------------------------------------------- EngineCheckpoint API

Status EngineCheckpoint::Save(std::ostream& os) const {
  const std::string encoded = EncodeBinary(*this);
  os.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  if (!os.good()) return Status::IoError("checkpoint write failed");
  return Status::OK();
}

std::string EngineCheckpoint::Serialize() const { return EncodeBinary(*this); }

Result<EngineCheckpoint> EngineCheckpoint::Load(std::istream& is) {
  // Leading whitespace is tolerated: the journal terminates the
  // preceding meta line with '\n'.
  is >> std::ws;
  char magic[4];
  if (!is.read(magic, 4) || std::memcmp(magic, kBinaryMagic, 4) != 0) {
    return Status::InvalidArgument(
        "not a binary (SCPB) checkpoint; v1 text checkpoints are no longer "
        "read");
  }
  return LoadBody(is);
}

Result<EngineCheckpoint> EngineCheckpoint::Parse(const std::string& text) {
  std::istringstream is(text);
  return Load(is);
}

}  // namespace scpm
