// Wire protocol between the distributed-mining coordinator and its
// forked workers (see docs/DIST.md).
//
// Transport: one AF_UNIX stream socketpair per worker, carrying
// length-prefixed *frames*. A frame is a single header line
//
//   scpm-dist <type> <batch-id> <payload-bytes> <checksum>\n
//
// followed by exactly <payload-bytes> of payload. The checksum is
// FNV-1a-64 of the payload; a mismatch on receive is how corrupt
// results are detected (the frame is still consumed whole, so the
// stream stays framed — the *lease* fails, not the protocol).
//
// Frame types:
//   batch      coordinator -> worker: a leased batch of frontier
//              entries (payload: EncodeBatch).
//   exit       coordinator -> worker: finish up, empty payload.
//   heartbeat  worker -> coordinator: lease keep-alive between engine
//              waves, empty payload.
//   result     worker -> coordinator: a finished lease (payload:
//              EncodeResult).
//   fail       worker -> coordinator: the engine rejected the batch;
//              payload is the Status text.
//
// Payload codecs are plain whitespace-separated text for the framing
// fields — doubles travel as uint64 bit patterns so results merge
// byte-identically — while the embedded EngineCheckpoint (the bulk of
// every batch and of any unfinished result) uses the binary checkpoint
// codec (see core/ckpt_codec.cc).

#ifndef SCPM_DIST_PROTOCOL_H_
#define SCPM_DIST_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/scpm.h"
#include "core/sink.h"
#include "util/result.h"
#include "util/status.h"

namespace scpm {
namespace dist {

enum class FrameType { kBatch, kExit, kHeartbeat, kResult, kFail };

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::uint64_t batch_id = 0;
  std::string payload;
};

/// FNV-1a-64 over `data` — the per-batch checksum.
std::uint64_t Checksum(const std::string& data);

/// Writes one frame. With `corrupt_payload` set, one payload byte is
/// flipped AFTER the checksum was computed (the result-corruption
/// fault: the receiver must detect it). Returns kIoError when the peer
/// is gone.
Status WriteFrame(int fd, const Frame& frame, bool corrupt_payload = false);

/// Blocking read of one whole frame. kIoError on EOF / socket error /
/// malformed header (the connection is unusable afterwards);
/// a *checksum mismatch* instead returns OK with `frame->checksum_ok`
/// false — the stream itself is still framed and usable.
struct ReadFrameResult {
  Frame frame;
  bool checksum_ok = true;
};
Result<ReadFrameResult> ReadFrame(int fd);

/// What one lease asks a worker to do: resume `checkpoint` with this
/// evaluation budget and wave size, heartbeating every wave; the
/// lease duration rides along so fault-injected heartbeat drops can
/// oversleep it deliberately.
struct BatchPayload {
  std::uint64_t max_evaluations = 0;
  std::size_t wave = 0;
  std::uint64_t lease_ms = 0;
  EngineCheckpoint checkpoint;
};

std::string EncodeBatch(const BatchPayload& batch);
Result<BatchPayload> DecodeBatch(const std::string& text);

/// What one finished lease returns: the segment's work counters, every
/// finalized emission (keyed, so the coordinator merges in canonical
/// order), and the unfinished remainder of the batch's frontier (empty
/// checkpoint when the budget did not cut).
struct ResultPayload {
  bool exhausted = true;
  ScpmCounters counters;
  struct Emission {
    SinkKey key;
    AttributeSetOutput output;
  };
  std::vector<Emission> emissions;
  EngineCheckpoint remainder;  // valid only when !exhausted
};

std::string EncodeResult(const ResultPayload& result);
Result<ResultPayload> DecodeResult(const std::string& text);

}  // namespace dist
}  // namespace scpm

#endif  // SCPM_DIST_PROTOCOL_H_
