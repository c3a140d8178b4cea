#include "service/protocol.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "support/diagnostics.h"
#include "support/schema.h"

namespace emm {

namespace schema {

// Payload struct tags, same discipline as the plan tag table
// (support/schema.h) but scoped to the wire payloads (the envelope has its
// own magic/version).
enum : unsigned char {
  kTagCompileRequest = 0xA1,
  kTagCompileReply,
  kTagStatsReply,
  kTagErrorReply,
  kTagCacheStats,
  kTagDiskStats,
};

void checkRequest(const svc::CompileRequest& req) {
  if (req.kernel.empty() && !req.block.has_value())
    throw SerializeError("compile request names no kernel and carries no block");
  if (!req.kernel.empty() && req.block.has_value())
    throw SerializeError("compile request names a kernel AND carries a block");
  if (req.block.has_value()) req.block->validate();
}

template <class V, Is<svc::CompileRequest> S>
void fields(V& v, S& q) {
  v.tag(kTagCompileRequest, "CompileRequest");
  v(q.schemaFingerprint, "schemaFingerprint");
  v(q.kernel, "kernel");
  v(q.sizes, "sizes");
  v(q.block, "block");
  v(q.options, "options");
  v(q.skipPasses, "skipPasses");
  v.onDecode(q, checkRequest);
}

/// The reply header. The CompileResult follows it as its own
/// length-prefixed serializeCompileResult payload.
template <class V, Is<svc::WireReplyHeader> S>
void fields(V& v, S& r) {
  v.tag(kTagCompileReply, "CompileReply");
  v(r.serverCacheHit, "serverCacheHit");
  v(r.serverDiskHit, "serverDiskHit");
  v(r.serverFamilyHit, "serverFamilyHit");
  v(r.serverMillis, "serverMillis");
}

template <class V, Is<PlanCache::Stats> S>
void fields(V& v, S& s) {
  v.tag(kTagCacheStats, "CacheStats");
  v(s.hits, "hits");
  v(s.misses, "misses");
  v(s.entries, "entries");
  v(s.evictions, "evictions");
  v(s.familyHits, "familyHits");
  v(s.familyMisses, "familyMisses");
  v(s.familyEntries, "familyEntries");
  v(s.familyEvictions, "familyEvictions");
}

template <class V, Is<DiskPlanCache::Stats> S>
void fields(V& v, S& s) {
  v.tag(kTagDiskStats, "DiskStats");
  v(s.hits, "hits");
  v(s.misses, "misses");
  v(s.rejects, "rejects");
  v(s.evictions, "evictions");
  v(s.insertions, "insertions");
  v(s.entries, "entries");
  v(s.bytes, "bytes");
  v(s.familyHits, "familyHits");
  v(s.familyMisses, "familyMisses");
  v(s.familyRejects, "familyRejects");
  v(s.familyInsertions, "familyInsertions");
  v(s.familyEntries, "familyEntries");
  v(s.familyBytes, "familyBytes");
}

template <class V, Is<svc::WireStats> S>
void fields(V& v, S& s) {
  v.tag(kTagStatsReply, "StatsReply");
  v(s.connections, "connections");
  v(s.requests, "requests");
  v(s.compiles, "compiles");
  v(s.compileErrors, "compileErrors");
  v(s.protocolErrors, "protocolErrors");
  v(s.familyFastPath, "familyFastPath");
  v(s.memory, "memory");
  v(s.haveDisk, "haveDisk");
  v(s.disk, "disk");
}

template <class V, Is<svc::WireError> S>
void fields(V& v, S& e) {
  v.tag(kTagErrorReply, "ErrorReply");
  v(e.shuttingDown, "shuttingDown");
  v(e.message, "message");
}

}  // namespace schema

namespace svc {

namespace {

bool sendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t k = ::send(fd, data, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;
    data += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

/// 1 = read all n bytes, 0 = clean EOF before the first byte, -1 = error or
/// EOF mid-buffer.
int recvAll(int fd, char* data, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t k = ::recv(fd, data + got, n - got, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (k == 0) return got == 0 ? 0 : -1;
    got += static_cast<size_t>(k);
  }
  return 1;
}

}  // namespace

std::string encodeFrame(MsgType type, std::string_view payload) {
  ByteWriter w;
  w.u32v(kWireMagic);
  w.u32v(kWireVersion);
  w.u8(static_cast<unsigned char>(type));
  w.u64v(payload.size());
  w.u64v(digestBytes(payload));
  std::string out = w.take();
  out.append(payload.data(), payload.size());
  return out;
}

FrameHeader decodeFrameHeader(std::string_view header) {
  if (header.size() != kFrameHeaderBytes)
    throw SerializeError("truncated frame header: " + std::to_string(header.size()) + " of " +
                         std::to_string(kFrameHeaderBytes) + " bytes");
  ByteReader r(header);
  if (r.u32v() != kWireMagic) throw SerializeError("bad frame magic");
  u32 version = r.u32v();
  if (version != kWireVersion)
    throw SerializeError("unsupported protocol version " + std::to_string(version) +
                         " (this binary speaks " + std::to_string(kWireVersion) + ")");
  unsigned char type = r.u8();
  if (type < static_cast<unsigned char>(MsgType::CompileRequest) ||
      type > static_cast<unsigned char>(MsgType::ErrorReply))
    throw SerializeError("unknown message type " + std::to_string(type));
  FrameHeader h;
  h.type = static_cast<MsgType>(type);
  h.payloadBytes = r.u64v();
  // The cap check must precede any allocation sized by the prefix.
  if (h.payloadBytes > kMaxFramePayloadBytes)
    throw SerializeError("oversized frame payload: " + std::to_string(h.payloadBytes) +
                         " bytes (cap " + std::to_string(kMaxFramePayloadBytes) + ")");
  h.checksum = r.u64v();
  return h;
}

void verifyFramePayload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payloadBytes)
    throw SerializeError("frame payload length mismatch");
  if (digestBytes(payload) != header.checksum)
    throw SerializeError("frame checksum mismatch");
}

std::pair<MsgType, std::string> decodeFrame(std::string_view frame) {
  if (frame.size() < kFrameHeaderBytes)
    throw SerializeError("truncated frame header: " + std::to_string(frame.size()) + " of " +
                         std::to_string(kFrameHeaderBytes) + " bytes");
  FrameHeader h = decodeFrameHeader(frame.substr(0, kFrameHeaderBytes));
  std::string_view rest = frame.substr(kFrameHeaderBytes);
  if (rest.size() < h.payloadBytes) throw SerializeError("truncated frame payload");
  if (rest.size() > h.payloadBytes)
    throw SerializeError("trailing garbage after frame: " +
                         std::to_string(rest.size() - h.payloadBytes) + " bytes");
  verifyFramePayload(h, rest);
  return {h.type, std::string(rest)};
}

std::string encodeCompileRequest(const CompileRequest& request) {
  return schema::encodeBytes(request);
}

CompileRequest decodeCompileRequest(std::string_view payload) {
  CompileRequest request;
  schema::decodeBytes(payload, request, "compile request");
  return request;
}

std::string encodeCompileReply(const WireReplyHeader& header, const std::string& resultBytes) {
  ByteWriter w;
  schema::encode(w, header);
  w.str(resultBytes);  // the result rides as its own length-prefixed payload
  return w.take();
}

std::string encodeCompileReply(const CompileResult& result, double serverMillis) {
  WireReplyHeader header;
  header.serverCacheHit = result.cacheHit;
  header.serverDiskHit = result.diskHit;
  header.serverFamilyHit = result.familyHit;
  header.serverMillis = serverMillis;
  return encodeCompileReply(header, serializeCompileResult(result));
}

WireCompileReply decodeCompileReply(std::string_view payload) {
  ByteReader r(payload);
  WireCompileReply reply;
  schema::decode(r, static_cast<WireReplyHeader&>(reply));
  reply.result = deserializeCompileResult(r.str());
  r.expectEnd();
  return reply;
}

std::string encodeStatsReply(const WireStats& stats) {
  return schema::encodeBytes(stats);
}

WireStats decodeStatsReply(std::string_view payload) {
  WireStats stats;
  schema::decodeBytes(payload, stats, "stats reply");
  return stats;
}

std::string encodeErrorReply(const WireError& error) {
  return schema::encodeBytes(error);
}

WireError decodeErrorReply(std::string_view payload) {
  WireError error;
  schema::decodeBytes(payload, error, "error reply");
  return error;
}

bool writeFrame(int fd, MsgType type, std::string_view payload) {
  std::string frame = encodeFrame(type, payload);
  return sendAll(fd, frame.data(), frame.size());
}

ReadStatus readFrame(int fd, MsgType& type, std::string& payload, std::string& error) {
  char header[kFrameHeaderBytes];
  int st = recvAll(fd, header, sizeof header);
  if (st == 0) return ReadStatus::Eof;
  if (st < 0) {
    error = "truncated frame header";
    return ReadStatus::Error;
  }
  FrameHeader h;
  try {
    h = decodeFrameHeader(std::string_view(header, sizeof header));
  } catch (const SerializeError& e) {
    error = e.what();
    return ReadStatus::Error;
  }
  payload.resize(h.payloadBytes);
  if (h.payloadBytes > 0 && recvAll(fd, payload.data(), payload.size()) != 1) {
    error = "truncated frame payload";
    return ReadStatus::Error;
  }
  try {
    verifyFramePayload(h, payload);
  } catch (const SerializeError& e) {
    error = e.what();
    return ReadStatus::Error;
  }
  type = h.type;
  return ReadStatus::Ok;
}

}  // namespace svc
}  // namespace emm
