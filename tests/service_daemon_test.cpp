// End-to-end tests for the emmapcd compile-service daemon (service/server.h
// + service/client.h) over its real unix-domain socket.
//
//  - Fidelity: results compiled through the daemon are byte-identical to
//    local compiles of the same request.
//  - Shared store: N threads x M short-lived clients compiling a mix of
//    kernel families and sizes all succeed, and the daemon's family-tier
//    misses equal the number of DISTINCT families (one cold pipeline per
//    family, everything else served warm from the shared store).
//  - Lookup order: an identical repeat is answered on the connection
//    thread from the result tier, with one hit, no miss, and the entry's
//    once-encoded result bytes in the reply.
//  - Protocol defense: malformed frames and stale schema fingerprints get
//    diagnostic ErrorReplies and count as protocol errors; the connection
//    drops without disturbing other clients.
//  - Graceful shutdown: stop() drains in-flight work, tells clients
//    "server shutting down" (never ECONNRESET), removes the socket file,
//    and refuses to usurp a live daemon's socket while replacing a stale
//    one.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "driver/compiler.h"
#include "kernels/blocks.h"
#include "service/client.h"
#include "service/server.h"
#include "support/diagnostics.h"

namespace fs = std::filesystem;

namespace emm::svc {
namespace {

/// Fresh unique socket path per test (unlinked on destruction).
struct TempSocket {
  std::string path;
  TempSocket() {
    static std::atomic<int> counter{0};
    path = (fs::temp_directory_path() /
            ("emmsvc_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)) + ".sock"))
               .string();
    ::unlink(path.c_str());
  }
  ~TempSocket() { ::unlink(path.c_str()); }
};

CompileRequest request(const std::string& kernel, const std::vector<i64>& sizes) {
  IntVec params;
  buildKernelByName(kernel, sizes, params);
  Compiler c;
  c.parameters(params).memoryLimitBytes(16 * 1024).backend("cuda");
  if (kernel == "figure1") c.scratchpadOnly(true).stageEverything(true);
  CompileRequest req;
  req.kernel = kernel;
  req.sizes = sizes;
  req.options = c.opts();
  return req;
}

CompileResult localReference(const CompileRequest& req) {
  IntVec params;
  Compiler c;
  c.source(buildKernelByName(req.kernel, req.sizes, params)).options(req.options);
  return c.compile();
}

TEST(ServiceDaemonTest, DaemonResultMatchesLocalCompile) {
  TempSocket sock;
  ServiceServer server({sock.path, 2, "", 64});
  server.start();
  ServiceClient client(sock.path);
  CompileRequest req = request("me", {256, 128, 16});
  WireCompileReply reply = client.compile(req);
  ASSERT_TRUE(reply.result.ok) << reply.result.firstError();
  EXPECT_FALSE(reply.serverCacheHit);  // first request: cold on the server
  CompileResult local = localReference(req);
  ASSERT_TRUE(local.ok);
  EXPECT_EQ(reply.result.artifact, local.artifact);  // byte-identical
  EXPECT_EQ(reply.result.search.subTile, local.search.subTile);
  EXPECT_GT(reply.roundTripMillis, 0.0);
  server.stop();
}

TEST(ServiceDaemonTest, ManyThreadsManyClientsMissOncePerFamily) {
  TempSocket sock;
  ServiceServer server({sock.path, 0, "", 256});
  server.start();

  // The working set: three families (me, matmul, figure1), several sizes
  // each. Warm each family once, sequentially — single-flight collapses
  // per-size duplicates, but two concurrent sizes of a never-seen family
  // would legitimately race two cold pipelines.
  struct Work {
    const char* kernel;
    std::vector<i64> sizes;
  };
  const std::vector<Work> work = {
      {"me", {256, 128, 16}},   {"me", {512, 128, 16}},  {"me", {256, 256, 16}},
      {"matmul", {128, 64, 32}}, {"matmul", {256, 64, 32}}, {"figure1", {64, 64}},
  };
  const i64 kFamilies = 3;
  {
    ServiceClient warmer(sock.path);
    for (const Work& w : work)
      ASSERT_TRUE(warmer.compile(request(w.kernel, w.sizes)).result.ok) << w.kernel;
  }

  // N threads x M short-lived clients each, hammering the warm store.
  constexpr int kThreads = 4;
  constexpr int kClientsPerThread = 3;
  std::atomic<int> failures{0};
  std::atomic<int> coldServed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int c = 0; c < kClientsPerThread; ++c) {
        ServiceClient client(sock.path);  // fresh connection each time
        for (size_t i = 0; i < work.size(); ++i) {
          const Work& w = work[(t + c + i) % work.size()];
          WireCompileReply r = client.compile(request(w.kernel, w.sizes));
          if (!r.result.ok) failures.fetch_add(1);
          // Everything was warmed above: no request may compile cold.
          if (!r.serverCacheHit && !r.serverFamilyHit && !r.serverDiskHit)
            coldServed.fetch_add(1);
        }
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(coldServed.load(), 0);

  WireStats s = server.stats();
  // Each DISTINCT family misses the family tier exactly twice, both on its
  // one cold pass: the connection-thread bind probe, then the in-pipeline
  // lookup. Every later request is answered on the connection thread: a
  // repeat of the cold-compiled size by the exact-key result-tier probe
  // (a hit, ahead of any family lookup), a new size by binding the family
  // record. The exact-key probe counts no misses — the pool compile of a
  // cold request counts its one — so the result tier sees one miss per
  // family, not one per size.
  EXPECT_EQ(s.memory.familyMisses, 2 * kFamilies);
  EXPECT_EQ(s.memory.misses, kFamilies);
  const i64 totalRequests = static_cast<i64>(work.size() * (1 + kThreads * kClientsPerThread));
  EXPECT_EQ(s.compiles, totalRequests);
  // Every non-cold request was served by exactly one of: a fast-path record
  // bind (no pool dispatch, no emission) or a result-tier snapshot hit.
  EXPECT_EQ(s.familyFastPath + s.memory.hits, totalRequests - kFamilies);
  EXPECT_GT(s.familyFastPath, 0);
  EXPECT_EQ(s.compileErrors, 0);
  EXPECT_EQ(s.protocolErrors, 0);
  EXPECT_EQ(s.connections, 1 + kThreads * kClientsPerThread);
  server.stop();
}

TEST(ServiceDaemonTest, IdenticalRepeatIsServedFromTheResultTierWithSharedBytes) {
  TempSocket sock;
  ServiceServer server({sock.path, 2, "", 64});
  server.start();
  CompileRequest req = request("me", {256, 128, 16});
  WireCompileReply cold = ServiceClient(sock.path).compile(req);
  ASSERT_TRUE(cold.result.ok) << cold.result.firstError();
  ASSERT_FALSE(cold.serverCacheHit);
  const WireStats before = server.stats();

  // The repeat over a raw socket, so the reply payload can be compared
  // byte for byte.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.path.c_str(), sock.path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  req.schemaFingerprint = serializeSchemaFingerprint();
  ASSERT_TRUE(writeFrame(fd, MsgType::CompileRequest, encodeCompileRequest(req)));
  MsgType type;
  std::string payload;
  std::string error;
  ASSERT_EQ(readFrame(fd, type, payload, error), ReadStatus::Ok) << error;
  ::close(fd);
  ASSERT_EQ(type, MsgType::CompileReply);
  const WireCompileReply repeat = decodeCompileReply(payload);
  ASSERT_TRUE(repeat.result.ok);
  // A memory replay's header: cache hit, no disk or family flag.
  EXPECT_TRUE(repeat.serverCacheHit);
  EXPECT_FALSE(repeat.serverDiskHit);
  EXPECT_FALSE(repeat.serverFamilyHit);
  // The payload is the header around the first reply's result bytes.
  EXPECT_EQ(payload, encodeCompileReply(static_cast<const WireReplyHeader&>(repeat),
                                        serializeCompileResult(cold.result)));

  // Answered by the exact-key probe: one hit, no miss, no family bind.
  const WireStats after = server.stats();
  EXPECT_EQ(after.familyFastPath, before.familyFastPath);
  EXPECT_EQ(after.memory.hits, before.memory.hits + 1);
  EXPECT_EQ(after.memory.misses, before.memory.misses);
  EXPECT_EQ(after.memory.familyHits + after.memory.familyMisses,
            before.memory.familyHits + before.memory.familyMisses);
  EXPECT_EQ(after.compiles, before.compiles + 1);
  server.stop();
}

TEST(ServiceDaemonTest, MalformedFramesGetDiagnosticsNotCrashes) {
  TempSocket sock;
  ServiceServer server({sock.path, 1, "", 16});
  server.start();

  // Raw socket speaking garbage: the server must reply with an ErrorReply
  // and close, counting a protocol error — and keep serving other clients.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.path.c_str(), sock.path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  std::string garbage(kFrameHeaderBytes, '\x7F');
  ASSERT_GT(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL), 0);
  MsgType type;
  std::string payload;
  std::string error;
  ASSERT_EQ(readFrame(fd, type, payload, error), ReadStatus::Ok) << error;
  ASSERT_EQ(type, MsgType::ErrorReply);
  WireError e = decodeErrorReply(payload);
  EXPECT_FALSE(e.shuttingDown);
  EXPECT_FALSE(e.message.empty());
  ::close(fd);

  // A stale schema fingerprint is refused with a diagnostic, not misparsed.
  int fd2 = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  CompileRequest req = request("me", {64, 64, 8});
  req.schemaFingerprint = 0xBADBADBADull;
  ASSERT_TRUE(writeFrame(fd2, MsgType::CompileRequest, encodeCompileRequest(req)));
  ASSERT_EQ(readFrame(fd2, type, payload, error), ReadStatus::Ok) << error;
  ASSERT_EQ(type, MsgType::ErrorReply);
  EXPECT_NE(decodeErrorReply(payload).message.find("fingerprint"), std::string::npos);
  ::close(fd2);

  // The daemon is unharmed: a well-formed client still compiles.
  ServiceClient client(sock.path);
  EXPECT_TRUE(client.compile(request("me", {64, 64, 8})).result.ok);
  WireStats s = server.stats();
  EXPECT_EQ(s.protocolErrors, 2);
  server.stop();
}

TEST(ServiceDaemonTest, UnknownKernelGetsDiagnosticReply) {
  TempSocket sock;
  ServiceServer server({sock.path, 1, "", 16});
  server.start();
  ServiceClient client(sock.path);
  CompileRequest req = request("me", {64, 64, 8});
  req.kernel = "no_such_kernel";
  try {
    client.compile(std::move(req));
    FAIL() << "unknown kernel accepted";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_kernel"), std::string::npos) << e.what();
  }
  server.stop();
}

TEST(ServiceDaemonTest, GracefulShutdownSaysSoInsteadOfResetting) {
  TempSocket sock;
  auto server = std::make_unique<ServiceServer>(ServiceServer::Options{sock.path, 1, "", 16});
  server->start();
  ServiceClient idle(sock.path);  // connected, no request in flight
  ASSERT_TRUE(idle.compile(request("me", {64, 64, 8})).result.ok);
  server->stop();
  // The drained server told the idle connection why before closing; the
  // next request surfaces that as a clean diagnostic, not ECONNRESET.
  try {
    idle.compile(request("me", {64, 64, 8}));
    FAIL() << "compile succeeded against a stopped server";
  } catch (const ApiError& e) {
    EXPECT_NE(std::string(e.what()).find("shutting down"), std::string::npos) << e.what();
  }
  // The socket file is gone after a graceful stop.
  EXPECT_FALSE(fs::exists(sock.path));
  server.reset();

  // A stale socket FILE (no daemon behind it) is replaced on start...
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.path.c_str(), sock.path.size() + 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ::close(fd);  // bound then closed: the file remains, nobody listens
  ASSERT_TRUE(fs::exists(sock.path));
  ServiceServer replacement({sock.path, 1, "", 16});
  replacement.start();
  ServiceClient again(sock.path);
  EXPECT_TRUE(again.compile(request("me", {64, 64, 8})).result.ok);

  // ...but a LIVE daemon's socket is never usurped.
  ServiceServer usurper({sock.path, 1, "", 16});
  EXPECT_THROW(usurper.start(), ApiError);
  replacement.stop();
}

TEST(ServiceDaemonTest, StopIsIdempotentAndStatsSurviveIt) {
  TempSocket sock;
  ServiceServer server({sock.path, 1, "", 16});
  server.start();
  {
    ServiceClient client(sock.path);
    ASSERT_TRUE(client.compile(request("matmul", {64, 64, 32})).result.ok);
  }
  server.stop();
  server.stop();  // second stop is a no-op
  WireStats s = server.stats();
  EXPECT_EQ(s.compiles, 1);
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace emm::svc
