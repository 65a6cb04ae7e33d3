// In-process loopback integration tests for the net/ service layer: the
// epoll server over every real tree protocol, pipelining and out-of-order
// completion, malformed-frame handling over a live socket, backpressure at
// the admission budget, fd exhaustion at accept, graceful drain, and the
// open-loop driver's zero-lost-requests accounting.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "ctree/ctree.h"
#include "net/client.h"
#include "net/driver.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/shutdown.h"

namespace cbtree {
namespace net {
namespace {

ServerOptions LoopbackOptions(Algorithm algorithm) {
  ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;  // ephemeral
  options.algorithm = algorithm;
  options.workers = 4;
  options.drain_timeout_ms = 10000;
  return options;
}

class NetServerAllProtocolsTest : public ::testing::TestWithParam<Algorithm> {
};

TEST_P(NetServerAllProtocolsTest, ServesTheFullOpSetOverLoopback) {
  Server server(LoopbackOptions(GetParam()));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  EXPECT_EQ(client.Insert(10, 100), Status::kInserted);
  EXPECT_EQ(client.Insert(10, 101), Status::kUpdated);
  EXPECT_EQ(client.Insert(20, 200), Status::kInserted);
  EXPECT_EQ(client.Search(10), 101);
  EXPECT_EQ(client.Search(999), std::nullopt);  // kNotFound
  EXPECT_EQ(client.Delete(10), Status::kDeleted);
  EXPECT_EQ(client.Delete(10), Status::kDeleteMiss);
  EXPECT_EQ(client.Search(20), 200);

  client.Close();
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_received, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.bad_frames, 0u);
  server.tree()->CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, NetServerAllProtocolsTest,
    ::testing::Values(Algorithm::kNaiveLockCoupling,
                      Algorithm::kOptimisticDescent, Algorithm::kLinkType,
                      Algorithm::kTwoPhaseLocking, Algorithm::kOlc),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      switch (info.param) {
        case Algorithm::kNaiveLockCoupling:
          return std::string("naive");
        case Algorithm::kOptimisticDescent:
          return std::string("optimistic");
        case Algorithm::kLinkType:
          return std::string("link");
        case Algorithm::kTwoPhaseLocking:
          return std::string("two_phase");
        case Algorithm::kOlc:
          return std::string("olc");
      }
      return std::string("unknown");
    });

TEST(NetServerTest, PreloadMatchesTheStressKeySpace) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.preload_items = 1000;
  options.seed = 7;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  // Preload inserts 1000 uniform keys over [1, 2000]; collisions overwrite,
  // so the tree holds at most that many and a solid majority survive.
  EXPECT_LE(server.tree()->size(), 1000u);
  EXPECT_GE(server.tree()->size(), 700u);
  server.Shutdown();
}

TEST(NetServerTest, PipelinedRequestsAllComeBack) {
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  // Fire a burst without reading; workers may answer out of order.
  constexpr uint64_t kBurst = 200;
  for (uint64_t i = 0; i < kBurst; ++i) {
    Request request;
    request.op = OpCode::kInsert;
    request.id = i + 1;
    request.key = static_cast<Key>(i % 50);
    request.value = static_cast<Value>(i);
    ASSERT_TRUE(client.Send(request));
  }
  std::vector<bool> seen(kBurst + 1, false);
  for (uint64_t i = 0; i < kBurst; ++i) {
    Response response;
    ASSERT_TRUE(client.Receive(&response));
    ASSERT_GE(response.id, 1u);
    ASSERT_LE(response.id, kBurst);
    EXPECT_FALSE(seen[response.id]) << "duplicate reply id " << response.id;
    seen[response.id] = true;
    EXPECT_TRUE(response.status == Status::kInserted ||
                response.status == Status::kUpdated);
  }
  client.Close();
  server.Shutdown();
  server.tree()->CheckInvariants();
}

TEST(NetServerTest, GarbageFrameGetsCleanErrorReplyAndClose) {
  Server server(LoopbackOptions(Algorithm::kOptimisticDescent));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  // A frame with a hostile length prefix: the server must answer kBadFrame
  // and close — never crash, never buffer toward the bogus length.
  ASSERT_TRUE(client.SendRaw(std::string("\xff\xff\xff\x7f garbage", 12)));
  Response response;
  ASSERT_TRUE(client.Receive(&response));
  EXPECT_EQ(response.status, Status::kBadFrame);
  EXPECT_EQ(response.id, 0u);
  // The connection is dead afterwards.
  EXPECT_EQ(client.ReceivePoll(&response, 2000), -1);
  client.Close();

  // The server is still healthy for new connections.
  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(fresh.Insert(1, 1), Status::kInserted);
  fresh.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().bad_frames, 1u);
}

TEST(NetServerTest, TruncatedFrameThenCloseIsHarmless) {
  Server server(LoopbackOptions(Algorithm::kNaiveLockCoupling));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  // Half a valid frame, then half-close: the server just drops the prefix.
  Request request;
  request.op = OpCode::kInsert;
  request.id = 1;
  request.key = 5;
  std::string wire;
  AppendRequest(request, &wire);
  ASSERT_TRUE(client.SendRaw(wire.substr(0, wire.size() / 2)));
  client.CloseWrite();
  Response response;
  EXPECT_EQ(client.ReceivePoll(&response, 2000), -1);  // EOF, no reply
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().requests_received, 0u);
  EXPECT_EQ(server.stats().completed, 0u);
}

TEST(NetServerTest, GarbageOpcodeInsideValidLengthIsABadFrame) {
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  Request request;
  request.op = OpCode::kSearch;
  request.id = 9;
  std::string wire;
  AppendRequest(request, &wire);
  wire[4] = '\x7f';  // invalid opcode, length still correct
  ASSERT_TRUE(client.SendRaw(wire));
  Response response;
  ASSERT_TRUE(client.Receive(&response));
  EXPECT_EQ(response.status, Status::kBadFrame);
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().bad_frames, 1u);
}

TEST(NetServerTest, BackpressureRejectsBeyondTheAdmissionBudget) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.workers = 2;
  options.max_inflight = 8;
  options.retry_hint_us = 777;
  // Stall every worker long enough that a burst overruns the budget
  // deterministically.
  options.worker_delay_hook = [](const Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;

  constexpr uint64_t kBurst = 64;
  for (uint64_t i = 0; i < kBurst; ++i) {
    Request request;
    request.op = OpCode::kSearch;
    request.id = i + 1;
    request.key = 1;
    ASSERT_TRUE(client.Send(request));
  }
  uint64_t completed = 0, rejected = 0;
  for (uint64_t i = 0; i < kBurst; ++i) {
    Response response;
    ASSERT_TRUE(client.Receive(&response));
    if (response.status == Status::kRejected) {
      ++rejected;
      EXPECT_EQ(response.value, 777);  // retry hint rides in `value`
    } else {
      ++completed;
      EXPECT_EQ(response.status, Status::kNotFound);
    }
  }
  // Every request was answered exactly once, and the budget really did both
  // admit and shed load.
  EXPECT_EQ(completed + rejected, kBurst);
  EXPECT_GT(rejected, 0u);
  EXPECT_GE(completed, options.max_inflight);
  client.Close();
  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.rejected, rejected);
}

TEST(NetServerTest, ConcurrentClientsKeepTheTreeConsistent) {
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      std::string err;
      if (!client.Connect("127.0.0.1", server.port(), &err)) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kOpsPerClient; ++i) {
        Key key = static_cast<Key>((c * kOpsPerClient + i) % 97);
        bool ok = false;
        switch (i % 3) {
          case 0:
            ok = client.Insert(key, key * 2).has_value();
            break;
          case 1:
            ok = client.Search(key).has_value() || true;  // miss is fine
            break;
          default:
            ok = client.Delete(key).has_value();
            break;
        }
        if (!ok) {
          failures.fetch_add(1);
          return;
        }
      }
      client.Close();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  server.Shutdown();
  server.tree()->CheckInvariants();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_received,
            static_cast<uint64_t>(kClients) * kOpsPerClient);
  EXPECT_EQ(stats.completed, stats.requests_received);
}

TEST(NetServerTest, ShutdownAnswersNewFramesWithShuttingDown) {
  ServerOptions options = LoopbackOptions(Algorithm::kOptimisticDescent);
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(1, 1), Status::kInserted);

  // Trigger the drain from another thread; the server answers frames that
  // race the drain with kShuttingDown instead of dropping them.
  std::thread shutdown_thread([&] { server.Shutdown(); });
  Request request;
  request.op = OpCode::kSearch;
  request.id = 99;
  request.key = 1;
  Response response;
  while (client.Send(request)) {
    int rc = client.ReceivePoll(&response, 2000);
    if (rc != 1) break;  // connection closed by the drain
    if (response.status == Status::kShuttingDown) break;
    ASSERT_EQ(response.status, Status::kFound);
  }
  shutdown_thread.join();
  EXPECT_FALSE(server.running());
  client.Close();
}

TEST(NetServerTest, SignalDrainTriggerStopsServeUntil) {
  SignalDrain::Install();
  SignalDrain::ResetForTest();
  Server server(LoopbackOptions(Algorithm::kLinkType));
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  std::thread serving([&] { server.ServeUntil(SignalDrain::wake_fd()); });
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(3, 33), Status::kInserted);
  SignalDrain::Trigger();  // same path a SIGINT takes
  serving.join();
  EXPECT_FALSE(server.running());
  client.Close();
  SignalDrain::ResetForTest();
}

double ProcessCpuSeconds() {
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

// Runs as its own process under ctest (gtest_discover_tests), and restores
// the fd limit before it returns, so the lowered limit touches no other
// test.
TEST(NetServerTest, FdExhaustionShedsConnectionsWithoutSpinning) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.loops = 1;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  // The client socket exists before the fds run out; connect(2) then needs
  // none, so the connection reaches the server's listen queue.
  const int victim = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(victim, 0);
  timeval receive_timeout = {};
  receive_timeout.tv_sec = 2;
  setsockopt(victim, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout,
             sizeof(receive_timeout));

  rlimit saved = {};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 256);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
  std::vector<int> fillers;
  for (;;) {
    const int fd = open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (fd < 0) break;
    fillers.push_back(fd);
  }
  ASSERT_EQ(errno, EMFILE);

  sockaddr_in address = {};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(server.port()));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(victim, reinterpret_cast<sockaddr*>(&address),
                    sizeof(address)),
            0);
  // The server cannot keep the connection, so it must close it rather
  // than leave it queued: the client sees EOF or a reset, not a timeout.
  char byte;
  const ssize_t got = recv(victim, &byte, 1, 0);
  const int recv_errno = errno;
  EXPECT_TRUE(got == 0 || (got < 0 && recv_errno == ECONNRESET))
      << "recv returned " << got << " errno " << recv_errno;
  // Nothing is queued any more, so the level-triggered listen fd is quiet:
  // the event loop sleeps instead of spinning on accept(2).
  const double cpu_before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(ProcessCpuSeconds() - cpu_before, 0.1);

  for (int fd : fillers) close(fd);
  close(victim);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);

  // With fds free again the server accepts and serves as before.
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(), &error)) << error;
  EXPECT_EQ(client.Insert(5, 55), Status::kInserted);
  EXPECT_EQ(client.Search(5), 55);
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(NetServerTest, DriverAccountingIsLossFree) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.preload_items = 2000;
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  DriveOptions drive;
  drive.host = "127.0.0.1";
  drive.port = server.port();
  drive.lambda = 800.0;
  drive.duration_seconds = 1.0;
  drive.connections = 3;
  drive.key_space = 4000;
  drive.zipf_skew = 0.3;
  drive.seed = 11;
  DriveReport report = RunDrive(drive);
  ASSERT_TRUE(report.connect_ok) << report.error;

  // Zero lost requests: everything sent was either completed or rejected.
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.unanswered, 0u);
  EXPECT_EQ(report.sent, report.completed + report.rejected);
  EXPECT_GT(report.sent, 0u);
  EXPECT_GT(report.all.count(), 0u);
  EXPECT_GE(report.latencies.Quantile(0.99), report.latencies.Quantile(0.50));

  server.Shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, report.completed);
  EXPECT_EQ(stats.requests_received, report.sent);
  server.tree()->CheckInvariants();
}

TEST(NetServerTest, DriverSeesBackpressureAsRejectionsNotLosses) {
  ServerOptions options = LoopbackOptions(Algorithm::kLinkType);
  options.workers = 2;
  options.max_inflight = 4;
  options.worker_delay_hook = [](const Request&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  DriveOptions drive;
  drive.host = "127.0.0.1";
  drive.port = server.port();
  // Offered load (~400/s) far beyond service capacity (2 workers * 50/s):
  // the open-loop driver must keep sending and count rejections, not stall.
  drive.lambda = 400.0;
  drive.duration_seconds = 1.0;
  drive.connections = 2;
  drive.key_space = 100;
  drive.seed = 5;
  DriveReport report = RunDrive(drive);
  ASSERT_TRUE(report.connect_ok) << report.error;

  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.unanswered, 0u);
  EXPECT_EQ(report.sent, report.completed + report.rejected);
  EXPECT_GT(report.rejected, 0u);  // saturation really happened
  EXPECT_GT(report.completed, 0u);
  server.Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace cbtree
