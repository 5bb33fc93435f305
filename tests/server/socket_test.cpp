// End-to-end TCP tests: real sockets, real threads, the same Client the
// bench driver and smoke script use.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace fdevolve::server {
namespace {

TEST(ServerSocketTest, ScriptedSessionOverTcp) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  Client client;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  EXPECT_TRUE(client.Request("CREATE TABLE t (a INT64, b INT64)").ok);
  auto ins = client.Request("INSERT INTO t VALUES (1, 1), (2, 2)");
  EXPECT_TRUE(ins.ok);
  EXPECT_EQ(ins.value, 2u);
  auto count = client.Request("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(count.ok);
  EXPECT_EQ(count.value, 2u);
  auto bad = client.Request("SELECT COUNT(*) FROM ghost");
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("ghost"), std::string::npos);

  auto bye = client.Request("SHUTDOWN");
  EXPECT_TRUE(bye.ok);
  EXPECT_TRUE(server.Wait(&error)) << error;
}

TEST(ServerSocketTest, DriftPushReachesSubscribedClient) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  Client writer, listener;
  ASSERT_TRUE(writer.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(listener.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(writer.Request("CREATE TABLE t (a INT64, b INT64)").ok);
  ASSERT_TRUE(writer.Request("DECLARE FD a -> b ON t").ok);
  ASSERT_TRUE(listener.Request("SUBSCRIBE DRIFT ON t").ok);

  // The violating insert: the listener gets an async DRIFT line.
  auto ins = writer.Request("INSERT INTO t VALUES (1, 1), (1, 2)");
  EXPECT_TRUE(ins.ok);
  auto drift = listener.PollDrift(5000);
  ASSERT_TRUE(drift.has_value()) << "no DRIFT push within 5s";
  EXPECT_NE(drift->find("table=t"), std::string::npos) << *drift;
  EXPECT_NE(drift->find("fd=[a] -> [b]"), std::string::npos) << *drift;

  // A subscriber that also writes sees its own drift before the OK —
  // Request() drains it into Reply::drift.
  ASSERT_TRUE(writer.Request("SUBSCRIBE DRIFT ON t").ok);
  // b -> a is exact over the current rows (1,1),(1,2); the next insert
  // gives b=1 a second consequent and drifts it.
  ASSERT_TRUE(writer.Request("DECLARE FD b -> a ON t").ok);
  auto ins2 = writer.Request("INSERT INTO t VALUES (2, 1)");
  EXPECT_TRUE(ins2.ok);
  ASSERT_EQ(ins2.drift.size(), 1u) << "expected b -> a drift with the OK";
  EXPECT_NE(ins2.drift[0].find("fd=[b] -> [a]"), std::string::npos);

  writer.Request("SHUTDOWN");
  EXPECT_TRUE(server.Wait(&error)) << error;
}

TEST(ServerSocketTest, ShutdownCheckpointAndResume) {
  const std::string path =
      testing::TempDir() + "/fdevolve_socket_ckpt.fdev";
  std::remove(path.c_str());
  Server::Options opts;
  opts.service.checkpoint_path = path;
  std::string error;
  uint64_t count_before = 0;
  {
    Server server(opts);
    ASSERT_TRUE(server.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
    ASSERT_TRUE(client.Request("CREATE TABLE t (a INT64, b INT64)").ok);
    ASSERT_TRUE(client.Request("DECLARE FD a -> b ON t EVERY 2").ok);
    ASSERT_TRUE(client.Request("INSERT INTO t VALUES (1, 1), (1, 2)").ok);
    count_before = client.Request("SELECT COUNT(*) FROM t").value;
    ASSERT_TRUE(client.Request("SHUTDOWN").ok);
    // Checkpoint-on-shutdown invariant: Wait() persists before returning.
    ASSERT_TRUE(server.Wait(&error)) << error;
  }
  {
    Server::Options resume_opts = opts;
    resume_opts.resume = true;
    Server server(resume_opts);
    ASSERT_TRUE(server.Start(&error)) << error;
    Client client;
    ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
    auto count = client.Request("SELECT COUNT(*) FROM t");
    EXPECT_TRUE(count.ok);
    EXPECT_EQ(count.value, count_before);
    // The monitor resumed too: the FD was already checked (EVERY 2) and
    // violated, so no further drift fires, but the drift log survives in
    // the next checkpoint cycle.
    EXPECT_EQ(server.service().DriftLog("t").size(), 1u);
    ASSERT_TRUE(client.Request("SHUTDOWN").ok);
    ASSERT_TRUE(server.Wait(&error)) << error;
  }
}

TEST(ServerSocketTest, RequestShutdownFromAnotherThreadUnblocksWait) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(client.Request("CREATE TABLE t (a INT64)").ok);

  std::thread killer([&server] {
    // Same entry point a SIGTERM handler uses.
    server.RequestShutdown();
  });
  EXPECT_TRUE(server.Wait(&error)) << error;
  killer.join();
  // The half-close reached the client: its next read sees EOF.
  auto reply = client.Request("SELECT COUNT(*) FROM t");
  EXPECT_FALSE(reply.ok);
}

TEST(ServerSocketTest, ManyConcurrentClientsOverTcp) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  {
    Client admin;
    ASSERT_TRUE(admin.Connect(server.port(), &error)) << error;
    ASSERT_TRUE(admin.Request("CREATE TABLE t (a INT64, b INT64)").ok);
    ASSERT_TRUE(admin.Request("DECLARE FD a -> b ON t EVERY 5").ok);
  }
  constexpr int kClients = 8;
  constexpr int kInsertsEach = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  uint16_t port = server.port();
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([port, i, &failures] {
      Client c;
      std::string err;
      if (!c.Connect(port, &err)) {
        ++failures;
        return;
      }
      for (int n = 0; n < kInsertsEach; ++n) {
        auto reply = c.Request("INSERT INTO t VALUES (" + std::to_string(i) +
                               ", " + std::to_string(n % 3) + ")");
        if (!reply.ok) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  Client check;
  ASSERT_TRUE(check.Connect(server.port(), &error)) << error;
  auto count = check.Request("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(count.ok);
  EXPECT_EQ(count.value,
            static_cast<uint64_t>(kClients * kInsertsEach));
  check.Request("SHUTDOWN");
  EXPECT_TRUE(server.Wait(&error)) << error;
}

/// Sends `bytes` over a fresh raw connection, then reads until the server
/// closes it; returns everything read ("" on a connect or send failure).
std::string SendRawAndReadToClose(uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string out;
  bool sent = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0;
  for (size_t off = 0; sent && off < bytes.size();) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) sent = false;
    else off += static_cast<size_t>(n);
  }
  char chunk[4096];
  for (ssize_t n; sent && (n = ::read(fd, chunk, sizeof(chunk))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    out.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(ServerSocketTest, OversizedRequestLineGetsErrAndCloses) {
  Server server(Server::Options{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect(server.port(), &error)) << error;
  ASSERT_TRUE(client.Request("CREATE TABLE t (a INT64)").ok);

  // A long but legal line arrives over many reads and still executes.
  std::string insert = "INSERT INTO t VALUES (0)";
  for (int i = 1; i < 20000; ++i) insert += ", (" + std::to_string(i) + ")";
  ASSERT_GT(insert.size(), 100000u);
  auto ins = client.Request(insert);
  EXPECT_TRUE(ins.ok) << ins.error;
  EXPECT_EQ(ins.value, 20000u);

  // One byte over the cap and no newline: the server has read every byte
  // when it refuses, replies ERR once and closes the session.
  const std::string reply = SendRawAndReadToClose(
      server.port(), std::string(kMaxRequestLine + 1, 'x'));
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply.substr(0, 200);
  EXPECT_NE(reply.find("longer than"), std::string::npos) << reply;
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply.find('\n'), reply.size() - 1) << "expected one line";

  // Other sessions are unaffected.
  auto count = client.Request("SELECT COUNT(*) FROM t");
  EXPECT_TRUE(count.ok) << count.error;
  EXPECT_EQ(count.value, 20000u);
  client.Request("SHUTDOWN");
  EXPECT_TRUE(server.Wait(&error)) << error;
}

}  // namespace
}  // namespace fdevolve::server
