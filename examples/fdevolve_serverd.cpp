// Standalone FD-monitoring server. Speaks the newline-framed protocol in
// src/server/protocol.h on 127.0.0.1 — try it with nc (see the README
// quickstart):
//
//   fdevolve_serverd --port 7433 --checkpoint state.fdev
//   fdevolve_serverd --port 7433 --checkpoint state.fdev --resume
//
// SIGINT/SIGTERM trigger a clean shutdown: live sessions are drained and,
// when --checkpoint is set, the final state is persisted before exit
// (checkpoint-on-shutdown — the file is always loadable via --resume).
// The kernel tier follows the FDEVOLVE_CPU_FEATURES environment variable.
#include <csignal>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "query/kernels.h"
#include "server/server.h"
#include "util/cpu_features.h"
#include "util/parse.h"

namespace {

// Signal handlers can only touch the async-signal-safe surface;
// Server::RequestShutdown (an atomic store + one pipe write) qualifies.
fdevolve::server::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestShutdown();
}

void Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--checkpoint FILE] [--resume]\n"
            << "  --port N          listen port 0-65535 (default 0: "
               "kernel-assigned)\n"
            << "  --checkpoint FILE persist state here on CHECKPOINT and "
               "shutdown\n"
            << "  --resume          load FILE before serving\n";
}

}  // namespace

int main(int argc, char** argv) {
  fdevolve::server::Server::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      const std::string value = argv[++i];
      const std::optional<uint64_t> port = fdevolve::util::ParseUint64(value);
      if (!port || *port > UINT16_MAX) {
        std::cerr << "--port: expected an integer in 0..65535, got '" << value
                  << "'\n";
        return 2;
      }
      opts.port = static_cast<uint16_t>(*port);
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      opts.service.checkpoint_path = argv[++i];
    } else if (arg == "--resume") {
      opts.resume = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (opts.resume && opts.service.checkpoint_path.empty()) {
    std::cerr << "--resume requires --checkpoint\n";
    return 2;
  }

  fdevolve::server::Server server(opts);
  std::string error;
  if (!server.Start(&error)) {
    std::cerr << "start failed: " << error << "\n";
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::cout << "cpu: detected "
            << fdevolve::util::CpuTierName(
                   fdevolve::query::kernels::DetectedTier())
            << ", kernels "
            << fdevolve::util::CpuTierName(
                   fdevolve::query::kernels::SelectedTier())
            << "\n";
  std::cout << "listening on port " << server.port() << std::endl;
  if (!server.Wait(&error)) {
    std::cerr << "shutdown checkpoint failed: " << error << "\n";
    return 1;
  }
  std::cout << "shut down cleanly\n";
  return 0;
}
