//===- server/Server.h - The persistent fgcd daemon -------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived compiler server: a Unix-domain-socket listener plus a
/// fixed worker pool.  Each accepted connection is one protocol
/// *session* (server/Session.h) served to completion by a worker — the
/// natural unit, since sessions are single-client by design and
/// workers never share compiler state.  Up to `Threads` sessions run
/// concurrently; further connections queue until a worker frees up
/// (documented in docs/PROTOCOL.md §2).
///
/// All sessions share the server's one ArtifactCache, so the daemon
/// warms up: the first `check` of a program compiles, every later
/// byte-identical `check` — from any session — is a string lookup.
/// perfbench's `daemon` workload measures request latency end to end,
/// with artifact-cache misses and hits in its mix.
///
/// A `shutdown` request (from any session) stops the daemon: the
/// listener closes, idle workers wake and exit, and every open session
/// answers the request it is serving, then ends — its client reads EOF
/// instead of holding the daemon up.  `serveStream` is the same protocol
/// loop over arbitrary iostreams — the `fgcd --stdio` mode and the
/// unit-test entry point.
///
/// Observability: `server.connections`, `server.sessions.opened`,
/// `server.requests[.<method>]` (for the protocol's own methods only),
/// `server.errors.<code>`, `server.artifact_cache.{hits,misses,evictions}`;
/// timers `server.request`, `server.check` (check of source or path, and
/// type), `server.run`, `server.eval`, `server.load`,
/// `server.dump_bytecode`.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SERVER_SERVER_H
#define FG_SERVER_SERVER_H

#include "server/Session.h"
#include "support/DeepStack.h"
#include <condition_variable>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fg {
namespace server {

struct ServerOptions {
  std::string SocketPath;      ///< Unix socket to bind.
  unsigned Threads = 0;        ///< Worker pool size; 0 = hardware threads.
  size_t CacheEntries = 4096;  ///< Artifact-cache capacity.
  Session::Options SessionOpts;
};

/// The daemon.  start() binds and spawns the acceptor + workers;
/// wait() blocks until a `shutdown` request or stop(); stop() is safe
/// from any thread.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and starts the acceptor and worker threads.
  /// Returns false with \p Error set when the socket cannot be bound.
  bool start(std::string &Error);

  /// Blocks until the server stops (shutdown request or stop()).
  void wait();

  /// Flags shutdown and unblocks the acceptor/workers without joining
  /// (safe from worker threads — the `shutdown` request path).
  void requestStop();

  /// Initiates shutdown and joins every thread.  Idempotent; must be
  /// called on the thread that owns the Server.
  void stop();

  const std::string &socketPath() const { return Opts.SocketPath; }
  const std::shared_ptr<ArtifactCache> &cache() const { return Cache; }

private:
  void acceptLoop();
  void workerLoop();
  void serveConnection(int Fd);

  ServerOptions Opts;
  std::shared_ptr<ArtifactCache> Cache;
  int ListenFd = -1;
  std::vector<DeepStackThread> Workers;
  std::thread Acceptor;
  std::mutex Mu;
  std::condition_variable QueueCv;   ///< Pending-connection arrivals.
  std::condition_variable StopCv;    ///< wait() wake-up.
  std::deque<int> Pending;           ///< Accepted, unserved connections.
  std::vector<int> Serving;          ///< Connections workers are serving.
  bool Stopping = false;
  bool Started = false;
};

/// Serves one session over an iostream pair (the `--stdio` mode): one
/// request line in, one response line out, until EOF or a `shutdown`
/// request.  Returns true when shutdown was requested.
bool serveStream(Session &S, std::istream &In, std::ostream &Out);

} // namespace server
} // namespace fg

#endif // FG_SERVER_SERVER_H
