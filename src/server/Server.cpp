//===- server/Server.cpp - The persistent fgcd daemon ---------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"
#include "server/Protocol.h"
#include "support/Stats.h"
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace fg;
using namespace fg::server;

bool fg::server::serveStream(Session &S, std::istream &In,
                             std::ostream &Out) {
  Protocol P(S);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Protocol::Reply R = P.handleLine(Line);
    Out << R.Line << "\n" << std::flush;
    if (R.Shutdown)
      return true;
  }
  return false;
}

Server::Server(ServerOptions Opts)
    : Opts(std::move(Opts)),
      Cache(std::make_shared<ArtifactCache>(this->Opts.CacheEntries)) {
  if (this->Opts.Threads == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    this->Opts.Threads = HW ? HW : 1;
  }
}

Server::~Server() { stop(); }

bool Server::start(std::string &Error) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + Opts.SocketPath;
    return false;
  }
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::unlink(Opts.SocketPath.c_str()); // Stale socket from a dead daemon.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Error = "bind " + Opts.SocketPath + ": " + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 64) < 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }

  Started = true;
  Stopping = false;
  for (unsigned I = 0; I < Opts.Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  // Snapshot the fd: start() wrote it before spawning this thread, and
  // requestStop() only shutdown()s it — stop() close()s it after this
  // thread has been joined, so the descriptor number cannot be recycled
  // for an unrelated file while accept() still references it.
  const int AcceptFd = ListenFd;
  while (true) {
    int Fd = ::accept(AcceptFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // Listener closed: shutting down.
    }
    stats::Statistics::global().add("server.connections");
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Stopping) {
        ::close(Fd);
        return;
      }
      Pending.push_back(Fd);
    }
    QueueCv.notify_one();
  }
}

void Server::workerLoop() {
  while (true) {
    int Fd;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      QueueCv.wait(Lock, [this] { return Stopping || !Pending.empty(); });
      if (Pending.empty())
        return; // Stopping with nothing queued.
      Fd = Pending.front();
      Pending.pop_front();
      Serving.push_back(Fd);
    }
    serveConnection(Fd);
  }
}

void Server::serveConnection(int Fd) {
  Session S(Cache, Opts.SessionOpts);
  Protocol P(S);
  std::string Buffer;
  char Chunk[4096];
  bool Shutdown = false;
  while (!Shutdown) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0)
      break; // EOF or error: the session is over either way.
    Buffer.append(Chunk, static_cast<size_t>(N));
    size_t NL;
    while (!Shutdown && (NL = Buffer.find('\n')) != std::string::npos) {
      std::string Line = Buffer.substr(0, NL);
      Buffer.erase(0, NL + 1);
      if (Line.empty())
        continue;
      Protocol::Reply R = P.handleLine(Line);
      R.Line += "\n";
      size_t Sent = 0;
      while (Sent < R.Line.size()) {
        ssize_t W = ::send(Fd, R.Line.data() + Sent, R.Line.size() - Sent,
                           MSG_NOSIGNAL);
        if (W <= 0) {
          Shutdown = R.Shutdown;
          goto done; // Client went away mid-response.
        }
        Sent += static_cast<size_t>(W);
      }
      Shutdown = R.Shutdown;
    }
  }
done:
  {
    // Out of Serving before close(), so requestStop() never shuts down
    // a recycled descriptor number.
    std::lock_guard<std::mutex> Lock(Mu);
    Serving.erase(std::find(Serving.begin(), Serving.end(), Fd));
  }
  ::close(Fd);
  stats::Statistics::global().add("server.sessions.closed");
  if (Shutdown)
    requestStop(); // Flag only: joining happens on the owner thread.
}

void Server::wait() {
  std::unique_lock<std::mutex> Lock(Mu);
  StopCv.wait(Lock, [this] { return Stopping || !Started; });
}

void Server::requestStop() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Started || Stopping)
      return;
    Stopping = true;
    for (int Fd : Pending)
      ::close(Fd);
    Pending.clear();
    // A worker blocked in recv() on an idle session wakes to EOF; one
    // busy with a request still sends its reply, then reads EOF.
    for (int Fd : Serving)
      ::shutdown(Fd, SHUT_RD);
    if (ListenFd >= 0) {
      // shutdown() unblocks the acceptor's accept() without releasing
      // the descriptor number; stop() close()s it only after joining
      // the acceptor, so accept() can never race a recycled fd.
      ::shutdown(ListenFd, SHUT_RDWR);
    }
  }
  StopCv.notify_all();
  QueueCv.notify_all();
}

void Server::stop() {
  // Only ever called on the thread that owns the Server (main loop,
  // tests, destructor) — workers signal via requestStop() and exit on
  // their own, so joining here cannot deadlock or self-join.
  requestStop();
  for (DeepStackThread &T : Workers)
    T.join();
  Workers.clear();
  if (Acceptor.joinable())
    Acceptor.join();
  std::lock_guard<std::mutex> Lock(Mu);
  if (ListenFd >= 0) {
    ::close(ListenFd); // Safe now: the acceptor has been joined.
    ListenFd = -1;
  }
  if (Started)
    ::unlink(Opts.SocketPath.c_str());
  Started = false;
}
