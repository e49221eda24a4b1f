//===- server/Daemon.cpp - mfpard Unix-socket compile service -------------===//
//
// Part of the IAA project, an open-source reproduction of
// "Compiler Analysis of Irregular Memory Accesses" (Lin & Padua, PLDI 2000).
//
//===----------------------------------------------------------------------===//

#include "server/Daemon.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace iaa;
using namespace iaa::server;

namespace {

/// Writes all of \p Data; MSG_NOSIGNAL so a client that hung up mid-reply
/// costs an EPIPE, not a process-killing SIGPIPE.
bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N =
        ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

Daemon::Daemon(DaemonConfig C)
    : Config(std::move(C)),
      Artifacts(Config.CacheEntries ? Config.CacheEntries : 64) {
  if (Config.ServiceThreads == 0)
    Config.ServiceThreads = 1;
  if (Config.PoolThreads == 0)
    Config.PoolThreads = 1;
}

Daemon::~Daemon() { stop(); }

bool Daemon::start(std::string *Err) {
  if (Running.load(std::memory_order_acquire))
    return true;

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    if (Err)
      *Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }

  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Config.SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path too long: " + Config.SocketPath;
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  std::strncpy(Addr.sun_path, Config.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ::unlink(Config.SocketPath.c_str()); // Stale socket from a dead daemon.
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
          0 ||
      ::listen(ListenFd, 64) < 0) {
    if (Err)
      *Err = std::string("bind/listen ") + Config.SocketPath + ": " +
             std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }

  // The shared fork/join pool every run dispatches on.
  Pool = std::make_unique<interp::WorkerPool>(Config.PoolThreads);

  Stopping.store(false, std::memory_order_release);
  ShutdownRequested.store(false, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  Acceptor = std::thread([this] { acceptLoop(); });
  Services.reserve(Config.ServiceThreads);
  for (unsigned I = 0; I < Config.ServiceThreads; ++I)
    Services.emplace_back([this] { serviceLoop(); });
  return true;
}

void Daemon::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel))
    return;
  Stopping.store(true, std::memory_order_release);
  QueueCv.notify_all();
  ShutdownCv.notify_all();
  if (Acceptor.joinable())
    Acceptor.join();
  for (std::thread &T : Services)
    if (T.joinable())
      T.join();
  Services.clear();
  {
    std::lock_guard<std::mutex> Lock(QueueM);
    for (int Fd : PendingFds)
      ::close(Fd);
    PendingFds.clear();
  }
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  ::unlink(Config.SocketPath.c_str());
  Pool.reset();
  ShutdownCv.notify_all(); // Wake waitForShutdown().
}

void Daemon::waitForShutdown() {
  std::unique_lock<std::mutex> Lock(QueueM);
  ShutdownCv.wait(Lock, [&] {
    return ShutdownRequested.load(std::memory_order_acquire) ||
           Stopping.load(std::memory_order_acquire) ||
           !Running.load(std::memory_order_acquire);
  });
}

bool Daemon::waitForShutdown(uint64_t TimeoutMs) {
  std::unique_lock<std::mutex> Lock(QueueM);
  return ShutdownCv.wait_for(Lock, std::chrono::milliseconds(TimeoutMs), [&] {
    return ShutdownRequested.load(std::memory_order_acquire) ||
           Stopping.load(std::memory_order_acquire) ||
           !Running.load(std::memory_order_acquire);
  });
}

void Daemon::acceptLoop() {
  while (!Stopping.load(std::memory_order_acquire)) {
    // Poll with a timeout so stop() (and a session's shutdown request) are
    // noticed without a connection arriving to unblock accept().
    pollfd P{ListenFd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (ShutdownRequested.load(std::memory_order_acquire)) {
      ShutdownCv.notify_all();
      return;
    }
    if (R <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    {
      std::lock_guard<std::mutex> Lock(QueueM);
      if (PendingFds.size() < Config.QueueCap) {
        PendingFds.push_back(Fd);
        Fd = -1;
      }
    }
    if (Fd >= 0) {
      // Queue full: shed with a structured response instead of stalling
      // the accept loop or queueing unboundedly. The client backs off and
      // retries; the daemon keeps serving what it already admitted.
      Counters.Shed.fetch_add(1, std::memory_order_relaxed);
      Response Shed;
      Shed.St = Response::Status::Shed;
      Shed.RetryAfterMs = Config.RetryAfterMs;
      sendAll(Fd, Shed.toJsonLine() + "\n");
      ::close(Fd);
      continue;
    }
    QueueCv.notify_one();
  }
}

void Daemon::serviceLoop() {
  while (true) {
    int Fd = -1;
    {
      std::unique_lock<std::mutex> Lock(QueueM);
      QueueCv.wait(Lock, [&] {
        return Stopping.load(std::memory_order_acquire) ||
               !PendingFds.empty();
      });
      if (Stopping.load(std::memory_order_acquire))
        return;
      Fd = PendingFds.front();
      PendingFds.pop_front();
    }
    serveConnection(Fd);
    ::close(Fd);
  }
}

void Daemon::serveConnection(int Fd) {
  SessionEnv Env;
  Env.Artifacts = &Artifacts;
  Env.Deadlines = &Deadlines;
  Env.SharedPool = Pool.get();
  Env.Counters = &Counters;
  Env.ShutdownFlag = &ShutdownRequested;
  Env.DefaultDeadlineMs = Config.DefaultDeadlineMs;
  Env.DefaultMemLimitMb = Config.DefaultMemLimitMb;
  Env.MaxRequestBytes = Config.MaxRequestBytes;
  Session S(Env);

  std::string Buf;
  char Chunk[4096];
  bool Discarding = false; // Oversized frame: drop bytes to the newline.
  while (!Stopping.load(std::memory_order_acquire)) {
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, 200);
    if (R < 0 && errno != EINTR)
      return;
    if (R <= 0)
      continue;
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N == 0)
      return; // Client hung up.
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    Buf.append(Chunk, static_cast<size_t>(N));

    size_t Start = 0;
    for (size_t NL = Buf.find('\n', Start); NL != std::string::npos;
         NL = Buf.find('\n', Start)) {
      std::string Line = Buf.substr(Start, NL - Start);
      Start = NL + 1;
      if (Discarding) {
        Discarding = false; // The newline resynchronized the stream.
        continue;
      }
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;
      if (!sendAll(Fd, S.handleLine(Line) + "\n"))
        return;
      if (ShutdownRequested.load(std::memory_order_acquire)) {
        ShutdownCv.notify_all();
        return;
      }
    }
    Buf.erase(0, Start);

    // Still inside a discarded oversized frame (no newline yet): every
    // buffered byte belongs to that frame, so drop them all. Memory stays
    // bounded however much the client streams before the resynchronizing
    // newline arrives.
    if (Discarding) {
      Buf.clear();
      continue;
    }

    // A frame longer than the bound with no newline yet: answer the error
    // now and discard until the terminator, so one hostile client cannot
    // make the daemon buffer arbitrary bytes.
    if (Buf.size() > Config.MaxRequestBytes) {
      Counters.Requests.fetch_add(1, std::memory_order_relaxed);
      Counters.Errors.fetch_add(1, std::memory_order_relaxed);
      std::string Err = errorResponse("", "request frame exceeds " +
                                              std::to_string(
                                                  Config.MaxRequestBytes) +
                                              " bytes")
                            .toJsonLine();
      if (!sendAll(Fd, Err + "\n"))
        return;
      Buf.clear();
      Discarding = true;
    }
  }
}
