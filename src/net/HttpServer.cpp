//===- net/HttpServer.cpp - Minimal poll()-based HTTP/1.1 server ----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/HttpServer.h"

#include "support/FaultPlane.h"
#include "support/Timer.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace alive;

namespace {

/// Connections beyond this are accepted and immediately closed: the
/// observability plane serves one dashboard and a CI curl, not traffic.
constexpr size_t MaxConns = 64;
/// A request whose headers exceed this is a 431 and a close.
constexpr size_t MaxHeaderBytes = 16 * 1024;

bool setNonBlocking(int FD) {
  int Flags = fcntl(FD, F_GETFL, 0);
  return Flags >= 0 && fcntl(FD, F_SETFL, Flags | O_NONBLOCK) == 0;
}

const char *statusText(int Status) {
  switch (Status) {
  case 200:
    return "OK";
  case 400:
    return "Bad Request";
  case 404:
    return "Not Found";
  case 405:
    return "Method Not Allowed";
  case 408:
    return "Request Timeout";
  case 431:
    return "Request Header Fields Too Large";
  case 503:
    return "Service Unavailable";
  default:
    return "Internal Server Error";
  }
}

} // namespace

struct HttpServer::Conn {
  int FD = -1;
  std::string In;      ///< bytes read, waiting for the header terminator
  std::string Out;     ///< bytes queued for write
  size_t OutPos = 0;   ///< written prefix of Out
  bool Streaming = false;
  bool CloseWhenFlushed = false;
  bool Dead = false;
  /// Loop-clock second the connection was accepted at; a connection still
  /// reading its request head past the deadline gets a 408.
  double AcceptedAt = 0;
  /// Loop-clock second queued output first stalled (0 = not stalled).
  /// Stamped by the loop when bytes are pending, cleared by serviceConn on
  /// any send() progress; a connection stalled past the write deadline is
  /// dropped.
  double WriteStalledSince = 0;
};

HttpServer::HttpServer() = default;

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start(uint16_t Port, std::string &Error) {
  if (running()) {
    Error = "server already running";
    return false;
  }
  ListenFD = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFD < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFD, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);

  sockaddr_in Addr = {};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(ListenFD, (sockaddr *)&Addr, sizeof Addr) != 0 ||
      ::listen(ListenFD, 16) != 0 || !setNonBlocking(ListenFD)) {
    Error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(ListenFD);
    ListenFD = -1;
    return false;
  }
  socklen_t Len = sizeof Addr;
  if (::getsockname(ListenFD, (sockaddr *)&Addr, &Len) != 0) {
    Error = std::string("getsockname: ") + std::strerror(errno);
    ::close(ListenFD);
    ListenFD = -1;
    return false;
  }
  BoundPort = ntohs(Addr.sin_port);
  Stopping = false;
  Thread = std::thread([this] { loop(); });
  return true;
}

void HttpServer::stop() {
  if (!running())
    return;
  Stopping = true;
  Thread.join();
}

void HttpServer::broadcast(const std::string &Chunk) {
  if (!Conns)
    return;
  for (Conn &C : *Conns)
    if (C.Streaming && !C.Dead)
      C.Out += Chunk;
}

size_t HttpServer::streamClients() const {
  if (!Conns)
    return 0;
  size_t N = 0;
  for (const Conn &C : *Conns)
    N += C.Streaming && !C.Dead;
  return N;
}

/// Parses the buffered request head and queues the response.
void HttpServer::respond(Conn &C) {
  HttpRequest Req;
  HttpResponse Res;
  size_t LineEnd = C.In.find("\r\n");
  size_t Sp1 = C.In.find(' ');
  size_t Sp2 = Sp1 == std::string::npos ? std::string::npos
                                        : C.In.find(' ', Sp1 + 1);
  if (LineEnd == std::string::npos || Sp1 == std::string::npos ||
      Sp2 == std::string::npos || Sp2 > LineEnd) {
    Res.Status = 400;
    Res.Body = "malformed request line\n";
  } else {
    Req.Method = C.In.substr(0, Sp1);
    std::string Target = C.In.substr(Sp1 + 1, Sp2 - Sp1 - 1);
    size_t Q = Target.find('?');
    Req.Path = Target.substr(0, Q);
    if (Q != std::string::npos)
      Req.Query = Target.substr(Q + 1);
    if (Req.Method != "GET" && Req.Method != "HEAD") {
      Res.Status = 405;
      Res.Body = "only GET is served here\n";
    } else if (Handle) {
      Res = Handle(Req);
    } else {
      Res.Status = 503;
      Res.Body = "no handler\n";
    }
  }

  bool Head = Req.Method == "HEAD";
  if (Res.Stream && !Head) {
    C.Streaming = true;
    C.Out += "HTTP/1.1 200 OK\r\n"
             "Content-Type: text/event-stream\r\n"
             "Cache-Control: no-store\r\n"
             "Connection: close\r\n\r\n";
    C.Out += Res.Body;
  } else {
    C.Out += "HTTP/1.1 " + std::to_string(Res.Status) + " " +
             statusText(Res.Status) + "\r\n" +
             "Content-Type: " + Res.ContentType + "\r\n" +
             "Content-Length: " + std::to_string(Res.Body.size()) + "\r\n" +
             "Connection: close\r\n\r\n";
    if (!Head)
      C.Out += Res.Body;
    C.CloseWhenFlushed = true;
  }
  C.In.clear();
}

void HttpServer::loop() {
  std::vector<Conn> Connections;
  Conns = &Connections;

  Timer LoopClock;
  double LastPing = 0;
  std::vector<pollfd> PFDs;
  while (!Stopping) {
    if (OnTick)
      OnTick();

    PFDs.clear();
    PFDs.push_back({ListenFD, POLLIN, 0});
    for (Conn &C : Connections) {
      short Ev = 0;
      if (!C.Streaming && !C.CloseWhenFlushed)
        Ev |= POLLIN;
      if (C.OutPos < C.Out.size())
        Ev |= POLLOUT;
      if (C.Streaming)
        Ev |= POLLIN; // detect client close
      PFDs.push_back({C.FD, Ev, 0});
    }
    // 50ms keeps tick/shutdown latency low without busy-waiting.
    int N = ::poll(PFDs.data(), (nfds_t)PFDs.size(), 50);
    if (N < 0 && errno != EINTR)
      break;

    if (PFDs[0].revents & POLLIN) {
      for (;;) {
        int FD = ::accept(ListenFD, nullptr, nullptr);
        if (FD < 0)
          break;
        if (faultAt("http.accept")) {
          // Injected accept failure: the client sees a refused/reset
          // connection, exactly like an accept() hitting EMFILE.
          ::close(FD);
          continue;
        }
        if (Connections.size() >= MaxConns || !setNonBlocking(FD)) {
          ::close(FD);
          continue;
        }
        int One = 1;
        ::setsockopt(FD, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
        Conn C;
        C.FD = FD;
        C.AcceptedAt = LoopClock.seconds();
        Connections.push_back(std::move(C));
      }
    }

    for (size_t I = 1; I < PFDs.size(); ++I) {
      Conn &C = Connections[I - 1];
      if (PFDs[I].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        C.Dead = true;
        continue;
      }
      if (PFDs[I].revents & (POLLIN | POLLOUT))
        serviceConn(C);
    }

    double Now = LoopClock.seconds();
    // SSE keep-alive: a comment frame every KeepAliveSeconds. EventSource
    // parsers discard it; a hung-up client's next flush attempt surfaces
    // the close even when POLLHUP never fired.
    if (KeepAliveSeconds > 0 && Now - LastPing >= KeepAliveSeconds) {
      LastPing = Now;
      broadcast(": ping\n\n");
    }
    // Read deadline: a connection still dribbling (or withholding) its
    // request head past the deadline is answered 408 and closed, freeing
    // its MaxConns slot.
    if (ReadDeadlineSeconds > 0)
      for (Conn &C : Connections)
        if (!C.Streaming && !C.CloseWhenFlushed && !C.Dead &&
            Now - C.AcceptedAt > ReadDeadlineSeconds) {
          C.Out += "HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\n"
                   "Connection: close\r\n\r\n";
          C.CloseWhenFlushed = true;
          C.In.clear();
        }
    // Write deadline: queued bytes that make no send() progress for the
    // whole window mean the peer stopped draining (zero receive window,
    // half-dead NAT) — a one-shot response or an SSE stream would pin its
    // slot indefinitely. Drop the connection; there is no way to send an
    // error to a client that is not reading.
    if (WriteDeadlineSeconds > 0)
      for (Conn &C : Connections) {
        if (C.Dead || C.OutPos >= C.Out.size()) {
          C.WriteStalledSince = 0;
          continue;
        }
        if (C.WriteStalledSince == 0)
          C.WriteStalledSince = Now;
        else if (Now - C.WriteStalledSince > WriteDeadlineSeconds)
          C.Dead = true;
      }

    Connections.erase(
        std::remove_if(Connections.begin(), Connections.end(),
                       [](Conn &C) {
                         bool Gone =
                             C.Dead ||
                             (C.CloseWhenFlushed && C.OutPos >= C.Out.size());
                         if (Gone && C.FD >= 0)
                           ::close(C.FD);
                         return Gone;
                       }),
        Connections.end());
  }

  // Graceful farewell to streaming clients, then tear everything down.
  for (Conn &C : Connections) {
    if (C.Streaming && !C.Dead) {
      std::string Bye = "event: shutdown\ndata: {}\n\n";
      (void)!::send(C.FD, Bye.data(), Bye.size(), MSG_NOSIGNAL);
    }
    if (C.FD >= 0)
      ::close(C.FD);
  }
  Connections.clear();
  Conns = nullptr;
  if (ListenFD >= 0) {
    ::close(ListenFD);
    ListenFD = -1;
  }
}

void HttpServer::serviceConn(Conn &C) {
  // Drain reads first: either request bytes or a client close.
  char Buf[4096];
  for (;;) {
    ssize_t R = ::recv(C.FD, Buf, sizeof Buf, 0);
    if (R > 0) {
      if (C.Streaming)
        continue; // ignore anything a streaming client sends
      C.In.append(Buf, (size_t)R);
      if (C.In.size() > MaxHeaderBytes) {
        C.Out += "HTTP/1.1 431 Request Header Fields Too Large\r\n"
                 "Content-Length: 0\r\nConnection: close\r\n\r\n";
        C.CloseWhenFlushed = true;
        C.In.clear();
        break;
      }
      if (C.In.find("\r\n\r\n") != std::string::npos) {
        respond(C);
        break;
      }
    } else if (R == 0) {
      C.Dead = true;
      return;
    } else {
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      if (errno == EINTR)
        continue;
      C.Dead = true;
      return;
    }
  }

  // Flush pending output (non-blocking; the rest goes next POLLOUT).
  while (C.OutPos < C.Out.size()) {
    if (faultAt("http.send"))
      return; // injected stall: behaves like a send() returning EAGAIN
    ssize_t W = ::send(C.FD, C.Out.data() + C.OutPos, C.Out.size() - C.OutPos,
                       MSG_NOSIGNAL);
    if (W > 0) {
      C.OutPos += (size_t)W;
      C.WriteStalledSince = 0; // forward progress re-arms the deadline
    } else {
      if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return;
      if (W < 0 && errno == EINTR)
        continue;
      C.Dead = true;
      return;
    }
  }
  // Fully flushed: compact the buffer so a long-lived SSE connection does
  // not grow without bound.
  if (C.OutPos == C.Out.size()) {
    C.Out.clear();
    C.OutPos = 0;
  }
}
