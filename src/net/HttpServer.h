//===- net/HttpServer.h - Minimal poll()-based HTTP/1.1 server -*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free HTTP/1.1 server for the live observability
/// plane — the same hand-rolled spirit as support/JSON: no third-party
/// library, no feature beyond what the metrics endpoints need.
///
/// Shape: one background thread running a poll() loop over the listening
/// socket plus every open connection, all non-blocking. Requests are
/// GET/HEAD only (anything else gets 405); responses are either one-shot
/// (write, flush, close — Connection: close keeps the state machine
/// trivial) or *streaming* (Server-Sent Events: the response headers and
/// initial body are written, the connection stays open, and later
/// broadcast() calls append chunks to every streaming connection).
///
/// Shutdown is a plain atomic flag: the server loop polls it every cycle
/// and stop() raises it. On shutdown streaming connections get a final
/// "shutdown" SSE comment before the close.
///
/// Threading: start() spawns the server thread; the Handler and Tick
/// callbacks run *on that thread*. broadcast() may be called from the
/// handler or tick only (it touches the connection list, which is server-
/// thread-private). Everything the callbacks read from the campaign must
/// therefore be observer-safe — which is exactly what the engine's
/// liveSnapshot() contract provides.
///
//===----------------------------------------------------------------------===//

#ifndef NET_HTTPSERVER_H
#define NET_HTTPSERVER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace alive {

struct HttpRequest {
  std::string Method; ///< "GET" or "HEAD" (others are rejected earlier)
  std::string Path;   ///< decoded-enough path, query string stripped
  std::string Query;  ///< raw query string ("" when absent)
};

struct HttpResponse {
  int Status = 200;
  std::string ContentType = "text/plain; charset=utf-8";
  std::string Body;
  /// Server-Sent Events mode: Content-Type is forced to text/event-stream,
  /// Body is sent as the initial chunk and the connection stays open to
  /// receive broadcast() chunks until shutdown or client close.
  bool Stream = false;
};

class HttpServer {
public:
  using Handler = std::function<HttpResponse(const HttpRequest &)>;
  /// Called once per poll cycle (at least every ~50ms) on the server
  /// thread; the place to drain event queues and take periodic snapshots.
  using Tick = std::function<void()>;

  HttpServer();
  ~HttpServer();
  HttpServer(const HttpServer &) = delete;
  HttpServer &operator=(const HttpServer &) = delete;

  void setHandler(Handler H) { Handle = std::move(H); }
  void setTick(Tick T) { OnTick = std::move(T); }

  /// Seconds between ": ping" SSE keep-alive comments to streaming
  /// clients (<= 0 disables). Comments are ignored by EventSource parsers
  /// but keep idle connections alive through proxies/NATs — and make a
  /// silently hung-up client fail its next send, so the POLLHUP reaper
  /// gets a second trigger. Call before start().
  void setKeepAliveSeconds(double S) { KeepAliveSeconds = S; }

  /// Per-connection read deadline: a connection that has not delivered a
  /// complete request head within \p S seconds of being accepted gets a
  /// 408 and is closed (<= 0 disables). Slowloris-style stalls cannot pin
  /// one of the MaxConns slots forever. Call before start().
  void setReadDeadlineSeconds(double S) { ReadDeadlineSeconds = S; }

  /// Per-connection write deadline: a connection with queued response
  /// bytes that makes no send() progress for \p S seconds is dropped
  /// (<= 0 disables). The mirror of the read deadline — a client that
  /// accepts its request but never drains the response (zero receive
  /// window) would otherwise pin a one-shot response, or a slot, forever.
  /// Call before start().
  void setWriteDeadlineSeconds(double S) { WriteDeadlineSeconds = S; }

  /// Binds 127.0.0.1:\p Port (0 = kernel-assigned ephemeral port) and
  /// starts the server thread. \returns false with \p Error filled on
  /// bind/listen failure.
  bool start(uint16_t Port, std::string &Error);

  /// The bound port (the resolved one when started with 0).
  uint16_t port() const { return BoundPort; }

  bool running() const { return Thread.joinable(); }

  /// Graceful shutdown: raises the stop flag, lets the loop flush a final
  /// SSE farewell to streaming clients, joins the thread, closes every
  /// socket. Idempotent.
  void stop();

  /// Appends \p Chunk to every streaming connection's output buffer.
  /// Server thread only (handler / tick).
  void broadcast(const std::string &Chunk);

  /// Open streaming (SSE) connections. Server thread only.
  size_t streamClients() const;

private:
  struct Conn;
  void loop();
  void serviceConn(Conn &C);
  void respond(Conn &C);

  Handler Handle;
  Tick OnTick;
  double KeepAliveSeconds = 15;
  double ReadDeadlineSeconds = 10;
  double WriteDeadlineSeconds = 10;
  std::atomic<bool> Stopping{false};
  std::thread Thread;
  int ListenFD = -1;
  uint16_t BoundPort = 0;
  // Owned by the server thread once start() returns.
  std::vector<Conn> *Conns = nullptr;
};

} // namespace alive

#endif // NET_HTTPSERVER_H
