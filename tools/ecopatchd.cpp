// ecopatchd — the long-lived patch service (docs/SERVICE.md).
//
//   ecopatchd [options]
//       Accepts line-delimited JSON job requests on stdin and writes one
//       JSON response line per request to stdout (responses may interleave
//       across jobs; match them by "id"). EOF drains and exits.
//   ecopatchd --socket PATH [options]
//       Same protocol over a local Unix stream socket: each connected
//       client sends request lines and receives its own responses.
//
// Options:
//   --jobs N           concurrent jobs (default 2)
//   --queue N          admission cap, queued + running (default 64)
//   --budget S         default per-job wall budget in seconds (default 60)
//   --max-budget S     ceiling for requested budgets (default: none)
//   --cache-mb MB      session-cache budget (default 256; 0 = cold mode)
//   --no-warm          do not feed harvested patterns back into sessions
//   --drain-grace S    drain: seconds to wait before cancelling (default 30)
//   --ledger FILE      per-query JSONL ledger sink (flushed on drain)
//   --par-engine       give jobs the pool for intra-job parallelism
//   --isolate N        run jobs in N forked worker processes (default 0 =
//                      in-process; see docs/SERVICE.md "Worker isolation")
//   --retries K        crash/watchdog retries per job, fresh worker each
//   --kill-factor F    watchdog SIGKILL at budget x F (default 2)
//   --recycle-jobs N   replace a worker after N jobs (default: never)
//   --recycle-rss-mb M replace a worker whose RSS exceeds M MiB
//
// Global flags: -v/--verbose, -vv, --fault SPEC (as in ecopatch).
//
// Each client's receive buffer is capped at 1 MiB per line: an overlong
// line answers `bad_request` and closes that client (stdin mode drains).
//
// SIGTERM/SIGINT trigger a graceful drain: admission stops, in-flight jobs
// get drain-grace seconds to finish, then cooperative cancellation; every
// admitted job still delivers its response, worker processes are reaped,
// the ledger is flushed, and the process exits 0. Exit codes: 0 clean
// drain, 2 usage (incl. malformed option values), 6 unusable socket or
// ledger path.

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/daemon.hpp"
#include "service/lines.hpp"
#include "util/faultpoint.hpp"
#include "util/ledger.hpp"
#include "util/log.hpp"
#include "util/numparse.hpp"

namespace {

/// Set by SIGTERM/SIGINT; the poll loops notice and start the drain.
volatile std::sig_atomic_t g_signal = 0;

int usage() {
  std::fprintf(stderr,
               "usage: ecopatchd [--socket PATH] [--jobs N] [--queue N]\n"
               "                 [--budget S] [--max-budget S] [--cache-mb MB]\n"
               "                 [--no-warm] [--drain-grace S] [--ledger FILE]\n"
               "                 [--par-engine] [--isolate N] [--retries K]\n"
               "                 [--kill-factor F] [--recycle-jobs N]\n"
               "                 [--recycle-rss-mb M] [-v|-vv] [--fault SPEC]\n");
  return 2;
}

int bad_value(const std::string& flag, const char* value) {
  std::fprintf(stderr, "ecopatchd: %s: invalid value '%s'\n", flag.c_str(),
               value == nullptr ? "" : value);
  return usage();
}

/// One connected peer (a socket client, or stdout for the stdin mode).
/// Response writers run on daemon worker threads, so every write goes
/// through the per-client lock, and a closed client swallows writes instead
/// of touching a recycled descriptor.
struct Client {
  explicit Client(int fd) : fd(fd) {}
  std::mutex mu;
  int fd = -1;
  /// Capped partial-line receive buffer (poll thread only): a peer
  /// streaming an unbounded line costs at most kDefaultMaxLine bytes.
  eco::service::LineSplitter rx;

  void send_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    if (fd < 0) return;  // client already gone; the response is dropped
    std::string out = line;
    out += '\n';
    size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        close_locked();
        return;
      }
      off += static_cast<size_t>(n);
    }
  }

  void close_now() {
    std::lock_guard<std::mutex> lock(mu);
    close_locked();
  }

  bool closed() {
    std::lock_guard<std::mutex> lock(mu);
    return fd < 0;
  }

 private:
  void close_locked() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

/// Feeds \p len received bytes through \p c's capped line splitter into the
/// daemon. Returns false when the client overflowed its 1 MiB line cap: the
/// overflow is answered with `bad_request` and the caller must drop the
/// client (lines completed before the oversized one were still submitted).
bool feed(eco::service::Daemon& daemon, const std::shared_ptr<Client>& c,
          const char* data, size_t len) {
  const bool ok = c->rx.append(data, len, [&](const std::string& line) {
    daemon.submit_line(line,
                       [c](std::string response) { c->send_line(response); });
  });
  if (!ok) {
    c->send_line(eco::service::error_response(
        "", "bad_request",
        "request line exceeds " + std::to_string(c->rx.max_line()) + " bytes"));
  }
  return ok;
}

int run_stdin(eco::service::Daemon& daemon) {
  // stdout is the shared response channel; Client serializes the writers.
  auto out = std::make_shared<Client>(STDOUT_FILENO);
  std::string buf(1 << 16, '\0');
  bool eof = false;
  // draining() covers the `drain` control op: in stdin mode there is no
  // other client to serve, so an acknowledged drain ends the read loop just
  // like EOF or a signal would.
  while (!eof && g_signal == 0 && !daemon.draining()) {
    struct pollfd pfd{STDIN_FILENO, POLLIN, 0};
    const int r = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (r < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks g_signal
      break;
    }
    if (r == 0) continue;
    const ssize_t n = ::read(STDIN_FILENO, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    // Responses go to out->fd (stdout); an oversized stdin line is answered
    // bad_request and treated like EOF — the stream is unparseable past it.
    if (!feed(daemon, out, buf.data(), static_cast<size_t>(n))) break;
  }
  if (g_signal != 0)
    eco::log_info("ecopatchd: signal %d, draining %zu in-flight job(s)",
                  static_cast<int>(g_signal), daemon.in_flight());
  daemon.drain();  // delivers every admitted response through `out`
  return 0;
}

int run_socket(eco::service::Daemon& daemon, const std::string& path) {
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::fprintf(stderr, "ecopatchd: socket: %s\n", std::strerror(errno));
    return 6;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "ecopatchd: socket path too long: %s\n", path.c_str());
    ::close(listen_fd);
    return 6;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    std::fprintf(stderr, "ecopatchd: cannot listen on %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(listen_fd);
    return 6;
  }
  eco::log_info("ecopatchd: listening on %s", path.c_str());

  std::vector<std::shared_ptr<Client>> clients;
  std::string buf(1 << 16, '\0');
  while (g_signal == 0 && !daemon.draining()) {
    // clients[i] pairs with pfds[i + 1] for this whole iteration: the count
    // is snapshotted before accept() can grow the vector, and removals are
    // deferred to a compaction pass so indices never shift mid-loop. A
    // freshly accepted client is first polled on the next iteration.
    const size_t polled = clients.size();
    std::vector<pollfd> pfds;
    pfds.reserve(polled + 1);
    pfds.push_back({listen_fd, POLLIN, 0});
    for (const auto& c : clients) pfds.push_back({c->fd, POLLIN, 0});
    const int r = ::poll(pfds.data(), pfds.size(), /*timeout_ms=*/200);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) clients.push_back(std::make_shared<Client>(fd));
    }
    for (size_t i = 0; i < polled; ++i) {
      const short ev = pfds[i + 1].revents;
      if (ev == 0) continue;
      auto& c = clients[i];
      bool gone = (ev & (POLLERR | POLLNVAL)) != 0;
      if (!gone && (ev & (POLLIN | POLLHUP)) != 0) {
        const ssize_t n = ::read(c->fd, buf.data(), buf.size());
        if (n > 0) {
          // Line-cap overflow: bad_request was sent; drop the client.
          if (!feed(daemon, c, buf.data(), static_cast<size_t>(n))) gone = true;
        } else if (n == 0 || (n < 0 && errno != EINTR)) {
          gone = true;
        }
      }
      if (gone) c->close_now();  // fd becomes -1; compacted below
    }
    clients.erase(std::remove_if(clients.begin(), clients.end(),
                                 [](const std::shared_ptr<Client>& c) {
                                   return c->closed();
                                 }),
                  clients.end());
  }
  if (g_signal != 0)
    eco::log_info("ecopatchd: signal %d, draining %zu in-flight job(s)",
                  static_cast<int>(g_signal), daemon.in_flight());
  // In-flight responses still flow to their (open) clients during drain.
  daemon.drain();
  for (const auto& c : clients) c->close_now();
  ::close(listen_fd);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int verbosity = 0;
  eco::service::ServiceOptions options;
  std::string socket_path;
  std::string ledger_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-v" || arg == "--verbose") ++verbosity;
    else if (arg == "-vv") verbosity += 2;
    else if (arg == "--fault" && i + 1 < argc) {
      std::string error;
      if (!eco::fault::arm(argv[++i], &error)) {
        std::fprintf(stderr, "ecopatchd: --fault: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--socket" && i + 1 < argc) socket_path = argv[++i];
    else if (arg == "--no-warm") options.warm_patterns = false;
    else if (arg == "--par-engine") options.engine_parallel = true;
    else if (i + 1 < argc &&
             (arg == "--jobs" || arg == "--queue" || arg == "--budget" ||
              arg == "--max-budget" || arg == "--cache-mb" ||
              arg == "--drain-grace" || arg == "--ledger" ||
              arg == "--isolate" || arg == "--retries" ||
              arg == "--kill-factor" || arg == "--recycle-jobs" ||
              arg == "--recycle-rss-mb")) {
      const char* value = argv[++i];
      // Strict operands (util/numparse.hpp): a robustness daemon must reject
      // a command line it does not fully understand.
      long n = 0;
      double s = 0;
      if (arg == "--ledger") ledger_path = value;
      else if (arg == "--jobs") {
        if (!eco::util::parse_long(value, n) || n < 1) return bad_value(arg, value);
        options.jobs = static_cast<int>(n);
      } else if (arg == "--queue") {
        if (!eco::util::parse_long(value, n) || n < 1) return bad_value(arg, value);
        options.queue_depth = static_cast<size_t>(n);
      } else if (arg == "--budget") {
        if (!eco::util::parse_double(value, s) || s < 0) return bad_value(arg, value);
        options.default_budget_seconds = s;
      } else if (arg == "--max-budget") {
        if (!eco::util::parse_double(value, s) || s < 0) return bad_value(arg, value);
        options.max_budget_seconds = s;
      } else if (arg == "--cache-mb") {
        if (!eco::util::parse_long(value, n) || n < 0) return bad_value(arg, value);
        options.cache_budget_bytes = static_cast<uint64_t>(n) << 20;
      } else if (arg == "--drain-grace") {
        if (!eco::util::parse_double(value, s) || s < 0) return bad_value(arg, value);
        options.drain_grace_seconds = s;
      } else if (arg == "--isolate") {
        if (!eco::util::parse_long(value, n) || n < 0) return bad_value(arg, value);
        options.worker.workers = static_cast<int>(n);
      } else if (arg == "--retries") {
        if (!eco::util::parse_long(value, n) || n < 0) return bad_value(arg, value);
        options.worker.retries = static_cast<int>(n);
      } else if (arg == "--kill-factor") {
        if (!eco::util::parse_double(value, s) || s < 1.0) return bad_value(arg, value);
        options.worker.kill_factor = s;
      } else if (arg == "--recycle-jobs") {
        if (!eco::util::parse_long(value, n) || n < 1) return bad_value(arg, value);
        options.worker.recycle_jobs = static_cast<uint64_t>(n);
      } else {  // --recycle-rss-mb
        if (!eco::util::parse_long(value, n) || n < 1) return bad_value(arg, value);
        options.worker.recycle_rss_bytes = static_cast<uint64_t>(n) << 20;
      }
    } else
      return usage();
  }
  if (verbosity >= 2) eco::set_log_level(eco::LogLevel::kDebug);
  else if (verbosity == 1) eco::set_log_level(eco::LogLevel::kInfo);

  if (!ledger_path.empty() && !eco::ledger::set_sink(ledger_path)) {
    std::fprintf(stderr, "ecopatchd: cannot write %s: %s\n", ledger_path.c_str(),
                 std::strerror(errno));
    return 6;
  }

  // One atomic store; the poll loop notices within its 200 ms tick and runs
  // the graceful drain (daemon.cpp). A second signal during the drain is
  // absorbed — drain already cancels after the grace.
  std::signal(SIGINT, [](int sig) { g_signal = sig; });
  std::signal(SIGTERM, [](int sig) { g_signal = sig; });
  std::signal(SIGPIPE, SIG_IGN);  // client hangups surface as write errors

  eco::service::Daemon daemon(options);
  const int rc = socket_path.empty() ? run_stdin(daemon)
                                     : run_socket(daemon, socket_path);
  eco::ledger::close_sink();
  return rc;
}
