#include "obs/http.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/events.hh"
#include "obs/json.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"

namespace psca {
namespace obs {

namespace {

std::atomic<HealthProviderFn> g_health_provider{nullptr};

} // namespace

void
setHealthProvider(HealthProviderFn fn)
{
    g_health_provider.store(fn, std::memory_order_relaxed);
}

HealthProviderFn
healthProvider()
{
    return g_health_provider.load(std::memory_order_relaxed);
}

namespace {

std::string
statsBody()
{
    std::ostringstream os;
    StatRegistry::instance().writeJson(os, "live");
    return os.str();
}

std::string
eventsBody(uint64_t since)
{
    std::ostringstream os;
    os << "{\n  \"report\": \"events\",\n  \"events\": ";
    EventLog::instance().writeJson(os, "  ", since);
    os << "\n}\n";
    return os.str();
}

std::string
healthBody()
{
    if (HealthProviderFn fn = healthProvider())
        return fn();
    return "{\n  \"state\": \"idle\"\n}\n";
}

/** Value of @p key in an urlencoded query string, or @p def. */
uint64_t
queryParamU64(const std::string &query, const std::string &key,
              uint64_t def)
{
    size_t pos = 0;
    while (pos < query.size()) {
        size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        const size_t eq = query.find('=', pos);
        if (eq != std::string::npos && eq < amp &&
            query.compare(pos, eq - pos, key) == 0)
        {
            const std::string value =
                query.substr(eq + 1, amp - eq - 1);
            char *end = nullptr;
            const unsigned long long v =
                std::strtoull(value.c_str(), &end, 10);
            if (end && *end == '\0' && end != value.c_str())
                return v;
            return def;
        }
        pos = amp + 1;
    }
    return def;
}

std::string
phasesBody()
{
    std::ostringstream os;
    os << "{\n  \"report\": \"phases\",\n  \"phases\": ";
    writePhaseTreeJson(os);
    os << ",\n  \"open\": [";
    bool first = true;
    PhaseTracer::instance().forEachOpenScope(
        [&](int tid, const std::string &name, uint64_t open_ns) {
            os << (first ? "\n" : ",\n") << "    {\"tid\": " << tid
               << ", \"name\": \"" << jsonEscape(name)
               << "\", \"open_ms\": ";
            jsonNumber(os, static_cast<double>(open_ns) / 1e6);
            os << "}";
            first = false;
        });
    os << (first ? "" : "\n  ") << "]\n}\n";
    return os.str();
}

std::string
indexBody()
{
    return "{\n  \"endpoints\": [\"/stats.json\", \"/events\", "
           "\"/health\", \"/phases\"]\n}\n";
}

void
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off,
                                 data.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return; // peer went away; nothing to salvage
        off += static_cast<size_t>(n);
    }
}

void
sendResponse(int fd, const char *status, const std::string &body)
{
    std::string resp;
    resp.reserve(body.size() + 128);
    resp += "HTTP/1.0 ";
    resp += status;
    resp += "\r\nContent-Type: application/json\r\nContent-Length: ";
    resp += std::to_string(body.size());
    resp += "\r\nConnection: close\r\n\r\n";
    resp += body;
    sendAll(fd, resp);
}

} // namespace

HttpServer &
HttpServer::instance()
{
    static HttpServer server;
    return server;
}

bool
HttpServer::maybeStartFromEnv()
{
    long long port = 0;
    if (!env::intIfSet("PSCA_HTTP_PORT", port, 0, 65535))
        return false;
    return instance().start(
        static_cast<int>(port),
        env::stringOr("PSCA_HTTP_BIND", "127.0.0.1"));
}

bool
HttpServer::start(int port, const std::string &bind_addr)
{
    if (running()) {
        warn("live-stats endpoint already running on port ",
             this->port());
        return false;
    }

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        warn("live-stats endpoint: socket() failed (",
             std::strerror(errno), ")");
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
        warn("live-stats endpoint: bad bind address '", bind_addr,
             "' (expected IPv4 dotted quad)");
        ::close(fd);
        return false;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 16) != 0)
    {
        warn("live-stats endpoint: cannot listen on ", bind_addr, ":",
             port, " (", std::strerror(errno), ")");
        ::close(fd);
        return false;
    }

    sockaddr_in bound = {};
    socklen_t blen = sizeof(bound);
    int resolved = port;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &blen) == 0)
        resolved = static_cast<int>(ntohs(bound.sin_port));

    listenFd_ = fd;
    port_.store(resolved, std::memory_order_relaxed);
    stopRequested_.store(false, std::memory_order_relaxed);
    running_.store(true, std::memory_order_relaxed);
    PhaseTracer::instance().setLiveScopes(true);
    // Registered only when the endpoint is on, so endpoint-free runs
    // keep their reports byte-identical.
    StatRegistry::instance().counter("http.requests");
    thread_ = std::thread([this] { acceptLoop(); });
    inform("live-stats endpoint on http://", bind_addr, ":", resolved,
           " (/stats.json /events /health /phases)");
    return true;
}

void
HttpServer::stop()
{
    if (!running_.exchange(false, std::memory_order_relaxed))
        return;
    stopRequested_.store(true, std::memory_order_relaxed);
    if (thread_.joinable())
        thread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    port_.store(0, std::memory_order_relaxed);
    PhaseTracer::instance().setLiveScopes(false);
}

void
HttpServer::acceptLoop()
{
    while (!stopRequested_.load(std::memory_order_relaxed)) {
        pollfd pfd = {};
        pfd.fd = listenFd_;
        pfd.events = POLLIN;
        const int pr = ::poll(&pfd, 1, 250);
        if (pr <= 0)
            continue; // timeout (re-check stop) or transient error
        const int client = ::accept(listenFd_, nullptr, nullptr);
        if (client < 0)
            continue;
        handleConnection(client);
        ::close(client);
    }
}

void
HttpServer::handleConnection(int fd)
{
    // Read until the end of the request head (or a small cap — the
    // only thing consulted is the request line).
    std::string req;
    char buf[1024];
    while (req.size() < 8192 &&
           req.find("\r\n\r\n") == std::string::npos)
    {
        pollfd pfd = {};
        pfd.fd = fd;
        pfd.events = POLLIN;
        if (::poll(&pfd, 1, 2000) <= 0)
            return; // slow or dead client; drop it
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        req.append(buf, static_cast<size_t>(n));
    }
    const size_t sp1 = req.find(' ');
    const size_t sp2 =
        sp1 == std::string::npos ? sp1 : req.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
        sendResponse(fd, "400 Bad Request",
                     "{\"error\": \"bad request\"}\n");
        return;
    }
    const std::string method = req.substr(0, sp1);
    std::string path = req.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string query;
    const size_t q = path.find('?');
    if (q != std::string::npos) {
        query = path.substr(q + 1);
        path.resize(q);
    }

    StatRegistry::instance().counter("http.requests").add();
    if (method != "GET") {
        sendResponse(fd, "405 Method Not Allowed",
                     "{\"error\": \"GET only\"}\n");
        return;
    }
    if (path == "/stats.json")
        sendResponse(fd, "200 OK", statsBody());
    else if (path == "/events")
        sendResponse(fd, "200 OK",
                     eventsBody(queryParamU64(query, "since", 0)));
    else if (path == "/health")
        sendResponse(fd, "200 OK", healthBody());
    else if (path == "/phases")
        sendResponse(fd, "200 OK", phasesBody());
    else if (path == "/" || path == "/index.json")
        sendResponse(fd, "200 OK", indexBody());
    else
        sendResponse(fd, "404 Not Found",
                     "{\"error\": \"unknown endpoint\"}\n");
}

} // namespace obs
} // namespace psca
