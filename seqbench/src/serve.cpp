// serve_mixed: the TCP daemon under an open-loop request schedule.
//
// An in-process server::Server listens on loopback with a durable snapshot
// store in the run's temporary directory. Set-up starts it and preloads the
// resident designs (load + cold learn, which writes through to the store).
// The measured part replays a seeded arrival schedule at a fixed rate over
// two pipelined client connections, one thread, poll(): each request is
// sent when due whether or not earlier replies have arrived, and its
// latency is timed from when it was due. Two connections plus two daemon
// session slots keep the process within four busy threads. The client
// sockets keep the kernel's defaults (Nagle on, delayed ACKs), as a plain
// client's would.
//
// The traffic is synthetic: no recorded request trace of the daemon
// exists. Six request kinds get equal shares: five warm reads on resident
// designs (stats, repeat learn, default atpg, guided atpg, fault_sim) and
// cold writes (load + first learn of a new design). Every resident is
// equally popular and every request picks its connection at random. The
// design cache's byte cap is smaller than the working set, so the run
// evicts and fetches back from the store. Heavy requests are bounded by
// item limits, never deadlines, so every reply is deterministic.

#include "bench.hpp"

#include "netlist/bench_io.hpp"
#include "server/design_cache.hpp"
#include "server/json.hpp"
#include "server/server.hpp"
#include "server/snapshot_store.hpp"
#include "util/rng.hpp"
#include "workload/circuit_gen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

namespace seqbench {

using namespace seqlearn;

namespace {

/// Open-loop arrival rate: a quarter of the rate at which the mix saturates
/// the daemon on the reference host (80/s), so a slower host still answers
/// every request well within kLatencyLimitMs.
constexpr double kRatePerSecond = 20.0;
constexpr double kLatencyLimitMs = 1000.0;  ///< slower replies count as failed
constexpr std::size_t kConnections = 2;
constexpr std::size_t kSessions = 2;  ///< daemon heavy-request slots
constexpr std::size_t kCacheBytes = 6u << 20;  ///< below the working set
constexpr double kDrainSeconds = 60.0;  ///< give up on replies after this

enum class Kind { Stats, Learn, Atpg, GuidedAtpg, FaultSim, Load, ColdLearn };

const char* cmd_of(Kind k) {
    switch (k) {
        case Kind::Stats: return "stats";
        case Kind::Learn:
        case Kind::ColdLearn: return "learn";
        case Kind::Atpg:
        case Kind::GuidedAtpg: return "atpg";
        case Kind::FaultSim: return "fault_sim";
        case Kind::Load: return "load";
    }
    return "?";
}

struct Design {
    std::string name;
    std::string bench;
    std::string digest;  ///< hex content digest, as the daemon names it
};

struct Request {
    Kind kind = Kind::Stats;
    std::size_t design = 0;  ///< index into the design table
    std::size_t conn = 0;
    double due_s = 0.0;  ///< offset from the schedule start
    std::string line;
    // Filled in as the request runs.
    std::int64_t sent_ns = 0;
    std::int64_t reply_ns = 0;
    bool answered = false;
    bool ok = false;  ///< the reply passed every check
};

/// One blocking-connect, then non-blocking pipelined client connection.
class Conn {
public:
    explicit Conn(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) throw std::runtime_error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd_);
            throw std::runtime_error("connect() to the daemon failed");
        }
    }
    ~Conn() { ::close(fd_); }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    int fd() const noexcept { return fd_; }
    bool want_write() const noexcept { return out_pos_ < out_.size(); }

    void queue(const std::string& line) {
        out_ += line;
        out_ += '\n';
    }

    /// Write what the socket takes without blocking.
    void flush() {
        while (want_write()) {
            const ssize_t n = ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
                                     MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n <= 0) break;
            out_pos_ += static_cast<std::size_t>(n);
        }
        if (!want_write()) {
            out_.clear();
            out_pos_ = 0;
        }
    }

    /// Read what is available; returns complete lines. Throws on EOF.
    std::vector<std::string> read_lines() {
        char buf[65536];
        for (;;) {
            const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
            if (n > 0) {
                in_.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) throw std::runtime_error("daemon closed a connection");
            break;  // EAGAIN
        }
        std::vector<std::string> lines;
        std::size_t start = 0;
        for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos; start = nl + 1)
            lines.push_back(in_.substr(start, nl - start));
        in_.erase(0, start);
        return lines;
    }

    /// Closed-loop call for set-up: send one line, wait for its reply.
    std::string call(const std::string& line) {
        queue(line);
        for (;;) {
            flush();
            pollfd p{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)), 0};
            if (::poll(&p, 1, 60000) <= 0) throw std::runtime_error("daemon did not answer");
            std::vector<std::string> lines = read_lines();
            if (!lines.empty()) return lines.front();
        }
    }

private:
    int fd_ = -1;
    std::string out_;
    std::size_t out_pos_ = 0;
    std::string in_;
};

std::string load_line(const Design& d, const std::string& id) {
    return "{\"cmd\": \"load\", \"id\": \"" + id + "\", \"name\": \"" +
           server::json_escape(d.name) + "\", \"bench\": \"" + server::json_escape(d.bench) +
           "\"}";
}

std::string request_line(Kind k, const Design& d, const std::string& id) {
    const std::string head = "{\"cmd\": \"" + std::string(cmd_of(k)) + "\", \"id\": \"" + id +
                             "\", \"design\": \"" + d.digest + "\"";
    switch (k) {
        case Kind::Load: return load_line(d, id);
        case Kind::Stats:
        case Kind::Learn:
        case Kind::ColdLearn: return head + "}";
        case Kind::Atpg: return head + ", \"limit_faults\": 24}";
        case Kind::GuidedAtpg:
            return head + ", \"guidance\": \"scoap\", \"rand_warmup\": 16, \"fill\": \"random\", "
                          "\"limit_faults\": 24}";
        case Kind::FaultSim: return head + ", \"limit_sequences\": 8}";
    }
    return head + "}";
}

/// Per-run reply checker: every reply must parse with ok: true and the
/// expected outcome, and a design's deterministic answers (relation hash,
/// campaign digest, coverage) must repeat exactly.
class Checker {
public:
    explicit Checker(Run& run) : run_(run) {}

    /// Returns false (and counts a wrong answer) when the reply fails.
    bool check(const Request& rq, const Design& d, const std::string& line) {
        std::string err;
        const std::optional<server::JsonValue> doc = server::JsonValue::parse(line, &err);
        const std::string what = std::string(cmd_of(rq.kind)) + " on " + d.name + ": ";
        if (!doc || !doc->is_object()) return bad(what + "reply does not parse: " + err);
        if (!doc->get_bool("ok")) {
            const server::JsonValue* e = doc->get("error");
            if (e != nullptr && e->get_string("class") == "overloaded") ++overloaded_;
            return bad(what + "not ok: " + line.substr(0, 160));
        }
        if (doc->get_string("design") != d.digest) return bad(what + "wrong design digest");
        const server::JsonValue* outcome = doc->get("outcome");
        const std::string status = outcome ? outcome->get_string("status") : "";
        switch (rq.kind) {
            case Kind::Load:
                return true;
            case Kind::Stats: {
                const server::JsonValue* learned = doc->get("learned");
                if (learned == nullptr) return true;  // evicted and not yet fetched back
                return same(d.digest + "/relations", learned->get_string("relation_hash"), what);
            }
            case Kind::Learn:
            case Kind::ColdLearn:
                if (status != "completed") return bad(what + "outcome " + status);
                if (rq.kind == Kind::Learn && !doc->get_bool("warm"))
                    return bad(what + "resident design answered cold");
                warm_ += doc->get_bool("warm") ? 1 : 0;
                ++warmable_;
                return same(d.digest + "/relations", doc->get_string("relation_hash"), what);
            case Kind::Atpg:
            case Kind::GuidedAtpg:
                if (status != "completed" && status != "limit")
                    return bad(what + "outcome " + status);
                warm_ += doc->get_bool("warm") ? 1 : 0;
                ++warmable_;
                return same(d.digest + (rq.kind == Kind::Atpg ? "/atpg" : "/guided"),
                            doc->get_string("campaign_digest"), what);
            case Kind::FaultSim: {
                if (status != "completed" && status != "limit")
                    return bad(what + "outcome " + status);
                char buf[48];
                std::snprintf(buf, sizeof buf, "%zu/%zu",
                              static_cast<std::size_t>(doc->get_number("detected")),
                              static_cast<std::size_t>(doc->get_number("total")));
                return same(d.digest + "/fault_sim", buf, what);
            }
        }
        return true;
    }

    std::size_t overloaded() const noexcept { return overloaded_; }
    double warm_ratio() const {
        return warmable_ ? static_cast<double>(warm_) / static_cast<double>(warmable_) : 0.0;
    }

private:
    bool bad(std::string what) {
        run_.fail(std::move(what));
        return false;
    }
    bool same(const std::string& key, const std::string& value, const std::string& what) {
        if (value.empty()) return bad(what + "reply lacks " + key);
        const auto [it, inserted] = seen_.emplace(key, value);
        if (!inserted && it->second != value)
            return bad(what + key + " is " + value + ", earlier " + it->second);
        return true;
    }

    Run& run_;
    std::map<std::string, std::string> seen_;
    std::size_t warm_ = 0, warmable_ = 0, overloaded_ = 0;
};

/// A started daemon plus its client connections.
struct Daemon {
    std::unique_ptr<server::Server> server;
    std::vector<std::unique_ptr<Conn>> conns;
};

Daemon start_daemon(const std::string& store_dir) {
    std::filesystem::remove_all(store_dir);
    server::SnapshotStoreConfig store_cfg;
    store_cfg.dir = store_dir;
    std::string error;
    server::ServerConfig cfg;
    cfg.port = 0;
    cfg.service.max_sessions = kSessions;
    cfg.service.threads = 1;
    cfg.service.cache.max_bytes = kCacheBytes;
    cfg.service.store = server::SnapshotStore::open(std::move(store_cfg), &error);
    if (!cfg.service.store) throw std::runtime_error("snapshot store: " + error);
    Daemon d;
    d.server = std::make_unique<server::Server>(std::move(cfg));
    if (!d.server->start(&error)) throw std::runtime_error("daemon start: " + error);
    for (std::size_t i = 0; i < kConnections; ++i)
        d.conns.push_back(std::make_unique<Conn>(d.server->port()));
    return d;
}

Design make_design(std::string name, std::uint64_t seed) {
    const netlist::Netlist nl =
        workload::generate(workload::iscas_like(std::move(name), 16, 120, seed));
    Design d{nl.name(), netlist::write_bench_string(nl), ""};
    d.digest = server::hex_u64(server::content_digest(d.bench));
    return d;
}

}  // namespace

void run_serve_mixed(Run& run) {
    const bool tiny = run.scale == Scale::Tiny;
    const std::size_t residents = tiny ? 4 : 64;
    std::vector<Design> designs;
    for (std::size_t i = 0; i < residents; ++i)
        designs.push_back(
            make_design("serve_resident_" + std::to_string(i), mix_seed(run.seed, 1000 + i)));
    // The arrival schedule: Poisson arrivals at kRatePerSecond. The kinds
    // come in blocks of six, each block a seeded shuffle of the six kinds,
    // so every kind gets exactly its share. Design and connection are
    // uniform seeded draws.
    util::Rng rng(mix_seed(run.seed, 7));
    std::vector<Request> schedule;
    std::vector<Kind> block;
    std::size_t cold = 0;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.uniform01()) / kRatePerSecond;
        if (t >= run.seconds) break;
        if (block.empty()) {
            block = {Kind::Stats, Kind::Learn,    Kind::Atpg,
                     Kind::GuidedAtpg, Kind::FaultSim, Kind::Load};
            for (std::size_t i = block.size() - 1; i > 0; --i)
                std::swap(block[i], block[rng.below(i + 1)]);
        }
        Request rq;
        rq.due_s = t;
        rq.kind = block.back();
        block.pop_back();
        rq.design = static_cast<std::size_t>(rng.below(residents));
        rq.conn = static_cast<std::size_t>(rng.below(kConnections));
        if (rq.kind == Kind::Load) {
            // A cold write: a brand-new design, loaded then learned
            // (pipelined on one connection, so the learn follows the load).
            rq.design = designs.size();
            designs.push_back(make_design("serve_cold_" + std::to_string(cold),
                                          mix_seed(run.seed, 50000 + cold)));
            ++cold;
            schedule.push_back(rq);
            rq.kind = Kind::ColdLearn;
        }
        schedule.push_back(rq);
    }
    for (std::size_t i = 0; i < schedule.size(); ++i)
        schedule[i].line = request_line(schedule[i].kind, designs[schedule[i].design],
                                        "q" + std::to_string(i + 1));
    if (run.inject == Inject::CorruptReply && schedule.empty())
        throw std::runtime_error("corrupt_reply needs at least one request");

    // Set-up: start the daemon and preload the residents (load + cold
    // learn), five times from an empty store; keep the last daemon. The
    // calibration kernel runs before each, so the scale tracks the host's
    // speed over the whole set-up.
    Checker checker(run);
    const std::size_t setups = tiny ? 2 : 5;
    std::vector<double> setup_s;
    Daemon daemon;
    for (std::size_t s = 0; s < setups; ++s) {
        if (daemon.server) daemon.server->stop();
        daemon = Daemon{};
        calibrate(run);
        const std::int64_t t0 = now_ns();
        daemon = start_daemon(run.tmp_dir + "/store");
        for (std::size_t i = 0; i < residents; ++i) {
            Conn& c = *daemon.conns[0];
            const std::string id = "p" + std::to_string(i);
            const std::string load = c.call(load_line(designs[i], id));
            const std::string learn = c.call(request_line(Kind::ColdLearn, designs[i], id));
            if (s + 1 == setups) {
                // Only the kept daemon's answers are checked and counted.
                run.attempted += 2;
                Request rq;
                rq.kind = Kind::Load;
                checker.check(rq, designs[i], load);
                rq.kind = Kind::ColdLearn;
                checker.check(rq, designs[i], learn);
                const std::optional<server::JsonValue> doc =
                    server::JsonValue::parse(load, nullptr);
                if (doc) {
                    run.layer.add("netlist.gates", doc->get_number("gates"));
                    run.layer.add("api.design_bytes", doc->get_number("memory_bytes"));
                }
            }
        }
        setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    run.e2e.set("setup_s", median(setup_s), "s");
    run.calibrated.push_back("setup_s");

    // The open loop. In the traced run each reply's span is recorded as the
    // reply is read, and the time spent recording is the tracing overhead.
    const int root = run.tracer.begin("bench.serve", 1);
    std::int64_t record_ns = 0;
    const std::int64_t start = now_ns();
    std::vector<std::vector<std::size_t>> inflight(kConnections);
    std::vector<std::size_t> heads(kConnections, 0);
    std::size_t next = 0, answered = 0;
    const std::int64_t give_up =
        start + static_cast<std::int64_t>((run.seconds + kDrainSeconds) * 1e9);
    while (answered < schedule.size()) {
        std::int64_t now = now_ns();
        if (now > give_up) break;
        for (; next < schedule.size() &&
               start + static_cast<std::int64_t>(schedule[next].due_s * 1e9) <= now;
             ++next) {
            Request& rq = schedule[next];
            daemon.conns[rq.conn]->queue(rq.line);
            rq.sent_ns = now;
            inflight[rq.conn].push_back(next);
        }
        std::vector<pollfd> fds;
        for (const auto& c : daemon.conns) {
            c->flush();
            fds.push_back({c->fd(), static_cast<short>(POLLIN | (c->want_write() ? POLLOUT : 0)),
                           0});
        }
        int timeout_ms = 100;
        if (next < schedule.size()) {
            const std::int64_t due = start + static_cast<std::int64_t>(schedule[next].due_s * 1e9);
            timeout_ms = static_cast<int>(std::max<std::int64_t>(0, (due - now) / 1000000));
        }
        if (::poll(fds.data(), fds.size(), timeout_ms) < 0) throw std::runtime_error("poll()");
        for (std::size_t c = 0; c < kConnections; ++c) {
            if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
            for (std::string& line : daemon.conns[c]->read_lines()) {
                now = now_ns();
                if (heads[c] >= inflight[c].size()) throw std::runtime_error("unsolicited reply");
                Request& rq = schedule[inflight[c][heads[c]++]];
                rq.reply_ns = now;
                rq.answered = true;
                ++answered;
                if (run.inject == Inject::CorruptReply && &rq == &schedule.front())
                    line.resize(line.size() / 2);
                rq.ok = checker.check(rq, designs[rq.design], line);
                if (run.trace) {
                    const std::int64_t t0 = now_ns();
                    const std::size_t id = static_cast<std::size_t>(&rq - schedule.data()) + 1;
                    run.tracer.record(std::string("server.") + cmd_of(rq.kind), id, root,
                                      rq.sent_ns, rq.reply_ns);
                    record_ns += now_ns() - t0;
                }
            }
        }
    }
    run.tracer.end(root);

    // Latencies from when each request was due; anything unanswered or
    // slower than the limit counts as failed.
    std::map<std::string, std::vector<double>> by_cmd;
    std::vector<double> all_ms, late_ms;
    for (const Request& rq : schedule) {
        ++run.attempted;
        if (!rq.answered) {
            run.fail(std::string(cmd_of(rq.kind)) + " never answered", false);
            continue;
        }
        const std::int64_t due = start + static_cast<std::int64_t>(rq.due_s * 1e9);
        const double ms = static_cast<double>(rq.reply_ns - due) * 1e-6;
        if (rq.ok && ms > kLatencyLimitMs)
            run.fail(std::string(cmd_of(rq.kind)) + " took " + std::to_string(ms) + " ms", false);
        all_ms.push_back(ms);
        by_cmd[cmd_of(rq.kind)].push_back(ms);
        late_ms.push_back(static_cast<double>(rq.sent_ns - due) * 1e-6);
    }
    // flow_s is the daemon's mean service time per request: a connection
    // answers in order, so a request's service starts when it was sent or
    // when the previous reply on its connection arrived, whichever is
    // later, and ends at its own reply. Every request's cost, heavy and
    // cold ones included, adds to it; queueing does not, so it scales with
    // the host's speed like the flows' times and is calibrated like them.
    double busy_s = 0.0;
    std::size_t served = 0;
    for (std::size_t c = 0; c < kConnections; ++c) {
        std::int64_t free_ns = start;
        for (std::size_t k = 0; k < heads[c]; ++k) {
            const Request& rq = schedule[inflight[c][k]];
            busy_s += static_cast<double>(rq.reply_ns - std::max(rq.sent_ns, free_ns)) * 1e-9;
            free_ns = rq.reply_ns;
            ++served;
        }
    }
    run.e2e.set("flow_s", served ? busy_s / static_cast<double>(served) : 0.0, "s");
    run.calibrated.push_back("flow_s");
    run.layer.set("serve_p50_ms", median(all_ms), "ms");
    run.layer.set("serve_p99_ms", quantile(all_ms, 0.99), "ms");
    run.layer.set("bench.late_p99_ms", quantile(late_ms, 0.99), "ms");
    run.layer.set("server.warm_ratio", checker.warm_ratio(), "ratio");
    for (const auto& [cmd, ms] : by_cmd) {
        run.layer.set("server." + cmd + ".p50_ms", median(ms), "ms");
        run.layer.set("server." + cmd + ".p99_ms", quantile(ms, 0.99), "ms");
        run.layer.set("server." + cmd + ".count", static_cast<double>(ms.size()), "count");
    }

    // Cache and store counters from the daemon's own stats reply.
    const std::string stats = daemon.conns[0]->call("{\"cmd\": \"stats\", \"id\": \"final\"}");
    if (const std::optional<server::JsonValue> doc = server::JsonValue::parse(stats, nullptr)) {
        const server::JsonValue* srv = doc->get("server");
        const server::JsonValue* cache = srv ? srv->get("cache") : nullptr;
        const server::JsonValue* store = srv ? srv->get("store") : nullptr;
        const server::JsonValue* conns = srv ? srv->get("connections") : nullptr;
        if (cache && store && conns) {
            run.layer.set("server.cache.hits", cache->get_number("hits"), "count");
            run.layer.set("server.cache.misses", cache->get_number("misses"), "count");
            run.layer.set("server.cache.evictions", cache->get_number("evictions"), "count");
            run.layer.set("server.store.fetch_hits", store->get_number("fetch_hits"), "count");
            run.layer.set("server.store.fetch_misses", store->get_number("fetch_misses"), "count");
            run.layer.set("server.store.put_failures", store->get_number("put_failures"), "count");
            run.layer.set("core.snapshot_bytes", store->get_number("bytes"), "bytes");
            run.layer.set("server.overloaded",
                          conns->get_number("rejected_overloaded") +
                              static_cast<double>(checker.overloaded()),
                          "count");
        } else {
            run.fail("final stats reply lacks cache/store/connections sections");
        }
    } else {
        run.fail("final stats reply does not parse");
    }

    if (run.trace) {
        const double ops = static_cast<double>(std::max<std::size_t>(1, schedule.size()));
        run.layer.set("bench.trace_overhead_ms", static_cast<double>(record_ns) * 1e-6 / ops,
                      "ms");
        for (const auto& [layer, self_s] : run.tracer.self_seconds_by_layer(1))
            run.layer.set(layer + ".self_s", self_s / ops, "s");
    }
    daemon.server->stop();
    daemon = Daemon{};
    std::filesystem::remove_all(run.tmp_dir + "/store");
}

}  // namespace seqbench
