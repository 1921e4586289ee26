#include "core/runner.hh"

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/env.hh"
#include "common/fault.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "obs/trace.hh"

namespace psca {
namespace runner {

namespace {

std::atomic<int> g_signalCount{0};

extern "C" void
onStopSignal(int)
{
    // Async-signal-safe: one relaxed atomic increment, one relaxed
    // store inside requestStop(). Anything heavier (logging, IO)
    // happens on the threads that poll the flag.
    const int prior =
        g_signalCount.fetch_add(1, std::memory_order_relaxed);
    if (prior == 0) {
        requestStop();
    } else {
        // Second signal: the user is insisting. The journal is
        // append-atomic at any instant, so a hard exit stays
        // resumable — only the currently in-flight units are lost.
        _exit(kResumableExit);
    }
}

/**
 * The watchdog: one background thread that enforces the run deadline
 * and surfaces stuck units. Joined (via stop()) before guardedMain
 * returns so it never outlives the body's stack.
 */
class Watchdog
{
  public:
    Watchdog(double deadline_s, double grace_s, double unit_timeout_s)
        : deadlineS_(deadline_s), graceS_(grace_s),
          unitTimeoutS_(unit_timeout_s),
          start_(std::chrono::steady_clock::now())
    {
        if (deadlineS_ > 0 || unitTimeoutS_ > 0)
            thread_ = std::thread([this] { loop(); });
    }

    ~Watchdog() { stop(); }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        bool stop_requested = false;
        for (;;) {
            cv_.wait_for(lock, std::chrono::milliseconds(250),
                         [this] { return done_; });
            if (done_)
                return;
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            if (deadlineS_ > 0 && !stop_requested &&
                elapsed >= deadlineS_)
            {
                stop_requested = true;
                warn("deadline: PSCA_DEADLINE_S=", deadlineS_,
                     " reached after ", elapsed,
                     " s; requesting checkpoint-and-stop (grace ",
                     graceS_, " s)");
                emitEvent("watchdog", LogLevel::Warn,
                          "deadline reached; requesting "
                          "checkpoint-and-stop");
                requestStop();
            }
            if (deadlineS_ > 0 && stop_requested &&
                elapsed >= deadlineS_ + graceS_)
            {
                warn("deadline: run did not unwind within the grace "
                     "period; forcing resumable exit");
                _exit(kResumableExit);
            }
            if (unitTimeoutS_ > 0)
                scanInFlight();
        }
    }

    void
    scanInFlight()
    {
        Journal::instance().forEachInFlight(
            [this](const std::string &scope, uint64_t unit,
                   double secs) {
                if (secs < unitTimeoutS_)
                    return;
                const std::string key =
                    scope + "#" + std::to_string(unit);
                if (!warned_.insert(key).second)
                    return;
                Journal::instance().noteSoftTimeout();
                warn("watchdog: unit ", unit, " of scope '", scope,
                     "' has run ", secs,
                     " s (> PSCA_UNIT_TIMEOUT_S=", unitTimeoutS_,
                     "); advisory only, not killed");
                emitEvent("watchdog", LogLevel::Warn,
                          "unit " + std::to_string(unit) +
                              " of scope '" + scope +
                              "' exceeded the soft unit timeout");
            });
    }

    const double deadlineS_;
    const double graceS_;
    const double unitTimeoutS_;
    const std::chrono::steady_clock::time_point start_;

    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::set<std::string> warned_; //!< scope#unit already reported

    std::thread thread_;
};

} // namespace

int
guardedMain(const std::function<int()> &body)
{
    static std::atomic<bool> entered{false};
    if (entered.exchange(true)) {
        // Nested (an example calling a library main helper): the
        // outer guard already owns signals and the watchdog.
        return body();
    }

    clearStopRequest();
    g_signalCount.store(0, std::memory_order_relaxed);

    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    struct sigaction old_int = {};
    struct sigaction old_term = {};
    sigaction(SIGINT, &sa, &old_int);
    sigaction(SIGTERM, &sa, &old_term);

    const double deadline_s =
        env::doubleOr("PSCA_DEADLINE_S", 0.0, 0.0, 1e9);
    const double grace_s =
        env::doubleOr("PSCA_DEADLINE_GRACE_S", 30.0, 0.0, 1e9);
    const double unit_timeout_s =
        env::doubleOr("PSCA_UNIT_TIMEOUT_S", 0.0, 0.0, 1e9);

    // Arm the span trace before the body spawns threads: the trace
    // log parses PSCA_TRACE on first touch.
    obs::TraceLog::instance();
    // Resolve PSCA_FAULTS and PSCA_SIMD here, on the main thread, so
    // a bad value is fatal before any work starts rather than inside
    // a pool task.
    FaultRegistry::instance();
    simd::activeLevel();

    int status = 0;
    {
        Watchdog watchdog(deadline_s, grace_s, unit_timeout_s);
        try {
            status = body();
            if (stopRequested()) {
                // Stop arrived after the last checkpointed region
                // (or the body swallowed it): still signal resumable.
                status = kResumableExit;
            }
        } catch (const RunInterrupted &e) {
            // Run reports and stats flushed during unwinding (their
            // guards sit inside the body). Completed units are
            // journaled; the same command resumes.
            inform("interrupted: ", e.what());
            inform("exiting with resumable status ", kResumableExit,
                   "; re-run the same command to resume");
            emitEvent("checkpoint", LogLevel::Info,
                      "run interrupted; exiting with resumable "
                      "status");
            status = kResumableExit;
        } catch (const std::exception &e) {
            warn("uncaught exception: ", e.what());
            status = 1;
        }
        watchdog.stop();
    }

    // Flush the span trace (also covered by atexit for bare mains).
    obs::TraceLog::instance().finalize();

    sigaction(SIGINT, &old_int, nullptr);
    sigaction(SIGTERM, &old_term, nullptr);
    entered.store(false);
    return status;
}

} // namespace runner
} // namespace psca
