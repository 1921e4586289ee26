/**
 * @file
 * Phase tracing: RAII scopes that nest into a process-wide phase tree
 * with per-phase wall time and call counts (trace recording, PF
 * selection, scaler fit, model training, cross-validation, closed-loop
 * replay, ...). The tree is emitted with the stat-registry run report;
 * with PSCA_TRACE set, every closed scope is also exported as a
 * Chrome-trace span (obs/trace.hh).
 *
 * Threading (DESIGN.md §8/§12): every thread has its own scope stack
 * (thread_local). The push/pop hot path is sharded: call counts and
 * wall-time credits are relaxed atomics on the nodes, and each thread
 * memoizes (parent, name) -> node lookups in a thread-local cache, so
 * the tracer mutex is taken only to CREATE a node (first arrival of a
 * name under a parent) or to freeze the tree for a dump — steady-state
 * push/pop touches no shared lock. reset() bumps an epoch that
 * invalidates the caches. When the thread pool runs a task on a
 * worker, the submitter's current phase is captured and the worker's
 * stack is rooted there for the task's duration (beginTask/endTask,
 * wired via ThreadPool context hooks), so worker-side scopes nest
 * under the phase that spawned them.
 */

#ifndef PSCA_OBS_PHASE_HH
#define PSCA_OBS_PHASE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace psca {
namespace obs {

class Histogram;

/** One phase's accumulated time, entered count, and sub-phases. */
struct PhaseNode
{
    std::string name;
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> wallNs{0};
    std::vector<std::unique_ptr<PhaseNode>> children;

    /** Child by name, created on first use (insertion order kept). */
    PhaseNode *findOrAddChild(const std::string &child_name);
};

/** The process-wide phase tree and per-thread scope stacks. */
class PhaseTracer
{
  public:
    static PhaseTracer &instance();

    /** Enter a sub-phase of this thread's current phase. */
    PhaseNode *push(const std::string &name);

    /** Leave this thread's current phase, crediting elapsed time. */
    void pop(uint64_t elapsed_ns);

    /** This thread's innermost open phase (the tree root if none). */
    PhaseNode *current();

    /**
     * Re-root this thread's stack at @p parent for the duration of a
     * pool task, so scopes opened by the task nest under the phase
     * that submitted the parallel region; endTask() restores the
     * thread's own stack. At most one task is active per thread
     * (nested parallel regions run inline).
     */
    void beginTask(PhaseNode *parent);
    void endTask();

    const PhaseNode &root() const { return root_; }

    /**
     * Lock that freezes the tree STRUCTURE for a consistent dump
     * (node creation takes the same mutex). Counts and wall times on
     * the nodes are atomics and may still tick during the traversal.
     */
    std::unique_lock<std::mutex> lockTree() const
    {
        return std::unique_lock<std::mutex>(treeMu_);
    }

    /**
     * Drop all recorded phases. Must not run concurrently with open
     * scopes on other threads (call it between parallel regions):
     * their stacks hold raw pointers into the tree being cleared.
     */
    void reset();

  private:
    PhaseTracer();

    PhaseNode *childFor(PhaseNode *parent, const std::string &name);

    mutable std::mutex treeMu_; //!< guards the tree STRUCTURE
    PhaseNode root_;
    std::atomic<uint64_t> epoch_{0}; //!< bumped by reset()
};

/**
 * RAII phase scope: push on construction, pop on destruction. The
 * optional args (at most TraceLog::kMaxArgs; keys must be string
 * literals) annotate the exported trace span — e.g.
 * ScopedPhase("crossval_fold", {{"fold", fold}}).
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const std::string &name);
    ScopedPhase(const std::string &name,
                std::initializer_list<SpanArg> args);
    ~ScopedPhase();

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    std::chrono::steady_clock::time_point start_;
    PhaseNode *node_;
    SpanArg args_[TraceLog::kMaxArgs];
    int nargs_ = 0;
};

/** RAII timer recording its elapsed nanoseconds into a histogram. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram &hist)
        : hist_(hist), start_(std::chrono::steady_clock::now())
    {}

    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Histogram &hist_;
    std::chrono::steady_clock::time_point start_;
};

/** Nanoseconds elapsed since a steady_clock time point. */
uint64_t elapsedNs(std::chrono::steady_clock::time_point start);

/**
 * CPU time the calling thread has consumed, in nanoseconds. Unlike
 * wall time it stops while the thread waits or is preempted, so
 * per-thread work timed with it sums to at most the process CPU.
 */
uint64_t threadCpuNs();

} // namespace obs
} // namespace psca

#endif // PSCA_OBS_PHASE_HH
