#include "obs/phase.hh"

#include <ctime>
#include <unordered_map>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/stats.hh"

namespace psca {
namespace obs {

namespace {

/**
 * This thread's open-scope stack. Lazily rooted at the tree root the
 * first time the thread pushes a scope; pool tasks re-root it at the
 * submitter's phase via beginTask/endTask.
 */
thread_local std::vector<PhaseNode *> tls_stack;

/** Saved stack while this thread runs a pool task (one level deep). */
thread_local std::vector<PhaseNode *> tls_saved_stack;

/**
 * Per-thread (parent, name) -> child memo so steady-state push never
 * touches the tracer mutex. Invalidated wholesale when the tracer
 * epoch moves (reset()).
 */
struct ChildKey
{
    const PhaseNode *parent;
    std::string name;

    bool
    operator==(const ChildKey &o) const
    {
        return parent == o.parent && name == o.name;
    }
};

struct ChildKeyHash
{
    size_t
    operator()(const ChildKey &k) const
    {
        return std::hash<const void *>()(k.parent) * 1099511628211ULL ^
            std::hash<std::string>()(k.name);
    }
};

thread_local std::unordered_map<ChildKey, PhaseNode *, ChildKeyHash>
    tls_child_cache;
thread_local uint64_t tls_cache_epoch = ~0ULL;

/** ThreadPool context hooks: carry the submitter's phase to workers. */
void *
captureContext()
{
    return PhaseTracer::instance().current();
}

void
enterContext(void *ctx)
{
    PhaseTracer::instance().beginTask(static_cast<PhaseNode *>(ctx));
}

void
exitContext()
{
    PhaseTracer::instance().endTask();
}

/**
 * ThreadPool task-span hooks: with tracing on, each claimed pool task
 * becomes a "pool.task" span carrying its index, so imbalance across
 * workers is visible in the flame view.
 */
thread_local uint64_t tls_task_start_ns = 0;

void
taskSpanBegin(size_t)
{
    tls_task_start_ns =
        TraceLog::instance().enabled() ? steadyNowNs() : 0;
}

void
taskSpanEnd(size_t index)
{
    if (!tls_task_start_ns)
        return;
    auto &tl = TraceLog::instance();
    if (tl.enabled()) {
        SpanArg arg{"index", static_cast<long long>(index)};
        tl.span("pool.task", tls_task_start_ns, steadyNowNs(), &arg,
                1);
    }
    tls_task_start_ns = 0;
}

/**
 * Register the hooks at static-init time so the first parallelFor —
 * whoever triggers it — already propagates phase context. The hook
 * targets in parallel.cc are plain function pointers
 * (constant-initialized), so cross-TU init order is harmless.
 */
const bool g_hooks_registered = [] {
    ThreadPool::setContextHooks(captureContext, enterContext,
                                exitContext);
    ThreadPool::setTaskSpanHooks(taskSpanBegin, taskSpanEnd);
    return true;
}();

} // namespace

uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
        static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t
elapsedNs(std::chrono::steady_clock::time_point start)
{
    const auto d = std::chrono::steady_clock::now() - start;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d)
            .count());
}

PhaseNode *
PhaseNode::findOrAddChild(const std::string &child_name)
{
    for (auto &c : children)
        if (c->name == child_name)
            return c.get();
    children.push_back(std::make_unique<PhaseNode>());
    children.back()->name = child_name;
    return children.back().get();
}

PhaseTracer::PhaseTracer()
{
    root_.name = "run";
}

PhaseTracer &
PhaseTracer::instance()
{
    static PhaseTracer tracer;
    return tracer;
}

PhaseNode *
PhaseTracer::current()
{
    return tls_stack.empty() ? &root_ : tls_stack.back();
}

PhaseNode *
PhaseTracer::childFor(PhaseNode *parent, const std::string &name)
{
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (tls_cache_epoch != epoch) {
        tls_child_cache.clear();
        tls_cache_epoch = epoch;
    }
    const ChildKey key{parent, name};
    const auto it = tls_child_cache.find(key);
    if (it != tls_child_cache.end())
        return it->second;
    PhaseNode *node;
    {
        std::lock_guard<std::mutex> lock(treeMu_);
        node = parent->findOrAddChild(name);
    }
    tls_child_cache.emplace(key, node);
    return node;
}

PhaseNode *
PhaseTracer::push(const std::string &name)
{
    PhaseNode *parent = tls_stack.empty() ? &root_ : tls_stack.back();
    PhaseNode *node = childFor(parent, name);
    node->calls.fetch_add(1, std::memory_order_relaxed);
    tls_stack.push_back(node);
    return node;
}

void
PhaseTracer::pop(uint64_t elapsed_ns)
{
    if (tls_stack.empty())
        return; // unbalanced pop; keep the root usable
    PhaseNode *node = tls_stack.back();
    node->wallNs.fetch_add(elapsed_ns, std::memory_order_relaxed);
    tls_stack.pop_back();
}

void
PhaseTracer::beginTask(PhaseNode *parent)
{
    tls_saved_stack.swap(tls_stack);
    tls_stack.clear();
    if (parent)
        tls_stack.push_back(parent);
}

void
PhaseTracer::endTask()
{
    tls_stack.swap(tls_saved_stack);
    tls_saved_stack.clear();
}

void
PhaseTracer::reset()
{
    {
        std::lock_guard<std::mutex> lock(treeMu_);
        root_.children.clear();
        root_.calls.store(0, std::memory_order_relaxed);
        root_.wallNs.store(0, std::memory_order_relaxed);
    }
    // Invalidate every thread's child memo (checked against the
    // epoch on its next push); this thread's eagerly.
    epoch_.fetch_add(1, std::memory_order_release);
    tls_child_cache.clear();
    tls_cache_epoch = epoch_.load(std::memory_order_relaxed);
    // Open ScopedPhases on this thread hold pointers into the cleared
    // tree; rewind the stack so later pushes re-root cleanly.
    tls_stack.clear();
}

ScopedPhase::ScopedPhase(const std::string &name)
    : start_(std::chrono::steady_clock::now())
{
    node_ = PhaseTracer::instance().push(name);
}

ScopedPhase::ScopedPhase(const std::string &name,
                         std::initializer_list<SpanArg> args)
    : start_(std::chrono::steady_clock::now())
{
    node_ = PhaseTracer::instance().push(name);
    for (const SpanArg &a : args) {
        if (nargs_ >= TraceLog::kMaxArgs)
            break;
        args_[nargs_++] = a;
    }
}

ScopedPhase::~ScopedPhase()
{
    const uint64_t ns = elapsedNs(start_);
    PhaseTracer::instance().pop(ns);
    auto &tl = TraceLog::instance();
    if (tl.enabled()) {
        const uint64_t end = steadyNowNs();
        tl.span(node_->name.c_str(), end > ns ? end - ns : 0, end,
                args_, nargs_);
    }
}

ScopedTimer::~ScopedTimer()
{
    hist_.add(elapsedNs(start_));
}

} // namespace obs
} // namespace psca
