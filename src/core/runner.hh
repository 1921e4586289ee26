/**
 * @file
 * Watchdog supervision and resumable process lifecycle around the
 * journal layer (common/journal.hh). Every bench, example, and CLI
 * main body runs inside runner::guardedMain(), which provides:
 *
 *  - Signal-driven checkpointing: the first SIGINT/SIGTERM sets the
 *    cooperative stop flag (requestStop()); checkpointed regions
 *    drain their in-flight units, journal them, and unwind with
 *    RunInterrupted, so the run report still flushes and the process
 *    exits with kResumableExit. A second signal force-exits
 *    immediately (still kResumableExit — the journal is append-safe
 *    at any instant).
 *
 *  - A run deadline (PSCA_DEADLINE_S): a watchdog thread requests a
 *    cooperative stop when the budget expires and force-exits after a
 *    grace period (PSCA_DEADLINE_GRACE_S, default 30 s) if the run
 *    has not unwound by itself. CI timeouts thus become planned
 *    checkpoints instead of lost work.
 *
 *  - Per-unit soft timeouts (PSCA_UNIT_TIMEOUT_S): the watchdog
 *    polls the journal's in-flight table and warns (once per unit,
 *    counted as runner.soft_timeouts) about units running past the
 *    threshold. Advisory only — deterministic work must never be
 *    killed mid-unit, and the bounded retry/requeue inside
 *    runCheckpointed() already handles failing units.
 *
 * Exit-code contract: 0 = complete; kResumableExit (75, the sysexits
 * EX_TEMPFAIL convention) = interrupted but resumable — re-running
 * the same command continues from the journal; anything else = error.
 */

#ifndef PSCA_CORE_RUNNER_HH
#define PSCA_CORE_RUNNER_HH

#include <functional>

namespace psca {
namespace runner {

/**
 * Exit status of an interrupted-but-resumable run (sysexits
 * EX_TEMPFAIL): the journal holds every completed unit, re-running
 * the same command resumes.
 */
constexpr int kResumableExit = 75;

/**
 * Run @p body under signal handlers and the watchdog. Returns the
 * body's return value, or kResumableExit when the body unwound with
 * RunInterrupted (stop request, deadline). Other exceptions are
 * reported and return 1. Nested calls run the body directly.
 */
int guardedMain(const std::function<int()> &body);

} // namespace runner
} // namespace psca

#endif // PSCA_CORE_RUNNER_HH
