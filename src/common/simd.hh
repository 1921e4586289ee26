/**
 * @file
 * Runtime SIMD dispatch for the batched inference kernels
 * (DESIGN.md §13). The active level is the meet of three gates:
 * what this binary was compiled with (PSCA_HAVE_AVX2, probed by
 * CMake), what the host CPU reports, and what the operator asked
 * for (`PSCA_SIMD=avx2|scalar`, default = highest available).
 *
 * Every kernel pair is bit-identical by construction — the vector
 * path keeps each sample's operation order and never contracts
 * mul+add into FMA — so the knob is a perf/debug control, never a
 * results control. The scalar-fallback CI job holds that line.
 */

#ifndef PSCA_COMMON_SIMD_HH
#define PSCA_COMMON_SIMD_HH

namespace psca {
namespace simd {

/** Vector ISA level selected for batched kernels. */
enum class Level
{
    Scalar,
    Avx2,
};

/**
 * The level every batched kernel dispatches on. Resolved once per
 * process (env ∧ cpuid ∧ compile-time support) and cached.
 */
Level activeLevel();

/** Convenience: activeLevel() == Level::Avx2. */
bool useAvx2();

/** Lower-case token for logs/reports ("avx2", "scalar"). */
const char *levelName(Level level);

} // namespace simd
} // namespace psca

#endif // PSCA_COMMON_SIMD_HH
