// ARVIS_DCHECK — debug-only invariant checks for the hot path.
//
// The serving runtime's hot loops (decide/schedule/drain) run on raw indices
// into SoA mirrors and on interned-table row cursors; a stale index or a
// dangling cursor corrupts results silently instead of crashing. The DCHECK
// family makes those invariants executable in Debug and sanitizer builds
// while compiling to *nothing* in Release — not a disabled branch, nothing:
// the condition expression is not evaluated, so checks may be arbitrarily
// expensive (O(n) scans, heap walks) without budget consequences. The
// counting-operator-new probes and the perf/ benchmark's gated timings run
// against Release builds, so a check that was not elided shows up there.
//
// Enablement: on when NDEBUG is not defined (Debug builds), or when
// ARVIS_FORCE_DCHECKS is defined (the asan-ubsan / tsan CMake presets force
// it so lifetime checks run under instrumented optimized builds).
//
// On failure: the failing expression, file:line, and optional message are
// written to stderr and the process aborts — death-testable, and an abort
// under ASan still prints the sanitizer's allocation/free stacks.
#pragma once

#if !defined(NDEBUG) || defined(ARVIS_FORCE_DCHECKS)
#define ARVIS_DCHECK_IS_ON 1
#else
#define ARVIS_DCHECK_IS_ON 0
#endif

namespace arvis::detail {

/// Prints "ARVIS_DCHECK failed: <expr> (<msg>) at <file>:<line>" to stderr
/// and aborts. Out of line so the macro expands to one test-and-branch.
[[noreturn]] void dcheck_fail(const char* expr, const char* file, int line,
                              const char* msg) noexcept;

}  // namespace arvis::detail

#if ARVIS_DCHECK_IS_ON

#define ARVIS_DCHECK(cond)                                                 \
  (static_cast<bool>(cond)                                                 \
       ? static_cast<void>(0)                                              \
       : ::arvis::detail::dcheck_fail(#cond, __FILE__, __LINE__, nullptr))

#define ARVIS_DCHECK_MSG(cond, msg)                                        \
  (static_cast<bool>(cond)                                                 \
       ? static_cast<void>(0)                                              \
       : ::arvis::detail::dcheck_fail(#cond, __FILE__, __LINE__, (msg)))

#define ARVIS_DCHECK_EQ(a, b) ARVIS_DCHECK((a) == (b))
#define ARVIS_DCHECK_NE(a, b) ARVIS_DCHECK((a) != (b))
#define ARVIS_DCHECK_LT(a, b) ARVIS_DCHECK((a) < (b))
#define ARVIS_DCHECK_LE(a, b) ARVIS_DCHECK((a) <= (b))
#define ARVIS_DCHECK_GT(a, b) ARVIS_DCHECK((a) > (b))
#define ARVIS_DCHECK_GE(a, b) ARVIS_DCHECK((a) >= (b))

#else  // ARVIS_DCHECK_IS_ON == 0: operands are NOT evaluated.

#define ARVIS_DCHECK(cond) static_cast<void>(0)
#define ARVIS_DCHECK_MSG(cond, msg) static_cast<void>(0)
#define ARVIS_DCHECK_EQ(a, b) static_cast<void>(0)
#define ARVIS_DCHECK_NE(a, b) static_cast<void>(0)
#define ARVIS_DCHECK_LT(a, b) static_cast<void>(0)
#define ARVIS_DCHECK_LE(a, b) static_cast<void>(0)
#define ARVIS_DCHECK_GT(a, b) static_cast<void>(0)
#define ARVIS_DCHECK_GE(a, b) static_cast<void>(0)

#endif  // ARVIS_DCHECK_IS_ON

namespace arvis {

/// Runtime view of the compile-time switch, for tests ("Release elides the
/// check layer") and log lines.
[[nodiscard]] constexpr bool dchecks_enabled() noexcept {
  return ARVIS_DCHECK_IS_ON != 0;
}

/// Last-gasp callback invoked by dcheck_fail() after printing the failure
/// but before std::abort() — the flight recorder installs one to write its
/// black-box dump, so a crashing run leaves its recent event history behind.
/// The hook must not return control flow to the failing code path (the abort
/// still happens) and must tolerate being called from any thread. common/
/// stays free of serving/ dependencies: the hook is a bare function pointer,
/// installed by whoever owns the richer machinery.
using DcheckFailureHook = void (*)() noexcept;

/// Installs `hook` (nullptr to clear) and returns the previous one. The hook
/// is cleared before invocation, so a DCHECK failing *inside* the hook
/// aborts plainly instead of recursing.
DcheckFailureHook set_dcheck_failure_hook(DcheckFailureHook hook) noexcept;

}  // namespace arvis
