/**
 * @file
 * Telemetry master switch, separated from the session types so hot
 * subsystems (filter, machine) can test the gate without pulling in
 * the session/tracer headers.
 *
 * Two gates keep observability free when unused:
 *
 *  - build gate: configuring with -DMOKASIM_TELEMETRY=OFF defines
 *    MOKASIM_TELEMETRY_BUILD=0, which folds telemetry_enabled() to a
 *    compile-time `false` so every instrumentation site is dead code;
 *  - runtime gate: in telemetry-enabled builds (the default), a
 *    sample point costs exactly one predictable branch on a relaxed
 *    atomic until the MOKASIM_TELEMETRY environment variable or a
 *    tool flag (--telemetry-dir / --trace-events) arms the subsystem.
 */
#ifndef MOKASIM_TELEMETRY_GATE_H
#define MOKASIM_TELEMETRY_GATE_H

#include <atomic>

#ifndef MOKASIM_TELEMETRY_BUILD
#define MOKASIM_TELEMETRY_BUILD 1
#endif

namespace moka {

namespace telemetry_detail {
extern std::atomic<bool> g_enabled;
}  // namespace telemetry_detail

/**
 * True when telemetry instrumentation should record. The single
 * relaxed load is the whole idle cost of a sample point; with
 * MOKASIM_TELEMETRY_BUILD=0 the call is a constant `false` and dead
 * instrumentation code is eliminated entirely.
 */
inline bool
telemetry_enabled()
{
#if MOKASIM_TELEMETRY_BUILD
    return telemetry_detail::g_enabled.load(std::memory_order_relaxed);
#else
    return false;
#endif
}

/** Arm/disarm the runtime gate (tools call this from flag parsing). */
void set_telemetry_enabled(bool enabled);

/**
 * True when the MOKASIM_TELEMETRY environment variable requests
 * telemetry ("", "0", "off", "false" count as off). The gate is also
 * initialized from this at process start.
 */
bool telemetry_env_requested();

}  // namespace moka

#endif  // MOKASIM_TELEMETRY_GATE_H
