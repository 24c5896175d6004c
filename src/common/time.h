// Simulated-time primitives shared by every AQuA-RS module.
//
// All latencies in the system (gateway delays, queuing delays, service
// times, deadlines) are expressed as std::chrono::microseconds; points on
// the simulation timeline are std::chrono::time_point over a trivial
// SimClock tag. Using <chrono> keeps arithmetic type-safe (a Duration can
// never be confused with a TimePoint) at zero runtime cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace aqua {

/// Base resolution of the simulation timeline: one microsecond.
using Duration = std::chrono::microseconds;

/// Tag clock for simulated time. Never queried directly; the discrete-event
/// scheduler (sim::Simulator) is the only source of `now()`.
struct SimClock {
  using rep = std::int64_t;
  using period = std::micro;
  using duration = Duration;
  using time_point = std::chrono::time_point<SimClock, Duration>;
  static constexpr bool is_steady = true;
};

/// A point on the simulated timeline.
using TimePoint = SimClock::time_point;

/// Convenience literal-style factories (avoid sprinkling chrono casts).
constexpr Duration usec(std::int64_t v) { return Duration{v}; }
constexpr Duration msec(std::int64_t v) { return Duration{v * 1000}; }
constexpr Duration sec(std::int64_t v) { return Duration{v * 1'000'000}; }

/// Number of whole microseconds in `d` (the native tick count).
constexpr std::int64_t count_us(Duration d) { return d.count(); }

/// Microseconds since the simulation epoch.
constexpr std::int64_t count_us(TimePoint t) { return t.time_since_epoch().count(); }

/// Duration expressed as fractional milliseconds (for reports and plots).
constexpr double to_ms(Duration d) { return static_cast<double>(d.count()) / 1000.0; }

/// The process's one wall clock on the TimePoint axis: the steady clock
/// against its own epoch. Every wall-clock runtime component (threaded
/// client, telemetry hubs, the fleet collector) reads this, so their
/// timestamps share one base inside a process.
inline TimePoint steady_now() {
  return TimePoint{std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now().time_since_epoch())};
}

/// The steady-clock instant of a TimePoint on steady_now()'s axis, for
/// timed waits.
inline std::chrono::steady_clock::time_point to_steady(TimePoint t) {
  return std::chrono::steady_clock::time_point{
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(t.time_since_epoch())};
}

/// Render a duration as a short human-readable string, e.g. "12.345ms".
std::string to_string(Duration d);

/// Render a time point as milliseconds since the epoch, e.g. "t=1500.000ms".
std::string to_string(TimePoint t);

}  // namespace aqua
