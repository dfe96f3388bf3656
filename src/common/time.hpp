// Simulation time: a strong int64 microsecond type.
//
// Integer time makes event ordering exact and runs bit-reproducible across
// platforms; microseconds give headroom for dilation arithmetic on traces
// whose native resolution is seconds (SWF).
#pragma once

#include <compare>
#include <cstdint>

namespace dmsched {

/// `x` rounded to the nearest integer, halves away from zero, so that
/// rounding commutes with negation.
[[nodiscard]] constexpr std::int64_t round_half_away(double x) {
  return static_cast<std::int64_t>(x >= 0.0 ? x + 0.5 : x - 0.5);
}

/// A point in simulation time or a duration, in microseconds.
///
/// The trace epoch (first submission) is time 0. Durations and time points
/// share the representation, mirroring how schedulers manipulate them.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(std::int64_t usec) : usec_(usec) {}

  [[nodiscard]] constexpr std::int64_t usec() const { return usec_; }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(usec_) / 1e6;
  }
  [[nodiscard]] constexpr double hours() const { return seconds() / 3600.0; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime d) {
    usec_ += d.usec_;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime d) {
    usec_ -= d.usec_;
    return *this;
  }
  friend constexpr SimTime operator+(SimTime a, SimTime b) { return a += b; }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return a -= b; }

  /// Scale a duration by a dilation factor, rounding to nearest microsecond.
  [[nodiscard]] constexpr SimTime scaled(double factor) const {
    return SimTime{round_half_away(static_cast<double>(usec_) * factor)};
  }

 private:
  std::int64_t usec_ = 0;
};

/// Largest representable time; used as "never" in reservation profiles.
constexpr SimTime kTimeInfinity{INT64_MAX / 4};

[[nodiscard]] constexpr SimTime usec(std::int64_t n) { return SimTime{n}; }
[[nodiscard]] constexpr SimTime seconds(std::int64_t n) {
  return SimTime{n * 1'000'000};
}
[[nodiscard]] constexpr SimTime seconds(double x) {
  return SimTime{round_half_away(x * 1e6)};
}
[[nodiscard]] constexpr SimTime minutes(std::int64_t n) {
  return seconds(n * 60);
}
[[nodiscard]] constexpr SimTime hours(std::int64_t n) {
  return seconds(n * 3600);
}
[[nodiscard]] constexpr SimTime days(std::int64_t n) { return hours(n * 24); }

[[nodiscard]] constexpr SimTime min(SimTime a, SimTime b) {
  return a < b ? a : b;
}
[[nodiscard]] constexpr SimTime max(SimTime a, SimTime b) {
  return a < b ? b : a;
}

}  // namespace dmsched
