// Simulated time. Integral nanoseconds keep event ordering exact; helper
// constructors/accessors express the units the paper uses (ms link delay,
// minutes for trace bins, hours for reconfiguration periods).
#pragma once

#include <compare>
#include <cstdint>
#include <ostream>

namespace softmow::sim {

class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration nanos(std::int64_t n) { return Duration(n); }
  static constexpr Duration micros(double us) {
    return Duration(static_cast<std::int64_t>(us * 1e3));
  }
  static constexpr Duration millis(double ms) {
    return Duration(static_cast<std::int64_t>(ms * 1e6));
  }
  static constexpr Duration seconds(double s) {
    return Duration(static_cast<std::int64_t>(s * 1e9));
  }
  static constexpr Duration minutes(double m) { return seconds(m * 60.0); }
  static constexpr Duration hours(double h) { return seconds(h * 3600.0); }

  [[nodiscard]] constexpr std::int64_t to_nanos() const { return ns_; }
  [[nodiscard]] constexpr double to_micros() const { return static_cast<double>(ns_) / 1e3; }
  [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }
  [[nodiscard]] constexpr double to_minutes() const { return to_seconds() / 60.0; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration(a.ns_ + b.ns_); }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration(a.ns_ - b.ns_); }
  friend constexpr Duration operator*(Duration a, double k) {
    return Duration(static_cast<std::int64_t>(static_cast<double>(a.ns_) * k));
  }
  friend constexpr Duration operator*(double k, Duration a) { return a * k; }
  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  friend constexpr auto operator<=>(Duration, Duration) = default;

  friend std::ostream& operator<<(std::ostream& os, Duration d) {
    return os << d.to_micros() << "us";
  }

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// Absolute simulated time since simulation start.
class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint zero() { return TimePoint(); }
  static constexpr TimePoint at(Duration since_start) { return TimePoint(since_start); }

  [[nodiscard]] constexpr Duration since_start() const { return d_; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint(t.d_ + d);
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) { return a.d_ - b.d_; }
  friend constexpr auto operator<=>(TimePoint, TimePoint) = default;

  friend std::ostream& operator<<(std::ostream& os, TimePoint t) {
    return os << "t+" << t.d_.to_micros() << "us";
  }

 private:
  constexpr explicit TimePoint(Duration d) : d_(d) {}
  Duration d_;
};

}  // namespace softmow::sim
