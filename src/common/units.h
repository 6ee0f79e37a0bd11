// Time and byte-size units shared by the simulator and hardware models.
//
// Simulated time is a signed 64-bit count of nanoseconds: enough range for
// ~292 years of simulation while keeping arithmetic exact (no floating-point
// clock drift). Durations and points share representation; the type system
// (TimePoint vs Duration) keeps them from being mixed incorrectly.
#pragma once

#include <cstdint>
#include <ostream>
#include <type_traits>

namespace pw {

class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration Nanos(std::int64_t n) { return Duration(n); }
  static constexpr Duration Micros(double us) {
    return Duration(static_cast<std::int64_t>(us * 1e3));
  }
  static constexpr Duration Millis(double ms) {
    return Duration(static_cast<std::int64_t>(ms * 1e6));
  }
  static constexpr Duration Seconds(double s) {
    return Duration(static_cast<std::int64_t>(s * 1e9));
  }
  static constexpr Duration Zero() { return Duration(0); }
  static constexpr Duration Max() { return Duration(INT64_MAX); }

  constexpr std::int64_t nanos() const { return ns_; }
  constexpr double ToMicros() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double ToMillis() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) / 1e9; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration(a.ns_ + b.ns_); }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration(a.ns_ - b.ns_); }
  template <typename I>
    requires std::is_integral_v<I>
  friend constexpr Duration operator*(Duration a, I k) {
    return Duration(a.ns_ * static_cast<std::int64_t>(k));
  }
  template <typename I>
    requires std::is_integral_v<I>
  friend constexpr Duration operator*(I k, Duration a) {
    return Duration(a.ns_ * static_cast<std::int64_t>(k));
  }
  friend constexpr Duration operator*(Duration a, double k) {
    return Duration(static_cast<std::int64_t>(static_cast<double>(a.ns_) * k));
  }
  friend constexpr Duration operator*(double k, Duration a) { return a * k; }
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }
  template <typename I>
    requires std::is_integral_v<I>
  friend constexpr Duration operator/(Duration a, I k) {
    return Duration(a.ns_ / static_cast<std::int64_t>(k));
  }
  Duration& operator+=(Duration d) { ns_ += d.ns_; return *this; }
  Duration& operator-=(Duration d) { ns_ -= d.ns_; return *this; }

  friend constexpr bool operator==(Duration a, Duration b) { return a.ns_ == b.ns_; }
  friend constexpr bool operator!=(Duration a, Duration b) { return a.ns_ != b.ns_; }
  friend constexpr bool operator<(Duration a, Duration b) { return a.ns_ < b.ns_; }
  friend constexpr bool operator<=(Duration a, Duration b) { return a.ns_ <= b.ns_; }
  friend constexpr bool operator>(Duration a, Duration b) { return a.ns_ > b.ns_; }
  friend constexpr bool operator>=(Duration a, Duration b) { return a.ns_ >= b.ns_; }

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint FromNanos(std::int64_t n) { return TimePoint(n); }

  constexpr std::int64_t nanos() const { return ns_; }
  constexpr double ToSeconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double ToMillis() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double ToMicros() const { return static_cast<double>(ns_) / 1e3; }

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint(t.ns_ + d.nanos());
  }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::Nanos(a.ns_ - b.ns_);
  }
  friend constexpr bool operator==(TimePoint a, TimePoint b) { return a.ns_ == b.ns_; }
  friend constexpr bool operator!=(TimePoint a, TimePoint b) { return a.ns_ != b.ns_; }
  friend constexpr bool operator<(TimePoint a, TimePoint b) { return a.ns_ < b.ns_; }
  friend constexpr bool operator<=(TimePoint a, TimePoint b) { return a.ns_ <= b.ns_; }
  friend constexpr bool operator>(TimePoint a, TimePoint b) { return a.ns_ > b.ns_; }
  friend constexpr bool operator>=(TimePoint a, TimePoint b) { return a.ns_ >= b.ns_; }

 private:
  constexpr explicit TimePoint(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, Duration d) {
  return os << d.ToMicros() << "us";
}
inline std::ostream& operator<<(std::ostream& os, TimePoint t) {
  return os << t.ToMicros() << "us";
}

// Byte sizes. Plain int64 with named constructors; a strong type here would
// add friction to arithmetic-heavy cost-model code for little safety gain.
using Bytes = std::int64_t;
constexpr Bytes KiB(double k) { return static_cast<Bytes>(k * 1024.0); }
constexpr Bytes MiB(double m) { return static_cast<Bytes>(m * 1024.0 * 1024.0); }
constexpr Bytes GiB(double g) { return static_cast<Bytes>(g * 1024.0 * 1024.0 * 1024.0); }

}  // namespace pw
