// Minimal leveled logger.
//
// The library is silent by default (level = kWarn); tests and benchmarks can
// raise or lower the level, and the SEDSPEC_LOG_LEVEL environment variable
// (debug|info|warn|error|off, or 0-4) sets the startup level without a
// recompile. Log output goes to stderr so benchmark stdout stays
// machine-readable. Every line is prefixed with a monotonic
// seconds.microseconds timestamp on the same timebase as the obs trace
// events (monotonic_ns), so long campaign runs correlate with exported
// traces.
#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace sedspec {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Monotonic nanoseconds since the process-wide observability epoch (first
/// use). Shared timebase for log line prefixes, obs metric timings, and
/// trace event timestamps.
[[nodiscard]] uint64_t monotonic_ns();

/// Parses a level name ("debug", "info", "warn"/"warning", "error",
/// "off"/"none"/"silent") or a digit 0-4, case-insensitively. Returns
/// `fallback` on anything else.
[[nodiscard]] LogLevel parse_log_level(std::string_view text,
                                       LogLevel fallback);

/// Returns the process-wide minimum level that is emitted. Initialized from
/// SEDSPEC_LOG_LEVEL on first use (default kWarn).
LogLevel log_level();

/// Sets the process-wide minimum level that is emitted.
void set_log_level(LogLevel level);

/// Emits one formatted line to stderr if `level >= log_level()`.
void log_line(LogLevel level, const std::string& component,
              const std::string& message);

namespace detail {

/// One log line under construction. A line below log_level() formats
/// nothing: no stream is built and operator<< is a no-op (the operands
/// themselves are still evaluated by the caller).
class LogStream {
 public:
  LogStream(LogLevel level, std::string component) : level_(level) {
    if (level >= log_level()) {
      component_ = std::move(component);
      stream_.emplace();
    }
  }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;
  ~LogStream() {
    if (stream_.has_value()) {
      log_line(level_, component_, stream_->str());
    }
  }

  template <typename T>
  LogStream& operator<<(const T& value) {
    if (stream_.has_value()) {
      *stream_ << value;
    }
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::optional<std::ostringstream> stream_;
};

}  // namespace detail

inline detail::LogStream log_debug(std::string component) {
  return {LogLevel::kDebug, std::move(component)};
}
inline detail::LogStream log_info(std::string component) {
  return {LogLevel::kInfo, std::move(component)};
}
inline detail::LogStream log_warn(std::string component) {
  return {LogLevel::kWarn, std::move(component)};
}
inline detail::LogStream log_error(std::string component) {
  return {LogLevel::kError, std::move(component)};
}

}  // namespace sedspec
