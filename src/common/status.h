// Minimal Status / StatusOr error-handling vocabulary, modeled on
// absl::Status. Used across the Pathways reproduction for recoverable
// errors (resource exhaustion, invalid programs, lost clients); programming
// errors use PW_CHECK from logging.h instead.
#pragma once

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace pw {

enum class StatusCode {
  kOk = 0,
  kCancelled = 1,
  kInvalidArgument = 3,
  kDeadlineExceeded = 4,
  kNotFound = 5,
  kAlreadyExists = 6,
  kResourceExhausted = 8,
  kFailedPrecondition = 9,
  kAborted = 10,
  kOutOfRange = 11,
  kUnimplemented = 12,
  kInternal = 13,
  kUnavailable = 14,
};

std::string_view StatusCodeName(StatusCode code);

// Value-semantic error descriptor. An engaged message is only stored for
// non-OK statuses; OK carries no allocation.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

Status OkStatus();
Status CancelledError(std::string_view msg);
Status InvalidArgumentError(std::string_view msg);
Status DeadlineExceededError(std::string_view msg);
Status NotFoundError(std::string_view msg);
Status AlreadyExistsError(std::string_view msg);
Status ResourceExhaustedError(std::string_view msg);
Status FailedPreconditionError(std::string_view msg);
Status AbortedError(std::string_view msg);
Status OutOfRangeError(std::string_view msg);
Status UnimplementedError(std::string_view msg);
Status InternalError(std::string_view msg);
Status UnavailableError(std::string_view msg);

// StatusOr<T>: either a value or a non-OK Status. Accessing the value of an
// errored StatusOr is a programming error (asserts in debug builds).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(const T& value) : rep_(value) {}          // NOLINT(implicit)
  StatusOr(T&& value) : rep_(std::move(value)) {}    // NOLINT(implicit)
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT(implicit)
    assert(!std::get<Status>(rep_).ok() &&
           "StatusOr must not be constructed from OK without a value");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  Status status() const {
    if (ok()) return OkStatus();
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const {
    if (ok()) return value();
    return fallback;
  }

 private:
  std::variant<T, Status> rep_;
};

// Propagation helpers in the style of absl.
#define PW_RETURN_IF_ERROR(expr)                   \
  do {                                             \
    ::pw::Status pw_status_tmp_ = (expr);          \
    if (!pw_status_tmp_.ok()) return pw_status_tmp_; \
  } while (0)

#define PW_CONCAT_INNER_(a, b) a##b
#define PW_CONCAT_(a, b) PW_CONCAT_INNER_(a, b)

#define PW_ASSIGN_OR_RETURN(lhs, expr)                        \
  auto PW_CONCAT_(pw_statusor_, __LINE__) = (expr);           \
  if (!PW_CONCAT_(pw_statusor_, __LINE__).ok())               \
    return PW_CONCAT_(pw_statusor_, __LINE__).status();       \
  lhs = std::move(PW_CONCAT_(pw_statusor_, __LINE__)).value()

}  // namespace pw
