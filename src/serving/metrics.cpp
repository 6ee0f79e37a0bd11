#include "serving/metrics.h"

#include "common/logging.h"

namespace pw::serving {

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void FnvBytes(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

void FnvI64(std::uint64_t* h, std::int64_t v) { FnvBytes(h, &v, sizeof(v)); }

// Zigzag maps small magnitudes of either sign to small unsigned values, so a
// varint of -1 is one byte rather than ten.
void PutVarint(std::vector<std::uint8_t>* out, std::int64_t v) {
  std::uint64_t u = (static_cast<std::uint64_t>(v) << 1) ^
                    static_cast<std::uint64_t>(v >> 63);
  while (u >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(u | 0x80));
    u >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(u));
}

std::int64_t GetVarint(const std::vector<std::uint8_t>& in, std::size_t* pos) {
  std::uint64_t u = 0;
  for (int shift = 0;; shift += 7) {
    const std::uint8_t b = in[(*pos)++];
    u |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
  }
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}
}  // namespace

std::uint8_t ServingTrace::KindId(std::string_view kind) {
  for (std::size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i] == kind) return static_cast<std::uint8_t>(i);
  }
  PW_CHECK_LT(kinds_.size(), 255u) << "ServingTrace holds at most 255 kinds";
  kinds_.emplace_back(kind);
  return static_cast<std::uint8_t>(kinds_.size() - 1);
}

void ServingTrace::Record(std::int64_t at_ns, std::string_view kind,
                          std::int64_t request, std::int64_t detail) {
  // The delta wraps modulo 2^64, so any pair of timestamps round-trips.
  PutVarint(&log_, static_cast<std::int64_t>(
                       static_cast<std::uint64_t>(at_ns) -
                       static_cast<std::uint64_t>(last_at_ns_)));
  log_.push_back(KindId(kind));
  PutVarint(&log_, request);
  PutVarint(&log_, detail);
  last_at_ns_ = at_ns;
  ++count_;
}

ServingTrace::EventView::iterator::iterator(const ServingTrace* trace,
                                            std::size_t pos)
    : trace_(trace), pos_(pos), next_(pos) {
  if (pos_ < trace_->log_.size()) Decode();
}

ServingTrace::EventView::iterator&
ServingTrace::EventView::iterator::operator++() {
  pos_ = next_;
  if (pos_ < trace_->log_.size()) Decode();
  return *this;
}

// Decodes the event at next_, relative to event_'s timestamp (0 at the
// start of the log, matching Record's initial last_at_ns_).
void ServingTrace::EventView::iterator::Decode() {
  const std::vector<std::uint8_t>& log = trace_->log_;
  event_.at_ns = static_cast<std::int64_t>(
      static_cast<std::uint64_t>(event_.at_ns) +
      static_cast<std::uint64_t>(GetVarint(log, &next_)));
  event_.kind = trace_->kinds_[log[next_++]];
  event_.request = GetVarint(log, &next_);
  event_.detail = GetVarint(log, &next_);
}

std::uint64_t ServingTrace::Checksum() const {
  std::uint64_t h = kFnvOffset;
  FnvI64(&h, static_cast<std::int64_t>(count_));
  for (const Event& e : events()) {
    FnvI64(&h, e.at_ns);
    FnvI64(&h, static_cast<std::int64_t>(e.kind.size()));
    FnvBytes(&h, e.kind.data(), e.kind.size());
    FnvI64(&h, e.request);
    FnvI64(&h, e.detail);
  }
  return h;
}

}  // namespace pw::serving
