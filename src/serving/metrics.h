// Serving-side measurement: latency distributions and the event trace.
//
// ServingMetrics collects the three serving numbers the paper's regime
// cares about — TTFT (arrival to first output token, queueing included),
// per-token decode latency, and goodput — plus shed/abort counters. One
// instance per batcher; Merge() folds scenario shards into a fleet view.
//
// ServingTrace is the serving analogue of sim::Trace for golden tests: an
// append-only log of semantic events (arrive/admit/shed/prefill/token/
// finish/abort/requeue, plus the disaggregated handoff/kv_* kinds) with an
// FNV-1a checksum, so any change to batching or KV-cache semantics moves a
// pinned constant in tests/serving_test.cpp. Long serving runs log hundreds
// of thousands of events, so the log is a compact byte stream — per event a
// zigzag varint of the at_ns delta, a one-byte id into an interned table of
// kind names, and zigzag varints of request and detail.
// events() decodes it on the fly; Checksum() hashes the decoded events
// exactly as a plain vector of them would be hashed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/units.h"

namespace pw::serving {

class ServingTrace {
 public:
  struct Event {
    std::int64_t at_ns = 0;
    std::string_view kind;  // valid for the trace's lifetime
    std::int64_t request = -1;
    std::int64_t detail = 0;
  };

  // Forward iteration over the log, decoding one event per step.
  class EventView {
   public:
    class iterator {
     public:
      using iterator_category = std::input_iterator_tag;
      using value_type = Event;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = Event;

      Event operator*() const { return event_; }
      iterator& operator++();
      bool operator==(const iterator& o) const { return pos_ == o.pos_; }

     private:
      friend class EventView;
      iterator(const ServingTrace* trace, std::size_t pos);
      void Decode();

      const ServingTrace* trace_;
      std::size_t pos_;   // offset of event_ in the log
      std::size_t next_;  // offset of the event after it
      Event event_;
    };

    std::size_t size() const { return trace_->count_; }
    iterator begin() const { return iterator(trace_, 0); }
    iterator end() const { return iterator(trace_, trace_->log_.size()); }

   private:
    friend class ServingTrace;
    explicit EventView(const ServingTrace* trace) : trace_(trace) {}
    const ServingTrace* trace_;
  };

  void Record(std::int64_t at_ns, std::string_view kind, std::int64_t request,
              std::int64_t detail = 0);

  EventView events() const { return EventView(this); }
  std::uint64_t Checksum() const;

 private:
  std::uint8_t KindId(std::string_view kind);

  std::vector<std::uint8_t> log_;
  std::deque<std::string> kinds_;  // indexed by kind id; never reallocates
  std::size_t count_ = 0;
  std::int64_t last_at_ns_ = 0;
};

class ServingMetrics {
 public:
  void OnArrival() { ++arrivals_; }
  void OnShed() { ++sheds_; }
  void OnFirstToken(Duration ttft) {
    ++prefills_;
    ttft_us_.Add(ttft.ToSeconds() * 1e6);
  }
  // Disaggregated only: arrival → prefill completion on the prefill island.
  // Deliberately a *separate* sampler from TTFT — the first output token is
  // emitted by the decode island after the KV crossed the DCN, so stamping
  // TTFT at prefill completion would hide the whole transfer + decode-queue
  // delay (regression-tested in tests/disagg_test.cpp).
  void OnPrefillDone(Duration latency) {
    ++handoffs_;
    prefill_done_us_.Add(latency.ToSeconds() * 1e6);
  }
  void OnToken(Duration since_last) {
    ++tokens_;
    token_latency_us_.Add(since_last.ToSeconds() * 1e6);
  }
  void OnFinish() { ++finished_; }
  void OnAbortedIteration() { ++aborted_iterations_; }

  std::int64_t arrivals() const { return arrivals_; }
  std::int64_t sheds() const { return sheds_; }
  std::int64_t prefills() const { return prefills_; }
  std::int64_t tokens() const { return tokens_; }
  std::int64_t finished() const { return finished_; }  // goodput
  std::int64_t handoffs() const { return handoffs_; }
  std::int64_t aborted_iterations() const { return aborted_iterations_; }

  // Percentiles in microseconds, p in [0,100]; 0 when empty.
  double TtftUs(double p) { return ttft_us_.Percentile(p); }
  double TokenLatencyUs(double p) { return token_latency_us_.Percentile(p); }
  double PrefillDoneUs(double p) { return prefill_done_us_.Percentile(p); }

  void Merge(const ServingMetrics& other) {
    arrivals_ += other.arrivals_;
    sheds_ += other.sheds_;
    prefills_ += other.prefills_;
    tokens_ += other.tokens_;
    finished_ += other.finished_;
    handoffs_ += other.handoffs_;
    aborted_iterations_ += other.aborted_iterations_;
    ttft_us_.Merge(other.ttft_us_);
    token_latency_us_.Merge(other.token_latency_us_);
    prefill_done_us_.Merge(other.prefill_done_us_);
  }

 private:
  PercentileSampler ttft_us_;
  PercentileSampler token_latency_us_;
  PercentileSampler prefill_done_us_;
  std::int64_t arrivals_ = 0;
  std::int64_t sheds_ = 0;
  std::int64_t prefills_ = 0;
  std::int64_t tokens_ = 0;
  std::int64_t finished_ = 0;
  std::int64_t handoffs_ = 0;
  std::int64_t aborted_iterations_ = 0;
};

}  // namespace pw::serving
