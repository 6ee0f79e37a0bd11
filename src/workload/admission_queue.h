// Bounded per-client admission queue in front of a Pathways client.
//
// Requests wait in a FIFO of at most `capacity`; a dispatcher window keeps
// up to `max_outstanding` programs in flight through Client::Submit. An
// arrival that finds the queue full is handled by the shed policy:
//
//   * kDropTail        — shed on the spot (load-shedding serving tier);
//   * kRejectWithRetry — re-offered after the RetryPolicy's capped
//                        exponential backoff, shed once max_attempts offers
//                        have failed (admission control with client-side
//                        retry, the pattern that exercised the backoff
//                        overflow this module was built to regression-gate).
//
// All timing flows through the owning client's simulator, so a traffic run
// is exactly as deterministic as the simulation itself. The queue schedules
// simulator callbacks that capture `this`: it must outlive the run.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/units.h"
#include "pathways/client.h"
#include "pathways/program.h"
#include "workload/latency_recorder.h"

namespace pw::workload {

enum class ShedPolicy { kDropTail, kRejectWithRetry };

const char* ToString(ShedPolicy policy);

struct AdmissionOptions {
  // Waiting requests bound (excludes the in-flight window).
  std::size_t capacity = 16;
  // Programs in flight per client; > 1 lets the runtime pipeline.
  int max_outstanding = 2;
  ShedPolicy policy = ShedPolicy::kDropTail;
  // kRejectWithRetry's re-offer schedule (BackoffFor + max_attempts), and —
  // when retry_executions is set — the execution retry policy passed to
  // Client::Submit so device-failure aborts resubmit transparently.
  pathways::RetryPolicy retry;
  // Kept as an option although no scenario sets it: on, requests run
  // through Client::RunWithRetry, the retry path the `faults` scenario
  // drives directly; off, an aborted execution is a failed request.
  // WorkloadFaultTest turns it on to ride open-loop load through a crash.
  bool retry_executions = false;
};

class AdmissionQueue {
 public:
  // `recorder` receives every arrival/shed/completion event; all pointers
  // must outlive the queue.
  AdmissionQueue(pathways::Client* client,
                 const pathways::PathwaysProgram* program,
                 AdmissionOptions options, LatencyRecorder* recorder);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // One request arriving now. Returns false iff it was shed on the spot
  // (drop-tail overflow); a deferred re-offer returns true and may still
  // shed later.
  bool Offer();

  std::size_t depth() const { return waiting_.size(); }
  int outstanding() const { return outstanding_; }
  // True when nothing is waiting, in flight, or pending a re-offer.
  bool drained() const {
    return waiting_.empty() && outstanding_ == 0 && pending_reoffers_ == 0;
  }
  const AdmissionOptions& options() const { return options_; }

 private:
  struct Request {
    TimePoint arrival;
    int offers = 1;  // admission attempts so far (1 = the arrival itself)
  };

  bool OfferInternal(Request req);
  void Pump();

  pathways::Client* client_;
  const pathways::PathwaysProgram* program_;
  AdmissionOptions options_;
  LatencyRecorder* recorder_;
  std::deque<Request> waiting_;
  int outstanding_ = 0;
  int pending_reoffers_ = 0;
};

}  // namespace pw::workload
