#include "serve/overload.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace eta::serve {

HysteresisLadder::HysteresisLadder(std::vector<double> enter_thresholds, double hysteresis)
    : enter_(std::move(enter_thresholds)), hysteresis_(hysteresis) {
  ETA_CHECK(hysteresis_ > 0 && hysteresis_ <= 1.0);
  // A non-positive threshold disables its level and everything above.
  for (size_t i = 0; i < enter_.size(); ++i) {
    if (enter_[i] <= 0) {
      enter_.resize(i);
      break;
    }
    ETA_CHECK(i == 0 || enter_[i] >= enter_[i - 1]);
  }
}

uint32_t HysteresisLadder::Update(double value, double now_ms) {
  uint32_t target = level_;
  while (target < enter_.size() && value >= enter_[target]) ++target;
  while (target > 0 && value < enter_[target - 1] * hysteresis_) --target;
  if (target != level_) {
    transitions_.push_back({now_ms, level_, target});
    level_ = target;
    max_level_ = std::max(max_level_, level_);
  }
  return level_;
}

bool CircuitBreaker::AllowRoute(double now_ms, bool queue_empty) {
  if (!Enabled()) return true;
  switch (state_) {
    case State::kClosed: return true;
    case State::kOpen:
      if (now_ms < open_until_ms_) return false;
      // Transition only; the probe is counted by OnProbeAdmitted() when a
      // request actually enters the shard's queue. The old code counted
      // here, so a denied route (queue not empty) still showed up in
      // serve_breaker_probes while a probe admitted later from the
      // half-open state never did.
      state_ = State::kHalfOpen;
      return queue_empty;
    case State::kHalfOpen:
      // One probe in flight at a time: admit only into an empty queue.
      return queue_empty;
  }
  return true;
}

bool CircuitBreaker::WouldAllow(double now_ms, bool queue_empty) const {
  if (!Enabled()) return true;
  switch (state_) {
    case State::kClosed: return true;
    case State::kOpen: return now_ms >= open_until_ms_ && queue_empty;
    case State::kHalfOpen: return queue_empty;
  }
  return true;
}

void CircuitBreaker::OnProbeAdmitted() {
  if (!Enabled()) return;
  if (state_ == State::kHalfOpen) ++probes_;
}

void CircuitBreaker::OnDispatchSuccess() {
  if (!Enabled()) return;
  state_ = State::kClosed;
  consecutive_failures_ = 0;
}

void CircuitBreaker::OnDispatchFailure(double now_ms) {
  if (!Enabled()) return;
  if (state_ == State::kHalfOpen) ++probe_failures_;
  // Exponent capped so a long failure streak cannot overflow to infinity.
  const uint32_t streak = std::min(consecutive_failures_, 20u);
  open_until_ms_ = now_ms + options_.cooldown_ms * std::pow(options_.backoff, streak);
  ++consecutive_failures_;
  ++opens_;
  state_ = State::kOpen;
}

void FinalizeOverloadReport(const OverloadOptions& options, const core::RetryBudget* budget,
                            ServeReport* report) {
  ETA_CHECK(report != nullptr);
  OverloadStats& o = report->overload;
  o.shed_configured = options.slo_admission || options.shed_bronze_backlog_ms > 0 ||
                      options.shed_silver_backlog_ms > 0;
  o.brownout_configured =
      options.brownout_bronze_backlog_ms > 0 || options.brownout_silver_backlog_ms > 0;
  o.budget_configured = budget != nullptr && budget->Enabled();
  o.breaker_configured = options.breaker_cooldown_ms > 0;
  if (budget != nullptr) {
    const core::RetryBudget::Stats& b = budget->stats();
    o.retry_granted = b.retries_granted;
    o.retry_denied = b.retries_denied;
    o.rebuild_granted = b.rebuilds_granted;
    o.rebuild_denied = b.rebuilds_denied;
  }

  // Per-class accounting from the per-request outcomes.
  constexpr size_t kClasses = 4;  // indexed by SloClass
  struct Acc {
    SloStat stat;
    FixedHistogram latency{LatencyBucketsMs()};
  };
  std::vector<Acc> acc(kClasses);
  report->shedded = 0;
  for (const QueryResult& r : report->results) {
    if (r.status == QueryStatus::kShedded) ++report->shedded;
    if (r.slo == SloClass::kNone) continue;
    o.slo_active = true;
    Acc& a = acc[static_cast<size_t>(r.slo)];
    SloStat& s = a.stat;
    s.slo = r.slo;
    s.slo_target_ms = SloTargetMs(options, r.slo);
    ++s.offered;
    switch (r.status) {
      case QueryStatus::kOk: ++s.ok; break;
      case QueryStatus::kDegraded: ++s.degraded; break;
      case QueryStatus::kShedded: ++s.shedded; break;
      case QueryStatus::kTimedOut: ++s.timed_out; break;
      case QueryStatus::kRejected: ++s.rejected; break;
    }
    if (r.status == QueryStatus::kOk || r.status == QueryStatus::kDegraded) {
      const double latency = r.LatencyMs();
      a.latency.Observe(latency);
      if (latency <= s.slo_target_ms) ++s.slo_met;
    }
  }
  report->slo_stats.clear();
  for (size_t c = 1; c < kClasses; ++c) {
    if (acc[c].stat.offered == 0) continue;
    acc[c].stat.p50_ms = acc[c].latency.Percentile(50);
    acc[c].stat.p99_ms = acc[c].latency.Percentile(99);
    report->slo_stats.push_back(acc[c].stat);
  }

  // Prometheus families — appended after the engine's own families, and
  // only for features that are live, so the legacy exposition stays
  // byte-identical (MetricsRegistry renders in insertion order).
  MetricsRegistry& m = report->metrics;
  for (const SloStat& s : report->slo_stats) {
    const std::string cls = SloClassName(s.slo);
    auto count = [&](const char* status, uint64_t value) {
      m.GetCounter("serve_slo_requests_total", "Requests by SLO class and outcome",
                   {{"class", cls}, {"status", status}})
          .Inc(static_cast<double>(value));
    };
    count("ok", s.ok);
    count("degraded", s.degraded);
    count("shedded", s.shedded);
    count("timed-out", s.timed_out);
    count("rejected", s.rejected);
    m.GetCounter("serve_slo_met_total", "Completions within the class SLO target",
                 {{"class", cls}})
        .Inc(static_cast<double>(s.slo_met));
    m.GetGauge("serve_slo_goodput", "slo_met / offered per class", {{"class", cls}})
        .Set(s.Goodput());
    FixedHistogram& h =
        m.GetHistogram("serve_slo_latency_ms", "Completion latency by SLO class",
                       LatencyBucketsMs(), {{"class", cls}});
    for (const QueryResult& r : report->results) {
      if (r.slo == s.slo &&
          (r.status == QueryStatus::kOk || r.status == QueryStatus::kDegraded)) {
        h.Observe(r.LatencyMs());
      }
    }
  }
  if (o.Active()) {
    m.GetCounter("serve_shedded_total", "Requests shed at admission")
        .Inc(static_cast<double>(report->shedded));
  }
  if (o.brownout_configured) {
    m.GetGauge("serve_brownout_level", "Brownout ladder level at end of replay")
        .Set(o.brownout_level);
    m.GetCounter("serve_brownout_transitions_total", "Brownout ladder level changes")
        .Inc(static_cast<double>(o.brownout_transitions.size()));
    m.GetCounter("serve_brownout_degraded_total",
                 "Requests degraded to the CPU fallback by the brownout ladder")
        .Inc(static_cast<double>(o.brownout_degraded));
  }
  if (o.budget_configured) {
    m.GetCounter("serve_retry_budget_granted_total", "Retry-budget tokens granted",
                 {{"kind", "retry"}})
        .Inc(static_cast<double>(o.retry_granted));
    m.GetCounter("serve_retry_budget_granted_total", "Retry-budget tokens granted",
                 {{"kind", "rebuild"}})
        .Inc(static_cast<double>(o.rebuild_granted));
    m.GetCounter("serve_retry_budget_denied_total", "Retry-budget draws denied",
                 {{"kind", "retry"}})
        .Inc(static_cast<double>(o.retry_denied));
    m.GetCounter("serve_retry_budget_denied_total", "Retry-budget draws denied",
                 {{"kind", "rebuild"}})
        .Inc(static_cast<double>(o.rebuild_denied));
  }
  if (o.breaker_configured) {
    m.GetCounter("serve_breaker_opens_total", "Circuit-breaker open transitions")
        .Inc(static_cast<double>(o.breaker_opens));
    m.GetCounter("serve_breaker_probes_total", "Half-open probe dispatches")
        .Inc(static_cast<double>(o.breaker_probes));
    m.GetCounter("serve_breaker_probe_failures_total", "Probe dispatches that failed")
        .Inc(static_cast<double>(o.breaker_probe_failures));
  }
}

}  // namespace eta::serve
