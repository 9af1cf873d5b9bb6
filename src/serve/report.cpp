#include "serve/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "trace/tracer.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace eta::serve {

double ServeReport::ThroughputQps() const {
  return makespan_ms > 0 ? static_cast<double>(completed) / (makespan_ms / 1000.0) : 0;
}

double ServeReport::LatencyPercentileMs(double q) const {
  if (latency_us.Count() == 0) return 0;
  return static_cast<double>(latency_us.Percentile(q)) / 1000.0;
}

std::string ServeReport::Render(const std::string& title) const {
  util::Table table({"Metric", "Value"});
  auto row = [&](const std::string& name, const std::string& value) {
    table.AddRow({name, value});
  };
  row("mode", ServeModeName(mode));
  if (async_dispatch) row("dispatch", "async (streams)");
  if (edf) row("queue order", "edf (deadline - service estimate)");
  if (traced) row("traced requests", std::to_string(request_traces.size()));
  row("requests", std::to_string(total_requests));
  row("completed", std::to_string(completed));
  row("rejected", std::to_string(rejected));
  row("timed out", std::to_string(timed_out));
  if (overload.Active()) row("shedded", std::to_string(shedded));
  row("degraded (cpu fallback)", std::to_string(degraded));
  row("dispatches", std::to_string(batches));
  if (memo_configured) row("memo hits", std::to_string(memo_hits));
  if (autoscale_configured) {
    row("shards active (final)", std::to_string(shards_active));
    row("scale events", std::to_string(scale_events.size()));
  }
  if (session_rebuilds > 0) row("session rebuilds", std::to_string(session_rebuilds));
  if (overload.brownout_configured) {
    row("brownout level (final/max)", std::to_string(overload.brownout_level) + "/" +
                                          std::to_string(overload.brownout_max_level));
    row("brownout transitions",
        std::to_string(overload.brownout_transitions.size()));
    row("brownout degraded", std::to_string(overload.brownout_degraded));
  }
  if (overload.budget_configured) {
    row("retry budget granted (retry/rebuild)",
        std::to_string(overload.retry_granted) + "/" +
            std::to_string(overload.rebuild_granted));
    row("retry budget denied (retry/rebuild)",
        std::to_string(overload.retry_denied) + "/" +
            std::to_string(overload.rebuild_denied));
  }
  if (overload.breaker_configured) {
    row("breaker opens", std::to_string(overload.breaker_opens));
    row("breaker probes (failed)", std::to_string(overload.breaker_probes) + " (" +
                                       std::to_string(overload.breaker_probe_failures) +
                                       ")");
  }
  if (faults.launch_failures > 0 || faults.ecc_corrected > 0) {
    row("launch failures", std::to_string(faults.launch_failures));
    row("query retries", std::to_string(faults.retries));
    row("ecc corrected", std::to_string(faults.ecc_corrected));
    row("restaged buffers", std::to_string(faults.restaged_buffers));
    row("restaged bytes", std::to_string(faults.restaged_bytes));
    row("backoff (ms)", util::FormatDouble(faults.backoff_ms, 3));
    row("device lost", faults.device_lost ? "yes" : "no");
  }
  row("graph load (ms)", util::FormatDouble(load_ms, 3));
  row("makespan (ms)", util::FormatDouble(makespan_ms, 3));
  row("throughput (qps, simulated)", util::FormatDouble(ThroughputQps(), 1));
  row("latency p50 (ms)", util::FormatDouble(LatencyPercentileMs(0.50), 3));
  row("latency p95 (ms)", util::FormatDouble(LatencyPercentileMs(0.95), 3));
  row("latency p99 (ms)", util::FormatDouble(LatencyPercentileMs(0.99), 3));
  row("latency p99.9 (ms)", util::FormatDouble(LatencyPercentileMs(0.999), 3));
  row("mean queue wait (ms)", util::FormatDouble(queue_wait_us.Mean() / 1000.0, 3));
  row("max queue depth", std::to_string(queue_depth.Max()));
  row("mean batch occupancy", util::FormatDouble(MeanBatchOccupancy(), 2));
  row("max batch occupancy", std::to_string(batch_occupancy.Max()));
  row("reached vertices (sum)", std::to_string(reached_total));
  if (check.launches_checked > 0) {
    row("etacheck launches", std::to_string(check.launches_checked));
    row("etacheck errors", std::to_string(check.ErrorCount()));
    row("etacheck warnings", std::to_string(check.WarningCount()));
  }
  std::string out = table.Render(title);

  // Per-algo latency split (queue wait vs device service) with exact
  // percentiles, straight from the metrics registry.
  std::vector<std::string> algos;
  for (const CostObservation& c : cost_observations) algos.push_back(c.algo);
  if (!algos.empty()) {
    // The exemplar column (trace id of the slowest request, linking the
    // p99 row to its span tree) appears only on traced runs, keeping
    // untraced output byte-identical.
    std::vector<std::string> split_header = {"Algo",        "Queue p50",   "Queue p95",
                                             "Queue p99",   "Queue p99.9", "Service p50",
                                             "Service p95", "Service p99", "Service p99.9"};
    if (traced) split_header.push_back("Exemplar req");
    util::Table split(split_header);
    for (const std::string& algo : algos) {
      const FixedHistogram* queue =
          metrics.FindHistogram("serve_queue_wait_ms", {{"algo", algo}});
      const FixedHistogram* service =
          metrics.FindHistogram("serve_service_ms", {{"algo", algo}});
      if (queue == nullptr || service == nullptr) continue;
      std::vector<std::string> cells = {algo,
                                        util::FormatDouble(queue->Percentile(50), 3),
                                        util::FormatDouble(queue->Percentile(95), 3),
                                        util::FormatDouble(queue->Percentile(99), 3),
                                        util::FormatDouble(queue->Percentile(99.9), 3),
                                        util::FormatDouble(service->Percentile(50), 3),
                                        util::FormatDouble(service->Percentile(95), 3),
                                        util::FormatDouble(service->Percentile(99), 3),
                                        util::FormatDouble(service->Percentile(99.9), 3)};
      if (traced) {
        auto it = latency_exemplars.find(algo);
        cells.push_back(it == latency_exemplars.end() ? "-" : std::to_string(it->second));
      }
      split.AddRow(cells);
    }
    out += "\n";
    out += split.Render("Latency split (ms)");

    util::Table cost({"Algo", "Queries", "Mean service ms", "Mean |est err| ms",
                      "Mean cycles"});
    for (const CostObservation& c : cost_observations) {
      cost.AddRow({c.algo, std::to_string(c.queries),
                   util::FormatDouble(c.mean_service_ms, 3),
                   util::FormatDouble(c.mean_abs_error_ms, 3),
                   util::FormatDouble(c.mean_cycles, 0)});
    }
    out += "\n";
    out += cost.Render("Cost model observations");
  }

  if (!slo_stats.empty()) {
    util::Table slo({"Class", "Target ms", "Offered", "Ok", "Degraded", "Shed",
                     "Timed out", "Rejected", "Goodput %", "p50 ms", "p99 ms"});
    for (const SloStat& s : slo_stats) {
      slo.AddRow({SloClassName(s.slo), util::FormatDouble(s.slo_target_ms, 1),
                  std::to_string(s.offered), std::to_string(s.ok),
                  std::to_string(s.degraded), std::to_string(s.shedded),
                  std::to_string(s.timed_out), std::to_string(s.rejected),
                  util::FormatDouble(100.0 * s.Goodput(), 1),
                  util::FormatDouble(s.p50_ms, 3), util::FormatDouble(s.p99_ms, 3)});
    }
    out += "\n";
    out += slo.Render("SLO classes");
  }

  // Burn-rate alert evaluations; present only under --slo-alerts, so
  // legacy output never carries an alert row.
  if (!alerts.empty()) {
    util::Table alert({"Class", "Samples", "Bad", "Fired", "Max fast burn", "State"});
    for (const trace::AlertSeries& a : alerts) {
      alert.AddRow({a.name, std::to_string(a.samples), std::to_string(a.bad),
                    std::to_string(a.fired), util::FormatDouble(a.max_fast_burn, 2),
                    a.firing_at_end ? "FIRING" : "ok"});
    }
    out += "\n";
    out += alert.Render("SLO burn-rate alerts");
  }

  if (!shard_stats.empty()) {
    // The prestage columns appear only when prestaging was on.
    std::vector<std::string> header = {"Shard",    "Dispatches", "Served", "Degraded",
                                       "In",       "Out",        "Rebuilds", "Evict",
                                       "Reload",   "Faults",     "Busy ms"};
    if (async_dispatch) {
      header.insert(header.end(), {"Prestage", "Prestage ms", "Overlap ms"});
    }
    header.push_back("State");
    util::Table shards(header);
    for (const ShardStat& s : shard_stats) {
      std::vector<std::string> cells = {
          std::to_string(s.shard),        std::to_string(s.dispatches),
          std::to_string(s.served),       std::to_string(s.degraded),
          std::to_string(s.rerouted_in),  std::to_string(s.rerouted_out),
          std::to_string(s.rebuilds),     std::to_string(s.evictions),
          std::to_string(s.reloads),      std::to_string(s.launch_failures),
          util::FormatDouble(s.busy_ms, 3)};
      if (async_dispatch) {
        cells.push_back(std::to_string(s.prestages));
        cells.push_back(util::FormatDouble(s.prestage_ms, 3));
        cells.push_back(util::FormatDouble(s.overlap_ms, 3));
      }
      cells.push_back(s.dead ? "dead" : "up");
      shards.AddRow(cells);
    }
    out += "\n";
    out += shards.Render("Shards");
  }
  return out;
}

namespace {

/// snprintf-append, keeping the fixed-precision formatting that makes two
/// identically-seeded replays byte-identical.
template <typename... Args>
void Appendf(std::string& out, const char* fmt, Args... args) {
  char buf[512];
  int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n <= 0) return;
  if (static_cast<size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<size_t>(n));
    return;
  }
  // Rare long chunk: retry into the string itself rather than truncate.
  const size_t base = out.size();
  out.resize(base + static_cast<size_t>(n) + 1);
  std::snprintf(out.data() + base, static_cast<size_t>(n) + 1, fmt, args...);
  out.resize(base + static_cast<size_t>(n));
}

}  // namespace

std::string ServeReport::Json() const {
  std::string out;
  out.reserve(2048);
  Appendf(out,
          "{\"mode\":\"%s\",\"requests\":%" PRIu64 ",\"completed\":%" PRIu64
          ",\"rejected\":%" PRIu64 ",\"timed_out\":%" PRIu64 ",\"degraded\":%" PRIu64
          ",\"dispatches\":%" PRIu64 ",\"session_rebuilds\":%" PRIu64
          ",\"load_ms\":%.4f,\"makespan_ms\":%.4f,\"throughput_qps\":%.3f"
          ",\"latency_p50_ms\":%.4f,\"latency_p95_ms\":%.4f,\"latency_p99_ms\":%.4f"
          ",\"latency_p999_ms\":%.4f"
          ",\"mean_batch_occupancy\":%.3f,\"reached_total\":%" PRIu64
          ",\"launch_failures\":%" PRIu64 ",\"query_retries\":%" PRIu64
          ",\"ecc_corrected\":%" PRIu64 ",\"restaged_buffers\":%" PRIu64
          ",\"restaged_bytes\":%" PRIu64 ",\"backoff_ms\":%.4f,\"device_lost\":%s"
          ",\"check_launches\":%" PRIu64 ",\"check_errors\":%" PRIu64
          ",\"check_warnings\":%" PRIu64,
          util::JsonEscape(ServeModeName(mode)).c_str(), total_requests, completed,
          rejected, timed_out, degraded, batches, session_rebuilds, load_ms, makespan_ms,
          ThroughputQps(), LatencyPercentileMs(0.50), LatencyPercentileMs(0.95),
          LatencyPercentileMs(0.99), LatencyPercentileMs(0.999), MeanBatchOccupancy(),
          reached_total,
          faults.launch_failures, faults.retries, faults.ecc_corrected,
          faults.restaged_buffers, faults.restaged_bytes, faults.backoff_ms,
          faults.device_lost ? "true" : "false", check.launches_checked,
          static_cast<uint64_t>(check.ErrorCount()),
          static_cast<uint64_t>(check.WarningCount()));
  // Emitted only with prestaging on, so prestage-off JSON has no such key.
  if (async_dispatch) out += ",\"async_dispatch\":true";
  // Same contract for the million-user scheduler features (section 15):
  // keys appear only when the feature was configured.
  if (edf) out += ",\"edf\":true";
  if (memo_configured) Appendf(out, ",\"memo_hits\":%" PRIu64, memo_hits);
  if (autoscale_configured) {
    Appendf(out, ",\"autoscale\":{\"shards_active\":%u,\"scale_events\":[", shards_active);
    for (size_t i = 0; i < scale_events.size(); ++i) {
      const LadderTransition& tr = scale_events[i];
      if (i > 0) out += ",";
      Appendf(out, "{\"at_ms\":%.4f,\"from\":%u,\"to\":%u}", tr.at_ms, tr.from_level,
              tr.to_level);
    }
    out += "]}";
  }
  // Emitted only on traced replays (same contract).
  if (traced) {
    Appendf(out, ",\"traced\":true,\"traced_requests\":%" PRIu64,
            static_cast<uint64_t>(request_traces.size()));
  }
  // Overload-control block: emitted only when an overload feature was
  // configured or the trace carried SLO classes, so legacy JSON stays
  // byte-identical (same contract as async_dispatch).
  if (overload.Active()) {
    Appendf(out, ",\"shedded\":%" PRIu64, shedded);
    Appendf(out,
            ",\"overload\":{\"brownout_level\":%u,\"brownout_max_level\":%u"
            ",\"brownout_transitions\":%" PRIu64 ",\"brownout_degraded\":%" PRIu64
            ",\"retry_granted\":%" PRIu64 ",\"retry_denied\":%" PRIu64
            ",\"rebuild_granted\":%" PRIu64 ",\"rebuild_denied\":%" PRIu64
            ",\"breaker_opens\":%" PRIu64 ",\"breaker_probes\":%" PRIu64
            ",\"breaker_probe_failures\":%" PRIu64 "}",
            overload.brownout_level, overload.brownout_max_level,
            static_cast<uint64_t>(overload.brownout_transitions.size()),
            overload.brownout_degraded, overload.retry_granted, overload.retry_denied,
            overload.rebuild_granted, overload.rebuild_denied, overload.breaker_opens,
            overload.breaker_probes, overload.breaker_probe_failures);
  }
  if (!slo_stats.empty()) {
    out += ",\"slo\":[";
    for (size_t i = 0; i < slo_stats.size(); ++i) {
      const SloStat& s = slo_stats[i];
      if (i > 0) out += ",";
      Appendf(out,
              "{\"class\":\"%s\",\"target_ms\":%.1f,\"offered\":%" PRIu64
              ",\"ok\":%" PRIu64 ",\"degraded\":%" PRIu64 ",\"shedded\":%" PRIu64
              ",\"timed_out\":%" PRIu64 ",\"rejected\":%" PRIu64 ",\"slo_met\":%" PRIu64
              ",\"goodput\":%.4f,\"p50_ms\":%.4f,\"p99_ms\":%.4f}",
              SloClassName(s.slo), s.slo_target_ms, s.offered, s.ok, s.degraded,
              s.shedded, s.timed_out, s.rejected, s.slo_met, s.Goodput(), s.p50_ms,
              s.p99_ms);
    }
    out += "]";
  }

  // Per-algo latency split + cost-model observations.
  out += ",\"algos\":[";
  for (size_t i = 0; i < cost_observations.size(); ++i) {
    const CostObservation& c = cost_observations[i];
    if (i > 0) out += ",";
    Appendf(out, "{\"algo\":\"%s\",\"queries\":%" PRIu64 ",\"mean_service_ms\":%.4f"
                 ",\"mean_abs_cost_error_ms\":%.4f,\"mean_cycles\":%.1f",
            util::JsonEscape(c.algo).c_str(), c.queries, c.mean_service_ms,
            c.mean_abs_error_ms, c.mean_cycles);
    const FixedHistogram* queue =
        metrics.FindHistogram("serve_queue_wait_ms", {{"algo", c.algo}});
    const FixedHistogram* service =
        metrics.FindHistogram("serve_service_ms", {{"algo", c.algo}});
    if (queue != nullptr && service != nullptr) {
      Appendf(out,
              ",\"queue_wait_p50_ms\":%.4f,\"queue_wait_p95_ms\":%.4f"
              ",\"queue_wait_p99_ms\":%.4f,\"queue_wait_p999_ms\":%.4f"
              ",\"service_p50_ms\":%.4f,\"service_p95_ms\":%.4f"
              ",\"service_p99_ms\":%.4f,\"service_p999_ms\":%.4f",
              queue->Percentile(50), queue->Percentile(95), queue->Percentile(99),
              queue->Percentile(99.9), service->Percentile(50), service->Percentile(95),
              service->Percentile(99), service->Percentile(99.9));
    }
    if (traced) {
      auto it = latency_exemplars.find(c.algo);
      if (it != latency_exemplars.end()) {
        Appendf(out, ",\"exemplar_request\":%" PRIu64, it->second);
      }
    }
    out += "}";
  }
  out += "]";
  if (!shard_stats.empty()) {
    out += ",\"shards\":[";
    for (size_t i = 0; i < shard_stats.size(); ++i) {
      const ShardStat& s = shard_stats[i];
      if (i > 0) out += ",";
      Appendf(out,
              "{\"shard\":%u,\"dispatches\":%" PRIu64 ",\"served\":%" PRIu64
              ",\"degraded\":%" PRIu64 ",\"rerouted_in\":%" PRIu64
              ",\"rerouted_out\":%" PRIu64 ",\"rebuilds\":%" PRIu64
              ",\"evictions\":%" PRIu64 ",\"reloads\":%" PRIu64
              ",\"launch_failures\":%" PRIu64 ",\"dead\":%s,\"busy_ms\":%.4f"
              ",\"peak_resident_bytes\":%" PRIu64,
              s.shard, s.dispatches, s.served, s.degraded, s.rerouted_in,
              s.rerouted_out, s.rebuilds, s.evictions, s.reloads, s.launch_failures,
              s.dead ? "true" : "false", s.busy_ms, s.peak_resident_bytes);
      if (async_dispatch) {
        Appendf(out, ",\"prestages\":%" PRIu64 ",\"prestage_ms\":%.4f,\"overlap_ms\":%.4f",
                s.prestages, s.prestage_ms, s.overlap_ms);
      }
      out += "}";
    }
    out += "]";
  }
  // Burn-rate alert block: present only under --slo-alerts.
  if (!alerts.empty()) {
    out += ",\"alerts\":[";
    for (size_t i = 0; i < alerts.size(); ++i) {
      const trace::AlertSeries& a = alerts[i];
      if (i > 0) out += ",";
      Appendf(out,
              "{\"class\":\"%s\",\"samples\":%" PRIu64 ",\"bad\":%" PRIu64
              ",\"fired\":%" PRIu64 ",\"firing\":%s,\"max_fast_burn\":%.4f"
              ",\"transitions\":[",
              util::JsonEscape(a.name).c_str(), a.samples, a.bad, a.fired,
              a.firing_at_end ? "true" : "false", a.max_fast_burn);
      for (size_t t = 0; t < a.transitions.size(); ++t) {
        const trace::AlertTransition& tr = a.transitions[t];
        if (t > 0) out += ",";
        Appendf(out,
                "{\"at_ms\":%.4f,\"firing\":%s,\"fast_burn\":%.4f,\"slow_burn\":%.4f}",
                tr.at_ms, tr.firing ? "true" : "false", tr.fast_burn, tr.slow_burn);
      }
      out += "]}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

std::string ServeReport::RenderRequestTraceJson() const {
  if (!traced) return "";
  std::string out = "{\"traces\":[";
  bool first_trace = true;
  for (const auto& [id, events] : request_traces) {
    if (!first_trace) out += ",";
    first_trace = false;
    Appendf(out, "\n {\"id\":%" PRIu64 ",\"events\":[", id);
    bool first_event = true;
    for (const trace::TraceEvent& e : events) {
      if (!first_event) out += ",";
      first_event = false;
      out += "\n  ";
      out += trace::RenderTraceEventJson(e);
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

std::string ServeReport::RenderBlackbox() const {
  std::string out;
  for (const trace::FlightDump& d : blackbox) out += d.text;
  return out;
}

}  // namespace eta::serve
