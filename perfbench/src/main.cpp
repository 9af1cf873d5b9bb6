// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--trace-out FILE] [--digest-out FILE]
//             [--inputs-out FILE]
//   perfbench --list-metrics
//
// One run: set up the workload's inputs from the seed several times (the
// median is setup_s), run one untimed warm-up pass, repeat the workload's
// pass until S seconds have passed (the median timed pass is wall_s),
// check every answer against the CPU reference and every later cycle's
// simulated values against the first cycle's, then print the metrics. The
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
// untraced passes, records host-clock spans around every call into the
// graph, cpu, baselines, core, sim and serve modules, runs the fixed
// substrate probes, and prints the per-layer metrics instead; the spans go
// to --trace-out as Chrome trace-event JSON. Simulated values never depend
// on tracing: the digest printed is the same with --trace 0 and 1.
//
// Exit status: 0 when every answer matched, 1 on any mismatch or
// nondeterminism, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "substrate.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

/// Set-ups per run: at least kMinSetups, and more until kSetupSeconds have
/// passed, so a fast set-up is timed often enough for a steady median.
/// setup_s is their median.
constexpr size_t kMinSetups = 3;
constexpr double kSetupSeconds = 1.5;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, in this order. Mirrors BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sim_eta_total_ms", "ms"},
    {"sim_p50_ms", "ms"},
    {"sim_p99_ms", "ms"},
    {"sim_throughput_qps", "1/s"},
    {"sim_goodput_frac", "frac"},
};

/// Printed with --trace 1, in this order; a layer the workload does not
/// exercise reads 0. Mirrors BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    {"graph.generate_ms", "ms"},
    {"graph.gr_roundtrip_ms", "ms"},
    {"graph.edges", "count"},
    {"baselines.cusha.host_ms", "ms"},
    {"baselines.cusha.sectors", "count"},
    {"baselines.cusha.sim_ms", "ms"},
    {"baselines.gunrock.host_ms", "ms"},
    {"baselines.gunrock.sectors", "count"},
    {"baselines.gunrock.sim_ms", "ms"},
    {"baselines.tigr.host_ms", "ms"},
    {"baselines.tigr.sectors", "count"},
    {"baselines.tigr.sim_ms", "ms"},
    {"baselines.oom_cells", "count"},
    {"core.etagraph.host_ms", "ms"},
    {"core.etagraph_noump.host_ms", "ms"},
    {"core.etagraph.iterations", "count"},
    {"core.etagraph.sectors", "count"},
    {"core.etagraph.speedup", "x"},
    {"sim.host_ns_per_sector", "ns"},
    {"sim.l1_hit_rate", "frac"},
    {"sim.l2_hit_rate", "frac"},
    {"sim.dram_transactions", "count"},
    {"sim.warp_instructions", "count"},
    {"sim.um_migrations", "count"},
    {"sim.um_migrated_mb", "MB"},
    {"sim.cache_access_ns", "ns"},
    {"sim.gather_contiguous_ns", "ns"},
    {"sim.gather_scattered_ns", "ns"},
    {"sim.gather_bulk_ns", "ns"},
    {"sim.gather_um_ns", "ns"},
    {"report.render_ms", "ms"},
    {"serve.host_ms", "ms"},
    {"serve.host_us_per_dispatch", "us"},
    {"serve.render_ms", "ms"},
    {"serve.generate_arrivals_ms", "ms"},
    {"serve.dispatches", "count"},
    {"serve.batch_occupancy_mean", "count"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_p99_ms", "ms"},
    {"serve.cost_est_err_ms", "ms"},
    {"serve.evictions", "count"},
    {"serve.reloads", "count"},
    {"serve.prestages", "count"},
    {"serve.prestage_ms", "ms"},
    {"serve.overlap_ms", "ms"},
    {"serve.busy_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.shedded", "count"},
    {"serve.timed_out", "count"},
    {"serve.degraded", "count"},
    {"serve.brownout_transitions", "count"},
    {"cpu.verify_ms", "ms"},
    {"trace.overhead_frac", "frac"},
    {"failed_frac", "frac"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::string trace_out;
  std::string digest_out;
  std::string inputs_out;
  bool list_metrics = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--trace-out FILE] [--digest-out FILE] "
               "[--inputs-out FILE]\n       perfbench --list-metrics\n");
  std::exit(2);
}

/// Accepts "--key value" and "--key=value".
Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (key.rfind("--", 0) != 0) Usage("unexpected argument '" + key + "'");
    std::string value;
    if (size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + key);
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad --seed '" + value + "'");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || a.seconds < 0) Usage("bad --seconds '" + value + "'");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage("bad --trace '" + value + "'");
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--digest-out") {
      a.digest_out = value;
    } else if (key == "--inputs-out") {
      a.inputs_out = value;
    } else {
      Usage("unknown flag " + key);
    }
  }
  if (!a.list_metrics && !have_workload) Usage("--workload is required");
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + eta::util::JsonEscape(metrics[i].name) +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           eta::util::JsonEscape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

/// Orders `found` by `defs`, filling a metric the run did not produce
/// with 0; a produced metric missing from `defs` is a programming error.
template <size_t N>
std::vector<Metric> Complete(const MetricDef (&defs)[N], const std::vector<Metric>& found) {
  std::map<std::string, double> by_name;
  for (const Metric& m : found) {
    ETA_CHECK(std::any_of(std::begin(defs), std::end(defs),
                          [&](const MetricDef& d) { return m.name == d.name && m.unit == d.unit; }));
    by_name[m.name] = m.value;
  }
  std::vector<Metric> out;
  for (const MetricDef& d : defs) out.push_back({d.name, by_name[d.name], d.unit});
  return out;
}

template <size_t N>
std::string DefsJson(const MetricDef (&defs)[N]) {
  std::string out = "[";
  for (size_t i = 0; i < N; ++i) {
    out += std::string(i == 0 ? "" : ", ") + "{\"name\": \"" + defs[i].name +
           "\", \"unit\": \"" + defs[i].unit + "\"}";
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.list_metrics) {
    std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n", DefsJson(kEndToEnd).c_str(),
                DefsJson(kPerLayer).c_str());
    return 0;
  }
  std::unique_ptr<perfbench::Workload> workload = perfbench::MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) Usage("unknown workload '" + args.workload + "'");
  perfbench::SpanRecorder spans(args.workload, args.trace);

  std::vector<double> setup_s;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setup_s.size() < kMinSetups || SecondsSince(setup_start) < kSetupSeconds) {
    const auto t0 = std::chrono::steady_clock::now();
    workload->Setup(spans);
    setup_s.push_back(SecondsSince(t0));
  }
  const std::string inputs = workload->InputText();

  // One untimed warm-up pass, then the timed phase: the first pass pays for
  // allocator growth and cold host caches (about a quarter of a pass), a
  // cost a long-running simulator pays once; later passes, the first replay
  // of another trace included, do not. Traced runs alternate traced and
  // untraced timed passes, so the tracing overhead is measured in the same
  // run. The phase lasts at least one cycle and one pass, so some pass is
  // run twice, and every cycle's simulated values must equal the first's.
  const uint64_t cycle = workload->CyclePasses();
  std::vector<std::string> first_digest;
  uint64_t passes = 0;
  uint64_t nondeterministic_ops = 0;
  auto check_digest = [&] {
    const std::vector<std::string> digest = workload->DigestLines();
    const size_t n = std::max(digest.size(), first_digest.size());
    for (size_t i = 0; i < n; ++i) {
      if (i >= digest.size() || i >= first_digest.size() || digest[i] != first_digest[i]) {
        ++nondeterministic_ops;
      }
    }
  };
  auto end_pass = [&] {
    ++passes;
    if (passes == cycle) {
      first_digest = workload->DigestLines();
    } else if (passes % cycle == 0) {
      check_digest();
    }
  };
  spans.set_enabled(false);
  const auto warmup_start = std::chrono::steady_clock::now();
  workload->RunPass(spans);
  const double warmup_s = SecondsSince(warmup_start);
  end_pass();
  std::vector<double> wall_plain;
  std::vector<double> wall_traced;
  const auto phase_start = std::chrono::steady_clock::now();
  do {
    const bool traced = args.trace && passes % 2 == 1;
    spans.set_enabled(traced);
    const auto t0 = std::chrono::steady_clock::now();
    {
      auto span = spans.Open("pass");
      workload->RunPass(spans);
    }
    (traced ? wall_traced : wall_plain).push_back(SecondsSince(t0));
    end_pass();
  } while (SecondsSince(phase_start) < args.seconds || passes <= cycle ||
           wall_plain.empty() || (args.trace && wall_traced.empty()));
  spans.set_enabled(args.trace);
  if (passes % cycle != 0) check_digest();  // the passes a partial cycle re-ran

  const perfbench::Verification verification = workload->Verify(spans);
  std::vector<Metric> layer;
  bool roundtrip_equal = true;
  if (args.trace) {
    layer = workload->LayerMetrics(spans, wall_traced.size());
    for (Metric& m : perfbench::ProbeSubstrate(spans)) layer.push_back(std::move(m));
    layer.push_back(perfbench::ProbeGrRoundTrip(
        workload->FirstGraph(), args.work_dir + "/perfbench-roundtrip.gr", spans,
        &roundtrip_equal));
    layer.push_back({"graph.generate_ms",
                     spans.SelfMs("graph.generate") / static_cast<double>(setup_s.size()),
                     "ms"});
    layer.push_back({"cpu.verify_ms", spans.SelfMs("cpu.verify"), "ms"});
    layer.push_back({"trace.overhead_frac", Median(wall_traced) / Median(wall_plain) - 1, "frac"});
  }

  const uint64_t attempted = workload->OpsPerPass() * passes;
  // Verification covers one cycle; every other cycle replays it exactly.
  const uint64_t failed =
      ((verification.mismatched + verification.refused) * passes + cycle - 1) / cycle +
      nondeterministic_ops;
  const bool correct =
      verification.mismatched == 0 && nondeterministic_ops == 0 && roundtrip_equal;

  std::string digest_text;
  for (const std::string& line : first_digest) digest_text += line + "\n";
  if (!args.digest_out.empty() && !WriteFile(args.digest_out, digest_text)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.digest_out.c_str());
  }
  if (!args.inputs_out.empty() && !WriteFile(args.inputs_out, inputs)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.inputs_out.c_str());
  }
  if (args.trace && !args.trace_out.empty() &&
      !WriteFile(args.trace_out, spans.ChromeTraceJson())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    layer.push_back({"failed_frac",
                     static_cast<double>(failed) / static_cast<double>(attempted), "frac"});
    metrics = Complete(kPerLayer, layer);
  } else {
    std::vector<Metric> e2e = {
        {"wall_s", Median(wall_plain), "s"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    for (Metric& m : workload->SimMetrics()) e2e.push_back(std::move(m));
    metrics = Complete(kEndToEnd, e2e);
  }

  std::printf("%s", workload->RenderedReport().c_str());
  std::printf("workload %s seed %" PRIu64 " trace %d: %" PRIu64 " passes, %" PRIu64
              " ops checked, %" PRIu64 " mismatched, %" PRIu64 " refused, %" PRIu64
              " nondeterministic\n",
              args.workload.c_str(), args.seed, args.trace ? 1 : 0, passes, verification.checked,
              verification.mismatched, verification.refused, nondeterministic_ops);
  std::printf("pass seconds: warm-up %.3f, untraced", warmup_s);
  for (double w : wall_plain) std::printf(" %.3f", w);
  if (args.trace) {
    std::printf(", traced");
    for (double w : wall_traced) std::printf(" %.3f", w);
  }
  std::printf("\n");
  std::printf("inputs %016" PRIx64 "\n", Fnv1a(inputs));
  std::printf("digest %016" PRIx64 "\n", Fnv1a(digest_text));
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}
