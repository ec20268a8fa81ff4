// Per-layer metrics of the traced run: the span names recorded around each
// layer, and the arithmetic that turns span totals and layer counters into
// the per_layer metrics of BENCHMARK.json. Pure, so the self-tests can check
// the base of every ratio.
#ifndef SURVEYBENCH_LAYERS_H_
#define SURVEYBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "surveybench/bench_math.h"

namespace surveybench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Survey span tree: site > deploy, coordinator.run > testbed.*, with
// journal.append a sibling of coordinator.run.
enum SurveySpan : uint16_t {
  kSite,
  kDeploy,
  kCoordinatorRun,
  kProbe,
  kRtt,
  kFetch,
  kCrowd,
  kWait,
  kJournalAppend,
  kSurveySpanCount
};
inline const std::vector<std::string>& SurveySpanNames() {
  static const std::vector<std::string> names = {
      "site",          "deploy",        "coordinator.run", "testbed.probe", "testbed.rtt",
      "testbed.fetch", "testbed.crowd", "testbed.wait",    "journal.append"};
  return names;
}

// Control-plane span tree: site (one profile) > round > session.send |
// loop.pump, with replies sent from delivery handlers nesting under the pump.
enum RtSpan : uint16_t { kRtSite, kRound, kSend, kPump, kRtSpanCount };
inline const std::vector<std::string>& RtSpanNames() {
  static const std::vector<std::string> names = {"site", "round", "session.send",
                                                 "loop.pump"};
  return names;
}

// Every per-layer metric with its unit, in BENCHMARK.json order. A traced
// run reports all of them; a layer the workload does not run reads 0.
inline std::vector<Metric> EmptyLayerMetrics() {
  static const std::pair<const char*, const char*> kTable[] = {
      {"core.survey.site_ms_p50", "ms"},
      {"core.survey.site_ms_tail", "ms"},
      {"core.survey.site_ms_tail_pct", "pct"},
      {"core.survey.sites_traced", "count"},
      {"core.experiment_runner.deploy_ms_per_site", "ms"},
      {"core.coordinator.self_s", "s"},
      {"core.coordinator.self_share", "ratio"},
      {"core.coordinator.crowds", "1/site"},
      {"core.sim_testbed.crowd_s", "s"},
      {"core.sim_testbed.fetch_s", "s"},
      {"core.sim_testbed.probe_s", "s"},
      {"core.sim_testbed.wait_s", "s"},
      {"core.sim_testbed.us_per_probe_request", "us"},
      {"sim.events", "1/site"},
      {"sim.ns_per_event", "ns"},
      {"net.reallocs", "1/site"},
      {"net.full_reallocs", "1/site"},
      {"net.flows_touched", "1/site"},
      {"net.links_touched", "1/site"},
      {"net.flows_per_realloc", "ratio"},
      {"net.reallocs_per_request", "ratio"},
      {"net.no_progress", "count"},
      {"server.requests", "1/site"},
      {"server.background_requests", "1/site"},
      {"server.rejected_503", "1/site"},
      {"core.journal.append_ms_per_site", "ms"},
      {"core.journal.bytes_per_site", "B"},
      {"core.journal.records", "count"},
      {"rt.session.send_s", "s"},
      {"rt.session.pump_s", "s"},
      {"rt.session.retransmits", "count"},
      {"rt.session.duplicates", "count"},
      {"rt.session.gave_up", "count"},
      {"rt.session.useful_frac", "ratio"},
      {"rt.transport.datagrams", "count"},
      {"rt.transport.bytes_per_msg", "B"},
      {"rt.wire.encode_ns", "ns"},
      {"rt.wire.decode_ns", "ns"},
      {"trace_overhead_frac", "ratio"},
  };
  std::vector<Metric> metrics;
  for (auto [name, unit] : kTable) {
    metrics.push_back({name, 0.0, unit});
  }
  return metrics;
}

// Sets |name| in |metrics|; returns false for a name not in the table.
inline bool SetMetric(std::vector<Metric>& metrics, const std::string& name, double value) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      return true;
    }
  }
  return false;
}

// 1 - traced rate / untraced rate for the same work: the share of
// throughput that tracing costs.
inline double TraceOverhead(double untraced_s, double traced_s) {
  return 1.0 - Ratio(untraced_s, traced_s);
}

// What one traced survey pass measured.
struct SurveyLayerInputs {
  SpanTotals totals;            // indexed by SurveySpan
  std::vector<double> site_ms;  // host ms of each traced site
  uint64_t events = 0;          // EventLoop::ExecutedCount, summed
  uint64_t reallocs = 0;        // FlowNetworkStats, summed
  uint64_t full_reallocs = 0;
  uint64_t flows_touched = 0;
  uint64_t links_touched = 0;
  uint64_t no_progress = 0;
  uint64_t mfc_requests = 0;         // access-log entries with is_mfc
  uint64_t background_requests = 0;  // Deployment::BackgroundRequests
  uint64_t rejected_503 = 0;
  uint64_t crowds = 0;               // ExecuteCrowd calls
  bool journal = false;
  uint64_t journal_bytes = 0;  // journal file size after the pass
  double untraced_s = 0.0;     // host time of the same sites, untraced
  double traced_s = 0.0;
};

// Bases: per-site counts divide by the traced site count; self_share by
// coordinator.run inclusive time; us_per_probe_request by MFC requests;
// ns_per_event by events; flows_per_realloc by reallocations;
// reallocs_per_request by all requests served (MFC + background);
// bytes_per_site by journal records. Testbed time is the inclusive time of
// the five testbed.* spans.
inline std::vector<Metric> SurveyLayerMetrics(const SurveyLayerInputs& in) {
  std::vector<Metric> m = EmptyLayerMetrics();
  const double n = static_cast<double>(in.site_ms.size());
  auto incl = [&](SurveySpan s) { return static_cast<double>(in.totals.inclusive_ns[s]) * 1e-9; };
  auto self = [&](SurveySpan s) { return static_cast<double>(in.totals.self_ns[s]) * 1e-9; };
  auto per_site = [&](uint64_t count) { return Ratio(static_cast<double>(count), n); };
  const double testbed_s = incl(kProbe) + incl(kRtt) + incl(kFetch) + incl(kCrowd) + incl(kWait);
  const Tail tail = TailPercentile(in.site_ms);

  SetMetric(m, "core.survey.site_ms_p50", Median(in.site_ms));
  SetMetric(m, "core.survey.site_ms_tail", tail.value);
  SetMetric(m, "core.survey.site_ms_tail_pct", tail.percentile);
  SetMetric(m, "core.survey.sites_traced", n);
  SetMetric(m, "core.experiment_runner.deploy_ms_per_site", Ratio(incl(kDeploy) * 1e3, n));
  SetMetric(m, "core.coordinator.self_s", self(kCoordinatorRun));
  SetMetric(m, "core.coordinator.self_share", Ratio(self(kCoordinatorRun), incl(kCoordinatorRun)));
  SetMetric(m, "core.coordinator.crowds", per_site(in.crowds));
  SetMetric(m, "core.sim_testbed.crowd_s", incl(kCrowd));
  SetMetric(m, "core.sim_testbed.fetch_s", incl(kFetch));
  SetMetric(m, "core.sim_testbed.probe_s", incl(kProbe) + incl(kRtt));
  SetMetric(m, "core.sim_testbed.wait_s", incl(kWait));
  SetMetric(m, "core.sim_testbed.us_per_probe_request",
            Ratio(testbed_s * 1e6, static_cast<double>(in.mfc_requests)));
  SetMetric(m, "sim.events", per_site(in.events));
  SetMetric(m, "sim.ns_per_event", Ratio(testbed_s * 1e9, static_cast<double>(in.events)));
  SetMetric(m, "net.reallocs", per_site(in.reallocs));
  SetMetric(m, "net.full_reallocs", per_site(in.full_reallocs));
  SetMetric(m, "net.flows_touched", per_site(in.flows_touched));
  SetMetric(m, "net.links_touched", per_site(in.links_touched));
  SetMetric(m, "net.flows_per_realloc", Ratio(static_cast<double>(in.flows_touched),
                                              static_cast<double>(in.reallocs)));
  SetMetric(m, "net.reallocs_per_request",
            Ratio(static_cast<double>(in.reallocs),
                  static_cast<double>(in.mfc_requests + in.background_requests)));
  SetMetric(m, "net.no_progress", static_cast<double>(in.no_progress));
  SetMetric(m, "server.requests", per_site(in.mfc_requests));
  SetMetric(m, "server.background_requests", per_site(in.background_requests));
  SetMetric(m, "server.rejected_503", per_site(in.rejected_503));
  if (in.journal) {
    const double records = static_cast<double>(in.totals.count[kJournalAppend]);
    SetMetric(m, "core.journal.append_ms_per_site", Ratio(incl(kJournalAppend) * 1e3, n));
    SetMetric(m, "core.journal.bytes_per_site",
              Ratio(static_cast<double>(in.journal_bytes), records));
    SetMetric(m, "core.journal.records", records);
  }
  SetMetric(m, "trace_overhead_frac", TraceOverhead(in.untraced_s, in.traced_s));
  return m;
}

// What one traced control-plane pass measured.
struct RtLayerInputs {
  SpanTotals totals;  // indexed by RtSpan
  uint64_t frames_sent = 0;  // SessionStats, summed over sessions
  uint64_t retransmits = 0;
  uint64_t delivered = 0;
  uint64_t duplicates = 0;
  uint64_t gave_up = 0;
  uint64_t datagrams = 0;  // counted by the transport decorator
  uint64_t bytes = 0;
  double encode_ns = 0.0;  // per frame
  double decode_ns = 0.0;
  double untraced_s = 0.0;
  double traced_s = 0.0;
};

// Bases: useful_frac is delivered / (first transmissions + retransmits);
// bytes_per_msg is datagram bytes / delivered messages. send_s is inclusive
// time in SendReliable; pump_s is the event loop's self time, excluding the
// sends that delivery handlers make inside it.
inline std::vector<Metric> RtLayerMetrics(const RtLayerInputs& in) {
  std::vector<Metric> m = EmptyLayerMetrics();
  SetMetric(m, "rt.session.send_s", static_cast<double>(in.totals.inclusive_ns[kSend]) * 1e-9);
  SetMetric(m, "rt.session.pump_s", static_cast<double>(in.totals.self_ns[kPump]) * 1e-9);
  SetMetric(m, "rt.session.retransmits", static_cast<double>(in.retransmits));
  SetMetric(m, "rt.session.duplicates", static_cast<double>(in.duplicates));
  SetMetric(m, "rt.session.gave_up", static_cast<double>(in.gave_up));
  SetMetric(m, "rt.session.useful_frac",
            Ratio(static_cast<double>(in.delivered),
                  static_cast<double>(in.frames_sent + in.retransmits)));
  SetMetric(m, "rt.transport.datagrams", static_cast<double>(in.datagrams));
  SetMetric(m, "rt.transport.bytes_per_msg",
            Ratio(static_cast<double>(in.bytes), static_cast<double>(in.delivered)));
  SetMetric(m, "rt.wire.encode_ns", in.encode_ns);
  SetMetric(m, "rt.wire.decode_ns", in.decode_ns);
  SetMetric(m, "trace_overhead_frac", TraceOverhead(in.untraced_s, in.traced_s));
  return m;
}

}  // namespace surveybench

#endif  // SURVEYBENCH_LAYERS_H_
