// Self-tests of the benchmark's arithmetic (survey_bench --self-test): the
// tail-percentile rule, the sentinel correction, span self time with nested,
// back-to-back and overlapping children, the base of every per-layer ratio,
// and failure counting.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "surveybench/bench_math.h"
#include "surveybench/layers.h"

namespace surveybench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " + std::to_string(want));
}

double Get(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& metric : metrics) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  Expect(false, "missing metric " + name);
  return NAN;
}

Span At(uint32_t parent, uint16_t name, int64_t start, int64_t end) {
  return Span{parent, 1, name, start, end};
}

void TestTail() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  Tail tail = TailPercentile(v);
  Expect(tail.valid, "100 samples have a tail");
  ExpectNear(tail.percentile, 90.0, "tail percentile of 100 samples");
  ExpectNear(tail.value, 90.0, "tail value of 1..100");
  size_t beyond = 0;
  for (double x : v) {
    beyond += x > tail.value ? 1 : 0;
  }
  Expect(beyond == 10, "exactly ten samples beyond the tail of 1..100");

  // Order does not matter and every later percentile would leave < 10 beyond.
  std::vector<double> shuffled = {5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 20, 15, 13, 12, 14, 19,
                                  18, 17, 16};
  tail = TailPercentile(shuffled);
  ExpectNear(tail.percentile, 50.0, "tail percentile of 20 samples");
  ExpectNear(tail.value, 10.0, "tail value of 20 samples");
  Expect(!TailPercentile(std::vector<double>(10, 1.0)).valid, "10 samples have no tail");
  Expect(TailPercentile(std::vector<double>(11, 1.0)).valid, "11 samples have a tail");
  ExpectNear(TailPercentile(std::vector<double>(11, 1.0)).percentile, 100.0 / 11.0,
             "11 samples: the tail is the lowest sample");

  ExpectNear(Median({3, 1, 2}), 2.0, "odd median");
  ExpectNear(Median({4, 1, 3, 2}), 2.5, "even median");
}

void TestCorrectedTime() {
  // A steady host at the reference speed leaves chunk times alone.
  const double ref = 0.02;
  const std::vector<double> at_ref = {ref};
  SentinelLog log{{1.0, 2.0}, {0.1, 0.1}, {0.1, 0.1}, {0.1, 0.1, 0.1}, at_ref, {}};
  ExpectNear(CorrectedTime(log, ref), 3.0, "steady sentinels");
  // A chunk whose CPU ran the sentinel at twice the floor counts half; one
  // with a slow sentinel on one side only counts two thirds.
  log = {{1.0, 1.0, 1.0}, {0.1, 0.2, 0.2}, {0.1, 0.2, 0.1}, std::vector<double>(11, 0.1), at_ref,
         {}};
  ExpectNear(CorrectedTime(log, ref), 1.0 + 0.5 + 0.1 / 0.15, "slow CPU scaled to the floor");
  // The floor is the 10th-percentile best sentinel, so one lucky probe does
  // not set it: with eleven probes it is the second fastest.
  log = {{1.0}, {0.1}, {0.1}, std::vector<double>(11, 0.1), at_ref, {}};
  log.best[3] = 0.05;
  ExpectNear(CorrectedTime(log, ref), 1.0, "floor ignores a single fast outlier");
  log.best[4] = 0.05;
  ExpectNear(CorrectedTime(log, ref), 0.5, "two fast probes in eleven set the floor");
  ExpectNear(SentinelFloor(log), 0.05, "floor of eleven probes");
  ExpectNear(SentinelFloor(SentinelLog{}), 0.0, "no probes, no floor");
  ExpectNear(CorrectedTime({{1.0}, {}, {0.1}, {0.1}, at_ref, {}}, ref), 0.0,
             "a chunk needs both sentinels");

  // A run whose kernel floor is 1.5x the reference went at two thirds of the
  // reference speed throughout, so its time shrinks by that factor; one
  // lucky kernel probe in eleven does not move the floor.
  log = {{3.0}, {0.1}, {0.1}, {0.1}, std::vector<double>(11, 1.5 * ref), {}};
  log.kernel[7] = 0.5 * ref;
  ExpectNear(CorrectedTime(log, ref), 2.0, "whole-run slowness scaled to the reference");
  log.kernel.clear();
  ExpectNear(CorrectedTime(log, ref), 0.0, "a run needs kernel probes");

  // Set-up samples are scaled like their chunks, then the median is taken.
  log = {{1.0, 1.0, 1.0}, {0.1, 0.2, 0.1}, {0.1, 0.2, 0.1}, std::vector<double>(3, 0.1),
         {2.0 * ref}, {0.008, 0.008, 0.002}};
  ExpectNear(CorrectedSetup(log, ref), 0.002, "set-up scaled by CPU and run before the median");
  log.setup.pop_back();
  ExpectNear(CorrectedSetup(log, ref), 0.0, "every chunk needs a set-up sample");
}

void TestSelfTime() {
  // Parent [0, 100) with back-to-back children [10, 30) and [30, 50), one of
  // which has a grandchild [12, 20).
  std::vector<Span> spans = {At(0, 0, 0, 100), At(1, 1, 10, 30), At(1, 1, 30, 50),
                             At(2, 2, 12, 20)};
  SpanTotals totals = TotalSpans(spans, 3);
  ExpectNear(static_cast<double>(totals.inclusive_ns[0]), 100, "root inclusive");
  ExpectNear(static_cast<double>(totals.self_ns[0]), 60, "root self minus back-to-back kids");
  ExpectNear(static_cast<double>(totals.inclusive_ns[1]), 40, "children inclusive");
  ExpectNear(static_cast<double>(totals.self_ns[1]), 32, "child self minus its grandchild");
  ExpectNear(static_cast<double>(totals.self_ns[2]), 8, "leaf self = inclusive");
  Expect(totals.count[1] == 2, "two child spans counted");

  // Overlapping children count once; a child running past its parent is
  // clipped to the parent.
  spans = {At(0, 0, 0, 100), At(1, 1, 10, 40), At(1, 1, 30, 60), At(1, 1, 90, 120)};
  totals = TotalSpans(spans, 2);
  ExpectNear(static_cast<double>(totals.self_ns[0]), 100 - 50 - 10,
             "root self with overlapping and overhanging children");

  // The recorder nests a span under whatever is open.
  SpanRecorder recorder({"a", "b"});
  uint32_t outer = recorder.Begin(0, 7);
  { Scope inner(&recorder, 1, 7); }
  recorder.End(outer);
  Expect(recorder.Spans().size() == 2 && recorder.Spans()[1].parent == outer,
         "recorder parents the inner span");
  Expect(recorder.Spans()[0].parent == 0, "recorder root has no parent");
  Scope free_scope(nullptr, 0, 0);  // null recorder: no-op
}

void TestSurveyRatios() {
  SurveyLayerInputs in;
  in.totals.inclusive_ns.assign(kSurveySpanCount, 0);
  in.totals.self_ns.assign(kSurveySpanCount, 0);
  in.totals.count.assign(kSurveySpanCount, 0);
  in.site_ms = {10, 20, 30, 40};  // four sites
  in.totals.inclusive_ns[kDeploy] = 8'000'000;  // 8 ms over 4 sites
  in.totals.inclusive_ns[kCoordinatorRun] = 4'000'000'000;
  in.totals.self_ns[kCoordinatorRun] = 1'000'000'000;
  in.totals.inclusive_ns[kProbe] = 100'000'000;
  in.totals.inclusive_ns[kRtt] = 100'000'000;
  in.totals.inclusive_ns[kFetch] = 200'000'000;
  in.totals.inclusive_ns[kCrowd] = 2'000'000'000;
  in.totals.inclusive_ns[kWait] = 600'000'000;  // testbed total 3 s
  in.totals.inclusive_ns[kJournalAppend] = 20'000'000;
  in.totals.count[kJournalAppend] = 4;
  in.events = 3'000'000;
  in.reallocs = 1000;
  in.full_reallocs = 10;
  in.flows_touched = 37000;
  in.links_touched = 400;
  in.mfc_requests = 1500;
  in.background_requests = 500;
  in.rejected_503 = 8;
  in.crowds = 60;
  in.journal = true;
  in.journal_bytes = 140000;
  in.untraced_s = 9.0;
  in.traced_s = 10.0;
  std::vector<Metric> m = SurveyLayerMetrics(in);
  Expect(m.size() == EmptyLayerMetrics().size(), "every per-layer metric reported");
  ExpectNear(Get(m, "core.survey.sites_traced"), 4, "site count");
  ExpectNear(Get(m, "core.survey.site_ms_p50"), 25, "site p50");
  ExpectNear(Get(m, "core.experiment_runner.deploy_ms_per_site"), 2, "deploy ms per site");
  ExpectNear(Get(m, "core.coordinator.self_s"), 1, "coordinator self");
  ExpectNear(Get(m, "core.coordinator.self_share"), 0.25, "self share of coordinator.run");
  ExpectNear(Get(m, "core.coordinator.crowds"), 15, "crowds per site");
  ExpectNear(Get(m, "core.sim_testbed.probe_s"), 0.2, "probe covers probe + rtt");
  ExpectNear(Get(m, "core.sim_testbed.us_per_probe_request"), 2000,
             "testbed us per MFC request");
  ExpectNear(Get(m, "sim.events"), 750000, "events per site");
  ExpectNear(Get(m, "sim.ns_per_event"), 1000, "testbed ns per event");
  ExpectNear(Get(m, "net.flows_per_realloc"), 37, "flows per reallocation");
  ExpectNear(Get(m, "net.reallocs_per_request"), 0.5, "reallocations per served request");
  ExpectNear(Get(m, "server.requests"), 375, "MFC requests per site");
  ExpectNear(Get(m, "server.background_requests"), 125, "background requests per site");
  ExpectNear(Get(m, "server.rejected_503"), 2, "503s per site");
  ExpectNear(Get(m, "core.journal.append_ms_per_site"), 5, "journal append per site");
  ExpectNear(Get(m, "core.journal.bytes_per_site"), 35000, "journal bytes per record");
  ExpectNear(Get(m, "core.journal.records"), 4, "journal records");
  ExpectNear(Get(m, "trace_overhead_frac"), 0.1, "1 - traced rate / untraced rate");
  ExpectNear(Get(m, "rt.session.send_s"), 0, "rt metrics stay 0 on a survey");

  in.journal = false;
  m = SurveyLayerMetrics(in);
  ExpectNear(Get(m, "core.journal.records"), 0, "no journal, no journal metrics");
  SurveyLayerInputs empty;
  empty.totals = TotalSpans({}, kSurveySpanCount);
  m = SurveyLayerMetrics(empty);
  ExpectNear(Get(m, "net.flows_per_realloc"), 0, "zero base reads 0");
}

void TestRtRatios() {
  RtLayerInputs in;
  in.totals = TotalSpans({At(0, kPump, 0, 100), At(1, kSend, 10, 30)}, kRtSpanCount);
  in.frames_sent = 900;
  in.retransmits = 100;
  in.delivered = 950;
  in.datagrams = 2000;
  in.bytes = 95000;
  in.untraced_s = 3.0;
  in.traced_s = 4.0;
  std::vector<Metric> m = RtLayerMetrics(in);
  ExpectNear(Get(m, "rt.session.useful_frac"), 0.95, "delivered / (sent + retransmits)");
  ExpectNear(Get(m, "rt.transport.bytes_per_msg"), 100, "bytes per delivered message");
  ExpectNear(Get(m, "rt.session.send_s"), 20e-9, "send inclusive");
  ExpectNear(Get(m, "rt.session.pump_s"), 80e-9, "pump self excludes nested sends");
  ExpectNear(Get(m, "trace_overhead_frac"), 0.25, "rt trace overhead");
  ExpectNear(Get(m, "sim.events"), 0, "survey metrics stay 0 on the control plane");
}

void TestFailures() {
  SurveyOutcomes outcomes;
  outcomes.attempted = 200;
  outcomes.aborted = 2;
  outcomes.stageless = 8;
  ExpectNear(outcomes.FailedFrac(), 0.05, "failed_frac counts aborted + stage-less");
  ExpectNear(outcomes.CompletedFrac(), 0.95, "completed_frac is its complement");
  ExpectNear(SurveyOutcomes{}.FailedFrac(), 0, "no attempts, no failures");
  ExpectNear(Ratio(1, 0), 0, "ratio over a zero base");
  Expect(Fnv1a("a") != Fnv1a("b") && Fnv1a("ab") == Fnv1a("b", Fnv1a("a")),
         "digest chains in order");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestTail();
  TestCorrectedTime();
  TestSelfTime();
  TestSurveyRatios();
  TestRtRatios();
  TestFailures();
  return failures;
}

}  // namespace surveybench
