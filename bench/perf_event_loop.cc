// Perf microbench for the EventLoop slot-vector hot path: schedule/run
// churn, O(1) cancellation, and same-instant FIFO storms, plus the
// processor-sharing CPU queue that runs on it. Emits BENCH_event_loop.json
// so later changes can see scheduler regressions.
//
//   perf_event_loop [--repeats=N] [--scale=X] [--out=PATH]
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "bench/perf_util.h"
#include "src/server/resources.h"
#include "src/sim/event_loop.h"

namespace {

// Schedule/run churn: a self-rescheduling cascade of timers, the shape the
// simulated testbed produces (every request schedules its own next step).
uint64_t RunChurn(size_t n_chains, size_t steps) {
  mfc::EventLoop loop;
  struct Chain {
    double period;
    size_t left;
    std::function<void()> step;  // stable address: rescheduled by reference
  };
  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(n_chains);
  for (size_t c = 0; c < n_chains; ++c) {
    auto chain = std::make_unique<Chain>();
    // Stagger chains so the heap stays mixed rather than draining in bands.
    chain->period = 1e-3 * static_cast<double>(c % 97 + 1);
    chain->left = steps;
    Chain* p = chain.get();
    chain->step = [&loop, p] {
      if (p->left-- > 1) {
        loop.ScheduleAfter(p->period, p->step);
      }
    };
    loop.ScheduleAfter(p->period, p->step);
    chains.push_back(std::move(chain));
  }
  loop.RunUntilIdle();
  return loop.ExecutedCount();
}

// Cancel-heavy: schedule then cancel most events before they run — the
// testbed's kill-timer pattern (every download arms a timeout it usually
// cancels).
uint64_t RunCancelStorm(size_t n) {
  mfc::EventLoop loop;
  std::vector<mfc::EventId> ids;
  ids.reserve(n);
  uint64_t cancelled = 0;
  for (size_t round = 0; round < 8; ++round) {
    ids.clear();
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(loop.ScheduleAfter(1.0 + 1e-6 * static_cast<double>(i), [] {}));
    }
    // Cancel 7 of every 8; survivors run below.
    for (size_t i = 0; i < n; ++i) {
      if (i % 8 != 0 && loop.Cancel(ids[i])) {
        ++cancelled;
      }
    }
    loop.RunUntilIdle();
  }
  return loop.ExecutedCount() + cancelled;
}

// Same-instant FIFO storm: many events at one timestamp exercise the seq
// tie-breaker and the stale-entry skip path.
uint64_t RunSameInstant(size_t n) {
  mfc::EventLoop loop;
  for (size_t round = 0; round < 16; ++round) {
    double t = static_cast<double>(round + 1);
    for (size_t i = 0; i < n; ++i) {
      loop.ScheduleAt(t, [] {});
    }
    loop.RunUntil(t);
  }
  return loop.ExecutedCount();
}

// Processor-sharing churn: bursts of jobs with mixed demands on a 4-core PS
// CPU, the server-resource layer's shape (every arrival and completion
// re-divides the cores among the active jobs). items = jobs completed.
uint64_t RunPsChurn(size_t rounds, size_t jobs) {
  uint64_t completed = 0;
  for (size_t round = 0; round < rounds; ++round) {
    mfc::EventLoop loop;
    mfc::CpuResource cpu(loop, 4);
    for (size_t i = 0; i < jobs; ++i) {
      cpu.Submit(1e-3 * static_cast<double>(1 + i % 7), [&completed] { ++completed; });
    }
    loop.RunUntilIdle();
  }
  return completed;
}

template <typename Fn>
mfc::PerfScenario Measure(const char* name, size_t repeats, Fn fn) {
  mfc::PerfScenario s;
  s.name = name;
  for (size_t r = 0; r < repeats; ++r) {
    mfc::PerfTimer timer;
    uint64_t items = fn();
    s.wall_seconds.push_back(timer.Seconds());
    assert(r == 0 || items == s.items);
    s.items = items;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  mfc::PerfArgs args = mfc::ParsePerfArgs(argc, argv, "BENCH_event_loop.json");
  if (!args.ok) {
    return 2;
  }
  auto scaled = [&args](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * args.scale));
  };
  mfc::PerfReport report("event_loop", 1);
  report.Add(Measure("churn_chains", args.repeats,
                     [&] { return RunChurn(scaled(512), scaled(400)); }));
  report.Add(Measure("cancel_storm", args.repeats,
                     [&] { return RunCancelStorm(scaled(20000)); }));
  report.Add(Measure("same_instant", args.repeats,
                     [&] { return RunSameInstant(scaled(10000)); }));
  mfc::PerfScenario ps = Measure("ps_churn", args.repeats,
                                 [&] { return RunPsChurn(scaled(2000), 128); });
  ps.items_unit = "ops";
  report.Add(std::move(ps));
  return report.Finish(args.out_path);
}
