// Randomized differential test: the incremental component-restricted
// allocator vs a forced full-recompute oracle (set_force_full_reallocate),
// driven through identical seeded workloads of flow arrivals, aborts, and
// natural completions over multi-bottleneck topologies.
//
// On a connected topology every incremental pass covers the whole graph, so
// the arithmetic is the historical full pass move for move and the results
// must match to the bit. On a disconnected topology the incremental
// allocator legitimately advances untouched components lazily, which regroups
// floating-point sums; there the completion order must still match exactly
// and times/rates to a tight relative tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/flow_network.h"
#include "src/sim/rng.h"

namespace mfc {
namespace {

struct Completion {
  int ordinal = 0;      // arrival index
  SimTime when = 0.0;
};

// One side of the comparison: a loop, a network, and the driver state that
// replays a scripted workload against it.
struct Side {
  EventLoop loop;
  FlowNetwork net{loop};
  std::vector<FlowId> ids;  // by arrival ordinal; live or stale
  std::vector<Completion> completions;
};

struct Op {
  SimTime at = 0.0;
  bool is_abort = false;
  // Arrival fields.
  std::vector<LinkId> path;
  double bytes = 0.0;
  double rtt = 0.0;
  bool slow_start = true;
  // Abort field: arrival ordinal to abort (may already be complete — the
  // generation-checked id makes that a no-op, which is part of the test).
  int target = 0;
};

// Builds the same link set on both sides. |disjoint| splits the clients
// across two servers with no shared link (two components); otherwise all
// paths share one server access link, optionally through one of several pop
// bottlenecks (multi-bottleneck, still connected).
struct Topology {
  std::vector<double> capacities;
  // path = {server(component), pop (maybe), client}
  std::vector<LinkId> PathFor(Rng& rng, int client, bool disjoint) const {
    std::vector<LinkId> path;
    if (disjoint) {
      path.push_back(client < kClients / 2 ? 0 : 1);
    } else {
      path.push_back(0);
      if (rng.Chance(0.5)) {
        path.push_back(2 + rng.NextBelow(kPops));
      }
    }
    path.push_back(kFixed + static_cast<LinkId>(client));
    return path;
  }
  static constexpr int kClients = 24;
  static constexpr LinkId kPops = 3;
  static constexpr LinkId kFixed = 2 + kPops;  // servers + pops
};

std::vector<Op> MakeScript(uint64_t seed, size_t arrivals, bool disjoint) {
  Rng rng(seed);
  Topology topo;
  std::vector<Op> ops;
  SimTime t = 0.0;
  int started = 0;
  while (ops.size() < arrivals) {
    t += rng.Uniform(0.0005, 0.02);
    Op op;
    op.at = t;
    if (started > 4 && rng.Chance(0.15)) {
      op.is_abort = true;
      op.target = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(started)));
    } else {
      op.path = topo.PathFor(rng, static_cast<int>(rng.NextBelow(Topology::kClients)),
                             disjoint);
      op.bytes = rng.Uniform(2e3, 4e5);
      op.rtt = rng.Uniform(0.01, 0.25);
      op.slow_start = rng.Chance(0.8);
      ++started;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// Link capacities of the multi-bottleneck topology, indexed as Topology lays
// them out.
std::vector<double> TopologyCapacities() {
  std::vector<double> capacities;
  capacities.push_back(2.5e5);  // server A access
  capacities.push_back(2.0e5);  // server B access (only used by the disjoint script)
  for (LinkId p = 0; p < Topology::kPops; ++p) {
    capacities.push_back(1.2e5 + 3e4 * static_cast<double>(p));  // pop bottlenecks
  }
  for (int c = 0; c < Topology::kClients; ++c) {
    capacities.push_back(6e4 + 1e4 * static_cast<double>(c % 5));  // client access
  }
  return capacities;
}

// Replays |ops| over links of |capacities| against |side|, recording
// completions as (ordinal, time).
void Run(Side& side, const std::vector<double>& capacities, const std::vector<Op>& ops) {
  for (double capacity : capacities) {
    side.net.AddLink(capacity);
  }
  int ordinal = 0;
  for (const Op& op : ops) {
    if (op.is_abort) {
      int target = op.target;
      side.loop.ScheduleAt(op.at, [&side, target] {
        side.net.AbortFlow(side.ids[static_cast<size_t>(target)]);
      });
      continue;
    }
    int mine = ordinal++;
    // Capture by value: the script outlives the lambda, but keep it simple.
    std::vector<LinkId> path = op.path;
    double bytes = op.bytes;
    double rtt = op.rtt;
    TcpParams tcp;
    tcp.slow_start = op.slow_start;
    side.loop.ScheduleAt(op.at, [&side, mine, path, bytes, rtt, tcp] {
      if (side.ids.size() <= static_cast<size_t>(mine)) {
        side.ids.resize(static_cast<size_t>(mine) + 1, 0);
      }
      side.ids[static_cast<size_t>(mine)] =
          side.net.StartFlow(path, bytes, rtt, tcp, [&side, mine] {
            side.completions.push_back({mine, side.loop.Now()});
          });
    });
  }
  side.loop.RunUntilIdle();
}

// Runs |ops| through an incremental network and a forced-full oracle and
// checks they agree (to the bit when |exact|). |stats| receives the
// incremental side's counters.
void CompareRuns(const std::vector<double>& capacities, const std::vector<Op>& ops, bool exact,
                 FlowNetworkStats* stats) {
  Side incremental;
  Side oracle;
  oracle.net.set_force_full_reallocate(true);
  Run(incremental, capacities, ops);
  Run(oracle, capacities, ops);
  *stats = incremental.net.Stats();

  ASSERT_EQ(incremental.completions.size(), oracle.completions.size());
  for (size_t i = 0; i < incremental.completions.size(); ++i) {
    ASSERT_EQ(incremental.completions[i].ordinal, oracle.completions[i].ordinal)
        << "completion order diverged at index " << i;
    double a = incremental.completions[i].when;
    double b = oracle.completions[i].when;
    if (exact) {
      ASSERT_EQ(a, b) << "completion time diverged for ordinal "
                      << incremental.completions[i].ordinal;
    } else {
      ASSERT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b)))
          << "completion time diverged for ordinal "
          << incremental.completions[i].ordinal;
    }
  }
  if (exact) {
    ASSERT_EQ(incremental.loop.Now(), oracle.loop.Now());
  } else {
    ASSERT_NEAR(incremental.loop.Now(), oracle.loop.Now(),
                1e-9 * std::max(1.0, oracle.loop.Now()));
  }

  // Every flow either completed or was aborted: rates must agree trivially,
  // and per-link cumulative byte counts must agree as a whole-run integral
  // of the allocation history.
  for (LinkId l = 0; l < capacities.size(); ++l) {
    double a = incremental.net.LinkCumulativeBytes(l);
    double b = oracle.net.LinkCumulativeBytes(l);
    if (exact) {
      EXPECT_EQ(a, b) << "cumulative bytes diverged on link " << l;
    } else {
      EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, std::abs(b)))
          << "cumulative bytes diverged on link " << l;
    }
  }
  EXPECT_EQ(incremental.net.ActiveFlowCount(), 0u);
  EXPECT_EQ(oracle.net.ActiveFlowCount(), 0u);

  // Same event sequence on both sides, and the incremental side never does
  // more component work than the oracle's full graph.
  const FlowNetworkStats& si = incremental.net.Stats();
  const FlowNetworkStats& so = oracle.net.Stats();
  EXPECT_EQ(si.reallocs, so.reallocs);
  EXPECT_LE(si.flows_touched, so.flows_touched);
  EXPECT_EQ(si.no_progress, 0u);
  EXPECT_EQ(so.no_progress, 0u);
  // The oracle never takes a fast path.
  EXPECT_EQ(so.capped_passes, 0u);
  EXPECT_EQ(so.spanning_collects, 0u);
}

void Compare(uint64_t seed, size_t arrivals, bool disjoint, bool exact) {
  FlowNetworkStats stats;
  CompareRuns(TopologyCapacities(), MakeScript(seed, arrivals, disjoint), exact, &stats);
}

// Connected multi-bottleneck graph: every incremental pass covers the whole
// component, so the allocator must reproduce the oracle bit-for-bit.
TEST(FlowNetworkDifferentialTest, SharedBottleneckExactMatch) {
  Compare(/*seed=*/0x5eed0001, /*arrivals=*/10000, /*disjoint=*/false, /*exact=*/true);
}

TEST(FlowNetworkDifferentialTest, SharedBottleneckSecondSeed) {
  Compare(/*seed=*/0xabcde123, /*arrivals=*/2000, /*disjoint=*/false, /*exact=*/true);
}

// Two disconnected server components: passes restricted to one component
// advance the other lazily, which regroups sums — order must still match
// exactly and times to a tight tolerance.
TEST(FlowNetworkDifferentialTest, DisjointComponentsMatchWithinTolerance) {
  Compare(/*seed=*/0x5eed0002, /*arrivals=*/4000, /*disjoint=*/true, /*exact=*/false);
}

// A fig9-shaped star: one 100 Mbps server access link, one access link per
// client and spread RTTs, with slow start on. Each crowd starts in the
// cap-only regime (every flow below its initial cwnd/rtt cap, the caps well
// under the server link) and leaves it as windows double past the server's
// share or a client's own link; completions and aborts always leave the
// server link spanning every live flow.
TEST(FlowNetworkDifferentialTest, Fig9StarEntersAndLeavesCapOnlyRegime) {
  constexpr int kStarClients = 40;
  std::vector<double> capacities{12.5e6};
  for (int c = 0; c < kStarClients; ++c) {
    capacities.push_back(1.25e6 * (1.0 + static_cast<double>(c % 4)));
  }
  Rng rng(0x5eed0009);
  std::vector<Op> ops;
  int started = 0;
  SimTime crowd_at = 0.0;
  for (int crowd = 5; crowd <= 40; crowd += 5) {
    for (int k = 0; k < crowd; ++k) {
      Op op;
      op.at = crowd_at + rng.Uniform(0.0, 0.01);
      op.path = {0, 1 + static_cast<LinkId>(k % kStarClients)};
      op.bytes = rng.Uniform(1e5, 1e6);
      op.rtt = rng.Uniform(0.02, 0.3);
      ops.push_back(op);
      ++started;
      if (rng.Chance(0.1)) {
        Op abort;
        abort.at = op.at + rng.Uniform(0.05, 0.5);
        abort.is_abort = true;
        abort.target = started - 1;
        ops.push_back(abort);
      }
    }
    crowd_at += 4.0;
  }
  FlowNetworkStats stats;
  CompareRuns(capacities, ops, /*exact=*/true, &stats);
  EXPECT_GT(stats.capped_passes, 0u);
  EXPECT_LT(stats.capped_passes, stats.reallocs);
  EXPECT_GT(stats.spanning_collects, 0u);
}

// Two networks fed the same calls in lockstep; every step compares all rates
// bit for bit. Time stays at 0 (rtt 1 s: no doubling fires), so each rate cap
// is exactly the cwnd handed to StartFlow.
struct Lockstep {
  Side incremental;
  Side oracle;
  std::vector<FlowId> inc_ids;
  std::vector<FlowId> oracle_ids;

  explicit Lockstep(const std::vector<double>& capacities) {
    oracle.net.set_force_full_reallocate(true);
    for (double capacity : capacities) {
      incremental.net.AddLink(capacity);
      oracle.net.AddLink(capacity);
    }
  }
  size_t Start(const std::vector<LinkId>& path, double cap, bool slow_start = true) {
    TcpParams tcp;
    tcp.slow_start = slow_start;
    tcp.init_cwnd_bytes = cap;
    inc_ids.push_back(incremental.net.StartFlow(path, 1e12, 1.0, tcp, [] {}));
    oracle_ids.push_back(oracle.net.StartFlow(path, 1e12, 1.0, tcp, [] {}));
    ExpectSameRates();
    return inc_ids.size() - 1;
  }
  void Abort(size_t flow) {
    incremental.net.AbortFlow(inc_ids[flow]);
    oracle.net.AbortFlow(oracle_ids[flow]);
    ExpectSameRates();
  }
  double Rate(size_t flow) const { return incremental.net.FlowRate(inc_ids[flow]); }
  const FlowNetworkStats& Stats() const { return incremental.net.Stats(); }
  void ExpectSameRates() const {
    for (size_t i = 0; i < inc_ids.size(); ++i) {
      EXPECT_EQ(incremental.net.FlowRate(inc_ids[i]), oracle.net.FlowRate(oracle_ids[i]))
          << "rate of flow " << i << " diverged";
    }
  }
};

// Cap sums just inside and just outside the cap-only margin (delta = 1e-9 of
// capacity, i.e. 1e-6 B/s on a 1000 B/s link): inside it the rule declines
// and water-filling runs, outside it the rule settles the pass; both give
// every flow its cap, bit for bit like the oracle.
TEST(FlowNetworkDifferentialTest, CapSumWithinDeltaOfCapacityTakesBothBranches) {
  Lockstep nets({1000.0, 1e6});
  size_t a = nets.Start({0}, 500.0);
  EXPECT_EQ(nets.Stats().capped_passes, 1u);

  // Caps sum to C - 4e-7 > C(1 - delta): water-filling, all at caps.
  size_t b = nets.Start({0}, 500.0 - 4e-7);
  EXPECT_EQ(nets.Stats().capped_passes, 1u);
  EXPECT_EQ(nets.Rate(a), 500.0);
  EXPECT_EQ(nets.Rate(b), 500.0 - 4e-7);

  nets.Abort(b);
  EXPECT_EQ(nets.Stats().capped_passes, 2u);

  // Caps sum to C - 2e-6 < C(1 - delta): cap-only.
  size_t c = nets.Start({0, 1}, 500.0 - 2e-6);
  EXPECT_EQ(nets.Stats().capped_passes, 3u);
  EXPECT_EQ(nets.Rate(c), 500.0 - 2e-6);

  // Over capacity: water-filling with a link-limited round.
  size_t d = nets.Start({0}, 100.0);
  EXPECT_EQ(nets.Stats().capped_passes, 3u);
  EXPECT_LT(nets.Rate(a) + nets.Rate(c) + nets.Rate(d), 1000.0 + 1e-9);

  // One uncapped flow disables the rule even on an idle link.
  nets.Abort(a);
  nets.Abort(c);
  nets.Abort(d);
  uint64_t capped = nets.Stats().capped_passes;
  nets.Start({1}, 0.0, /*slow_start=*/false);
  EXPECT_EQ(nets.Stats().capped_passes, capped);
  EXPECT_EQ(nets.Stats().no_progress, 0u);
}

// A triangle: X on {0,1}, Y on {1,2}, Z on {0,2}. Once all three run, no
// link carries every live flow, so starting Z and aborting Y must fall back
// to the BFS (the component stays connected through link 0).
TEST(FlowNetworkDifferentialTest, NoSpanningLinkFallsBackToBfs) {
  Lockstep nets({1000.0, 600.0, 800.0});
  nets.Start({0, 1}, 0.0, /*slow_start=*/false);
  size_t y = nets.Start({1, 2}, 0.0, /*slow_start=*/false);
  EXPECT_EQ(nets.Stats().spanning_collects, 2u);
  nets.Start({0, 2}, 0.0, /*slow_start=*/false);
  EXPECT_EQ(nets.Stats().spanning_collects, 2u);
  nets.Abort(y);
  EXPECT_EQ(nets.Stats().spanning_collects, 2u);
  EXPECT_EQ(nets.Stats().reallocs, 4u);
  EXPECT_EQ(nets.Stats().full_reallocs, 4u);
}

}  // namespace
}  // namespace mfc
