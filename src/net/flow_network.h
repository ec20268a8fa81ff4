// Fluid-flow network model with event-driven max-min fair bandwidth sharing.
//
// Transfers are modelled as fluid flows over a path of links. Whenever the
// flow set changes (start, completion, abort, or a TCP slow-start window
// doubling), affected flows' remaining bytes are advanced at the old rates
// and a max-min fair allocation (water-filling with per-flow rate caps) is
// recomputed. This is the standard fluid approximation of TCP bandwidth
// sharing: cheap, deterministic, and it reproduces the two effects the
// paper's Large Object stage depends on — contention at the server access
// link and the slow-start regime that motivates the 100 KB object-size lower
// bound.
//
// Hot-path layout (mirrors the EventLoop slot-vector rework): flows live in
// a dense free-listed slot vector, FlowIds pack {generation, slot} for O(1)
// lookup and stale-handle rejection, and each link keeps a membership list
// plus an aggregate rate so LinkRate() is O(1). Reallocation is incremental:
// only the connected component of links/flows reachable from the changed
// flows is recomputed (see DESIGN.md §10 for the dirty-set rules), flows
// advance lazily when their component is touched, and indexed min-heaps
// (next completion, next cwnd doubling) replace the per-event full-flow
// scans. Two exact shortcuts cover the slow-start regime of survey crowds:
// a pass where every flow fits under its cwnd/rtt cap skips water-filling,
// and a component spanned by one link skips the BFS.
#ifndef MFC_SRC_NET_FLOW_NETWORK_H_
#define MFC_SRC_NET_FLOW_NETWORK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/net/indexed_heap.h"
#include "src/sim/event_loop.h"

namespace mfc {

class MetricsRegistry;

using LinkId = size_t;
using FlowId = uint64_t;

// TCP behaviour knobs for a single flow.
struct TcpParams {
  // Initial congestion window in bytes (10 segments of 1460 B, RFC 6928).
  double init_cwnd_bytes = 14600.0;
  // When false the flow is only limited by fair share (no slow start).
  bool slow_start = true;
};

// Allocator work counters, exported through FlowNetwork::Stats() so the perf
// harness (bench/perf_flow_network.cc) can report how much recomputation a
// workload actually triggered, not just wall time.
struct FlowNetworkStats {
  uint64_t reallocs = 0;       // allocation passes run
  uint64_t full_reallocs = 0;  // passes whose component was the whole graph
  uint64_t flows_touched = 0;  // flows visited, summed over passes
  uint64_t links_touched = 0;  // links visited, summed over passes
  uint64_t no_progress = 0;    // water-filling stalls (expected 0; see
                               // the flow_network.no_progress metric)
  uint64_t capped_passes = 0;  // passes settled by the cap-only rule (every
                               // flow at its cwnd/rtt cap; no water-filling)
  uint64_t spanning_collects = 0;  // component collections that took the
                                   // spanning-link shortcut instead of a BFS
};

class FlowNetwork {
 public:
  explicit FlowNetwork(EventLoop& loop) : loop_(loop) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  // Adds a link with |capacity| in bytes/second. Capacity must be > 0.
  LinkId AddLink(double capacity);

  // Starts a transfer of |bytes| over |path|. |rtt| drives the slow-start
  // cwnd-doubling cadence. |on_complete| fires (via the event loop) when the
  // last byte leaves the final link. Returns an id usable with AbortFlow.
  // Paths must not repeat a link. Id 0 is never returned.
  FlowId StartFlow(std::vector<LinkId> path, double bytes, double rtt, TcpParams tcp,
                   std::function<void()> on_complete);

  // Cancels a transfer; its callback never fires. No-op if already complete
  // (ids are generation-checked, so a recycled slot never aliases).
  void AbortFlow(FlowId id);

  size_t ActiveFlowCount() const { return live_; }

  // Instantaneous aggregate rate through a link (bytes/second). O(1): reads
  // the maintained aggregate (debug builds assert it against a fresh scan).
  double LinkRate(LinkId id) const;
  double LinkCapacity(LinkId id) const { return links_[id].capacity; }
  // Total bytes that have traversed the link since creation.
  double LinkCumulativeBytes(LinkId id) const;
  // Utilization in [0, 1].
  double LinkUtilization(LinkId id) const { return LinkRate(id) / links_[id].capacity; }

  // Current allocated rate of a flow; 0 if unknown/finished.
  double FlowRate(FlowId id) const;

  // Cumulative allocator work counters since construction.
  const FlowNetworkStats& Stats() const { return stats_; }

  // When non-null, the allocator reports anomalies (flow_network.no_progress)
  // to |metrics|. The registry must outlive this network.
  void SetMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  // Testing hook: every reallocation recomputes the whole graph, matching the
  // historical full water-filling pass. The differential test drives an
  // identical workload through a forced-full network as the oracle.
  void set_force_full_reallocate(bool on) {
    force_full_ = on;
    component_cache_full_ = false;
  }

 private:
  static constexpr uint32_t kNoFreeSlot = UINT32_MAX;

  struct Link {
    double capacity = 0.0;
    // Sum of member flow rates; kept exact by RefreshLinkAggregates after
    // every pass that touches the link.
    double agg_rate = 0.0;
    // Bytes through the link up to |cum_update|; bytes since then are
    // agg_rate * (now - cum_update), materialized before agg_rate changes.
    double cumulative_bytes = 0.0;
    SimTime cum_update = kTimeZero;
    std::vector<uint32_t> members;  // slots of flows whose path crosses this link
    // Scratch for the water-filling pass.
    double residual = 0.0;
    size_t unfixed = 0;
    double cap_sum = 0.0;  // sum of member rate caps (cap-only test)
    uint64_t visit = 0;  // dirty-set BFS epoch mark
  };

  struct Flow {
    std::vector<LinkId> path;
    // members-list index per path link, so detach is O(path) swap-removals.
    std::vector<uint32_t> member_pos;
    double remaining = 0.0;  // valid as of |advanced|
    double rate = 0.0;
    double rate_cap = 0.0;  // cwnd/rtt slow-start cap; infinity once opened
    double rtt = 0.0;
    double cwnd = 0.0;
    double path_cap = 0.0;  // min link capacity along path, cached at start
    SimTime advanced = kTimeZero;
    SimTime next_double = kTimeInfinity;  // next cwnd doubling instant
    uint64_t seq = 0;                     // creation order; deterministic ties
    std::function<void()> on_complete;
    uint32_t generation = 1;
    uint32_t next_free = kNoFreeSlot;
    bool active = false;
    bool fixed = false;  // scratch for water-filling
    uint64_t visit = 0;  // dirty-set BFS epoch mark
  };

  // A FlowId packs {generation, slot + 1}; +1 keeps 0 invalid.
  static FlowId PackId(uint32_t slot, uint32_t generation) {
    return (static_cast<FlowId>(generation) << 32) | (static_cast<FlowId>(slot) + 1);
  }
  // Resolves an id to a live slot, or UINT32_MAX for stale/invalid ids.
  uint32_t ResolveId(FlowId id) const;

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);

  // Moves |flow|'s remaining bytes forward to |now| at its current rate.
  void AdvanceFlow(Flow& flow, SimTime now);
  // Folds bytes since |cum_update| into cumulative_bytes. Must run before
  // the link's agg_rate changes.
  void MaterializeLink(Link& link, SimTime now);
  // Removes |slot| from its links' member lists, materializing cumulative
  // bytes and deducting its rate from the aggregates first.
  void DetachFromLinks(uint32_t slot);

  // Recomputes the allocation for the connected component(s) reachable from
  // |seed_links| (and |seed_flow| when valid — covers link-less paths),
  // advancing member flows to Now() and refreshing completion keys. A pass
  // where every flow fits under its cwnd/rtt cap skips water-filling (the
  // cap-only rule, DESIGN.md §10); otherwise water-filling is unchanged from
  // the historical full pass, restricted to the component.
  void ReallocateFor(const std::vector<LinkId>& seed_links, uint32_t seed_flow = UINT32_MAX);
  // Dirty-set BFS from the seeds into dirty_flows_/dirty_links_.
  void CollectComponent(const std::vector<LinkId>& seed_links, uint32_t seed_flow);
  // The BFS result without the BFS, when a seed link carries every live flow
  // and the previous pass's dirty_flows_ held every live flow then. Returns
  // false (sets untouched) when the shortcut does not apply.
  bool CollectSpanningComponent(const std::vector<LinkId>& seed_links, uint32_t seed_flow);
  // Max-min water-filling over the dirty component; expects every dirty
  // flow unfixed at rate 0 and every dirty link at full residual with its
  // unfixed count.
  void WaterFill();
  // Recomputes agg_rate for each dirty link from its members.
  void RefreshLinkAggregates();
  // Predicted exact finish instant and earliest byte-epsilon completion
  // instant for |flow|, from its current (advanced, remaining, rate).
  static void CompletionKeys(const Flow& flow, double* finish, double* early);
  // Re-keys |slot| in both completion heaps from its remaining/rate.
  void UpdateCompletionKey(uint32_t slot);

  // (Re)schedules the single pending timer for min(completion, doubling).
  void ScheduleNext();
  void OnTimer();

  EventLoop& loop_;
  std::vector<Link> links_;
  std::vector<Flow> flows_;  // dense slots; |active| distinguishes live ones
  uint32_t free_head_ = kNoFreeSlot;
  size_t live_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t visit_epoch_ = 0;

  // Completion instants. finish_heap_ holds predicted exact finish times
  // (drives the timer, like the historical min-scan); early_heap_ holds the
  // instant each flow first satisfies the byte-epsilon completion test, so
  // an unrelated event never misses an epsilon-due flow (see OnTimer).
  IndexedMinHeap finish_heap_;
  IndexedMinHeap early_heap_;
  IndexedMinHeap double_heap_;  // next_double instants

  // Scratch reused across passes. dirty_flows_/dirty_links_ survive between
  // passes: when the previous pass covered every live flow and membership has
  // not changed since (component_cache_full_), the BFS is skipped and the
  // cached sets are reused verbatim.
  std::vector<uint32_t> dirty_flows_;
  std::vector<LinkId> dirty_links_;
  std::vector<LinkId> seed_scratch_;
  std::vector<uint32_t> due_scratch_;  // OnTimer's due-flow list
  // OnTimer's completion callbacks; swapped into a local while they run.
  std::vector<std::function<void()>> done_scratch_;
  std::vector<uint64_t> order_scratch_;  // packed (seq, slot) sort keys
  // Water-filling pass scratch: flows ascending by (rate_cap, seq, slot) so
  // cap rounds advance a cursor instead of rescanning, and a min-heap of
  // per-link equal shares so each round's bottleneck share is O(1).
  std::vector<std::pair<double, uint64_t>> caps_scratch_;
  IndexedMinHeap share_heap_;
  // Full-pass completion-heap rebuild scratch (see ReallocateFor).
  std::vector<IndexedMinHeap::Entry> finish_scratch_;
  std::vector<IndexedMinHeap::Entry> early_scratch_;

  EventId timer_ = 0;
  FlowNetworkStats stats_;
  MetricsRegistry* metrics_ = nullptr;
  bool force_full_ = false;
  // True while dirty_flows_/dirty_links_ hold the whole live flow set and no
  // start/abort/completion (or new link) has occurred since — i.e. a fresh
  // BFS would re-derive them exactly. Doubling-only events then skip
  // CollectComponent altogether.
  bool component_cache_full_ = false;
  // True while dirty_flows_ holds every flow that was live when the last
  // pass ran. Every membership change runs a pass straight away, so the
  // current live set is then dirty_flows_ minus released slots plus the
  // newly started seed flow (CollectSpanningComponent). It starts true: no
  // flow is live and dirty_flows_ is empty.
  bool dirty_flows_all_live_ = true;
};

}  // namespace mfc

#endif  // MFC_SRC_NET_FLOW_NETWORK_H_
