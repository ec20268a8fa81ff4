// Survey benchmark: end-to-end survey and control-plane throughput on three
// workloads, plus a traced run that splits host time across the layers.
//
//   survey_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--work-dir <dir>] [--commit <id>]
//   survey_bench --self-test
//
// Untraced (--trace 0): the survey workloads run the real survey driver
// (RunSurveyCohortParallel, one worker) over seeded sites, in chunks sized
// from --seconds; control_plane_lossy runs one coordinator and four agent
// Sessions over a lossy MemoryHub under virtual time. Each chunk runs on the
// CPU where a fixed sentinel unit is currently fastest, and its time is
// corrected by the sentinels beside it and by a speed kernel to a reference
// speed (SentinelLog). Traced (--trace 1):
// every third chunk runs untraced and as a traced decomposition, with
// host-clock spans recorded by this file around calls into each layer (see
// README.md for the span tree).
//
// Every run checks its outputs; a mismatch prints "correct": false and
// exits 1. The last stdout line is the result object; the line before it
// carries provenance, digests and the evidence behind each number.
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "src/core/coordinator.h"
#include "src/core/experiment_runner.h"
#include "src/core/journal/journal.h"
#include "src/core/population.h"
#include "src/core/survey.h"
#include "src/rt/fault_injector.h"
#include "src/rt/session.h"
#include "src/rt/transport.h"
#include "src/rt/wire.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"
#include "surveybench/bench_math.h"
#include "surveybench/layers.h"

namespace surveybench {
namespace {

namespace fs = std::filesystem;

// ---- workloads -----------------------------------------------------------

enum class Kind { kSurvey, kRt };

struct Workload {
  const char* name;
  Kind kind;
  std::vector<mfc::Cohort> cohorts;  // survey: the cohorts, in equal shares
  mfc::StageKind stage = mfc::StageKind::kBase;
  bool journal = false;  // survey: SurveyJournal append + fsync per site
  // survey: the sentinel is site 0 of the first cohort under this fixed
  // survey seed, whatever --seed is: a site of ~20 ms, long enough to time
  // without jitter.
  uint64_t sentinel_seed = 0;
  // Sizing: a run measures --seconds times this many sites (profiles for
  // the control plane): the median raw rate on a shared 4-core Xeon VM, so
  // the chunks take about --seconds there.
  double sites_per_second = 0.0;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"fig9_large", Kind::kSurvey,
       {mfc::Cohort::kRank1To1K, mfc::Cohort::kRank1KTo10K, mfc::Cohort::kRank10KTo100K,
        mfc::Cohort::kRank100KTo1M},
       mfc::StageKind::kLargeObject, false, 7, 55.0},
      {"longtail_query_wal", Kind::kSurvey, {mfc::Cohort::kLongTail},
       mfc::StageKind::kSmallQuery, true, 3, 60.0},
      {"control_plane_lossy", Kind::kRt, {}, mfc::StageKind::kBase, false, 0, 550.0},
  };
  return workloads;
}

// The survey driver's own configuration (RunSurveyCohortParallel): θ = 100
// ms, step 5, max crowd 85, 50 clients minimum.
constexpr size_t kMaxCrowd = 85;
mfc::ExperimentConfig SurveyConfig() {
  mfc::ExperimentConfig config;
  config.threshold = mfc::Millis(100);
  config.crowd_step = 5;
  config.max_crowd = kMaxCrowd;
  config.min_clients = 50;
  return config;
}

// Sites per cohort whose traced decomposition an untraced run checks.
constexpr size_t kCheckSites = 3;

// |units| rounded to whole chunks of |chunk|, at least one chunk.
size_t WholeChunks(double units, size_t chunk) {
  return std::max<size_t>(1, static_cast<size_t>(units / static_cast<double>(chunk) + 0.5)) *
         chunk;
}

// ---- output --------------------------------------------------------------

std::string Num(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  (void)ec;
  return std::string(buffer, end);
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Hex(uint64_t value) {
  char buffer[17];
  snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Num(values[i]);
  }
  return out + "]";
}

// Key/value pairs of the detail line, emitted in insertion order.
class Detail {
 public:
  void Add(const std::string& key, const std::string& json_value) {
    fields_.emplace_back(key, json_value);
  }
  void Num(const std::string& key, double value) { Add(key, surveybench::Num(value)); }
  void Str(const std::string& key, const std::string& value) { Add(key, Quote(value)); }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Output correctness: every failed check is kept with its reason.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++count_;
    if (!ok) {
      failures_.push_back(what);
      fprintf(stderr, "survey_bench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool Ok() const { return failures_.empty(); }
  size_t Count() const { return count_; }
  const std::vector<std::string>& Failures() const { return failures_; }

 private:
  size_t count_ = 0;
  std::vector<std::string> failures_;
};

// ---- provenance ----------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
constexpr const char* kSanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "thread";
#else
constexpr const char* kSanitizer = "";
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: return "0x" + Hex(static_cast<uint64_t>(info.f_type)).substr(8);
  }
}

bool Comparable() {
  return std::string(SURVEYBENCH_BUILD_TYPE) == "Release" && kAssertsOff &&
         std::string(kSanitizer).empty();
}

void AddProvenance(Detail& detail, const std::string& commit, const std::string& work_dir) {
  detail.Str("build_type", SURVEYBENCH_BUILD_TYPE);
  detail.Str("sanitizer", kSanitizer);
  detail.Str("compiler", SURVEYBENCH_COMPILER);
  detail.Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  detail.Str("commit", commit);
  detail.Str("journal_fs", FilesystemType(work_dir));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Runs each chunk on the CPU where the sentinel is currently fastest (see
// SentinelLog). Without two usable CPUs, or where affinity cannot be set, it
// times the sentinel once where the process runs.
class Placement {
 public:
  Placement() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original_)) {
          cpus_.push_back(cpu);
        }
      }
    }
    if (cpus_.size() < 2) {
      cpus_.clear();
    }
  }
  ~Placement() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  // Times |sentinel| on every CPU and stays on the fastest. Returns the
  // times, one per CPU slot; Current() is the chosen slot.
  std::vector<double> Probe(const std::function<double()>& sentinel) {
    std::vector<double> times;
    if (cpus_.empty()) {
      times.push_back(sentinel());
      return times;
    }
    for (int cpu : cpus_) {
      times.push_back(Pin(cpu) ? sentinel() : 1e300);
    }
    current_ = static_cast<size_t>(std::min_element(times.begin(), times.end()) - times.begin());
    Pin(cpus_[current_]);
    return times;
  }
  size_t Current() const { return current_; }
  size_t Cpus() const { return std::max<size_t>(1, cpus_.size()); }

 private:
  static bool Pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
  }

  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t current_ = 0;
};

// The speed kernel: a fixed unit of CPU work of the benchmark's own, shaped
// like the simulator's inner loop (a binary heap of timed events updating a
// 2 MiB table), so co-tenants slow it about as much as the program. It
// returns its host seconds; no change to the program moves them.
double SpeedKernel() {
  // Static: later calls read the table, so its updates cannot be optimised out.
  static std::vector<uint64_t> table(1 << 18);
  using Event = std::pair<double, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  int64_t start = NowNs();
  for (uint32_t i = 0; i < 4096; ++i) {
    heap.push({static_cast<double>(next() >> 11) * 1e-16, i});
  }
  for (int n = 0; n < 150000; ++n) {
    Event event = heap.top();
    heap.pop();
    uint64_t r = next();
    table[r & (table.size() - 1)] += event.second;
    heap.push({event.first + static_cast<double>(r >> 11) * 1e-16, event.second});
  }
  return static_cast<double>(NowNs() - start) * 1e-9;
}

// The reference speed: the speed kernel's floor on the reference box (a
// shared 4-core Xeon VM) when its co-tenants are quiet. Rates and set-up
// times are reported at this speed.
constexpr double kReferenceKernelS = 0.017;

// One placement probe, logged with the speed kernel on the CPU it chose.
std::vector<double> LoggedProbe(Placement& placement, const std::function<double()>& sentinel,
                                SentinelLog& log) {
  std::vector<double> probe = placement.Probe(sentinel);
  log.best.push_back(*std::min_element(probe.begin(), probe.end()));
  log.kernel.push_back(SpeedKernel());
  return probe;
}

// Times |setup| and then |chunk| (each returning its host seconds) between
// two placement probes and logs them with the sentinels of the CPU they ran
// on.
void PlacedChunk(Placement& placement, const std::function<double()>& sentinel,
                 const std::function<double()>& setup, const std::function<double()>& chunk,
                 SentinelLog& log, std::vector<double>& probe) {
  if (probe.empty()) {
    probe = LoggedProbe(placement, sentinel, log);
  }
  const size_t slot = placement.Current();
  log.before.push_back(probe[slot]);
  log.setup.push_back(setup());
  log.chunk.push_back(chunk());
  probe = LoggedProbe(placement, sentinel, log);
  log.after.push_back(probe[slot]);
}

// ---- survey: traced decomposition ----------------------------------------

// Times every ClientHarness call the coordinator makes on the testbed. It
// forwards each call unchanged, so the coordinator sees the same testbed.
class TimedHarness : public mfc::ClientHarness {
 public:
  TimedHarness(mfc::ClientHarness& inner, SpanRecorder* recorder, uint32_t site)
      : inner_(inner), recorder_(recorder), site_(site) {}

  size_t ClientCount() const override { return inner_.ClientCount(); }
  std::vector<size_t> ProbeClients(mfc::SimDuration timeout) override {
    Scope scope(recorder_, kProbe, site_);
    return inner_.ProbeClients(timeout);
  }
  mfc::SimDuration MeasureCoordRtt(size_t client) override {
    Scope scope(recorder_, kRtt, site_);
    return inner_.MeasureCoordRtt(client);
  }
  mfc::SimDuration MeasureTargetRtt(size_t client) override {
    Scope scope(recorder_, kRtt, site_);
    return inner_.MeasureTargetRtt(client);
  }
  mfc::RequestSample FetchOnce(size_t client, const mfc::HttpRequest& request) override {
    Scope scope(recorder_, kFetch, site_);
    return inner_.FetchOnce(client, request);
  }
  std::vector<mfc::RequestSample> ExecuteCrowd(const std::vector<mfc::CrowdRequestPlan>& plans,
                                               mfc::SimTime poll_time) override {
    ++crowds_;
    Scope scope(recorder_, kCrowd, site_);
    return inner_.ExecuteCrowd(plans, poll_time);
  }
  mfc::SimTime Now() const override { return inner_.Now(); }
  void WaitUntil(mfc::SimTime t) override {
    Scope scope(recorder_, kWait, site_);
    inner_.WaitUntil(t);
  }
  bool ClientHealthy(size_t client) const override { return inner_.ClientHealthy(client); }

  uint64_t Crowds() const { return crowds_; }

 private:
  mfc::ClientHarness& inner_;
  SpanRecorder* recorder_;
  uint32_t site_;
  uint64_t crowds_ = 0;
};

void CountServer(mfc::WebServer& server, SurveyLayerInputs& counts) {
  for (const mfc::AccessLogEntry& entry : server.AccessLog()) {
    counts.mfc_requests += entry.is_mfc ? 1 : 0;
  }
  counts.rejected_503 += server.Rejected503();
}

// A site's Deployment and stage objects, built as RunSiteExperiment builds
// them.
struct SiteSetup {
  std::unique_ptr<mfc::Deployment> deployment;
  mfc::StageObjects objects;
};

SiteSetup SetUpSite(const mfc::SiteInstance& instance, uint64_t seed,
                    const mfc::ExperimentConfig& config) {
  mfc::DeploymentOptions options;
  options.seed = seed;
  options.fleet_size = std::max<size_t>(config.min_clients, 85);
  options.background_rps = instance.background_rps;
  SiteSetup setup;
  setup.deployment = std::make_unique<mfc::Deployment>(instance, options);
  setup.objects = setup.deployment->ObjectsFromContent();
  return setup;
}

// One site exactly as RunSiteExperiment wires it, with the testbed behind a
// TimedHarness and a span around each step. When |journal| is set the site
// record the survey driver would write is appended inside a journal.append
// span. Returns the site's result; |counts| (when set) receives its layer
// counters.
mfc::ExperimentResult DecomposeSite(const mfc::SiteStream& stream, size_t index,
                                    mfc::StageKind stage, SpanRecorder* recorder,
                                    uint32_t site, mfc::SurveyJournal* journal,
                                    SurveyLayerInputs* counts) {
  const mfc::ExperimentConfig config = SurveyConfig();
  const mfc::SiteInstance instance = stream.Site(index);
  const uint64_t seed = stream.ExperimentSeed(index);
  SiteSetup setup;
  {
    Scope scope(recorder, kDeploy, site);
    setup = SetUpSite(instance, seed, config);
  }
  const std::unique_ptr<mfc::Deployment>& deployment = setup.deployment;
  TimedHarness harness(deployment->Testbed(), recorder, site);
  mfc::Coordinator coordinator(harness, config, seed ^ 0x9e3779b9);
  deployment->StartBackground();
  mfc::ExperimentResult result;
  {
    Scope scope(recorder, kCoordinatorRun, site);
    result = coordinator.Run(setup.objects, {stage});
  }
  deployment->StopBackground();
  if (journal != nullptr) {
    Scope scope(recorder, kJournalAppend, site);
    mfc::JournalSiteRecord record;
    record.cohort_ordinal = journal->CurrentOrdinal();
    record.site_index = index;
    record.seed = seed;
    record.stage = stage;
    record.pid = index;
    record.result = result;
    journal->AppendSite(record);
  }
  if (counts != nullptr) {
    counts->events += deployment->Loop().ExecutedCount();
    const mfc::FlowNetworkStats& flows = deployment->Testbed().Wan().Flows().Stats();
    counts->reallocs += flows.reallocs;
    counts->full_reallocs += flows.full_reallocs;
    counts->flows_touched += flows.flows_touched;
    counts->links_touched += flows.links_touched;
    counts->no_progress += flows.no_progress;
    if (mfc::ServerCluster* cluster = deployment->Cluster()) {
      for (size_t r = 0; r < cluster->ReplicaCount(); ++r) {
        CountServer(cluster->Replica(r), *counts);
      }
    } else {
      CountServer(deployment->Server(), *counts);
    }
    counts->background_requests += deployment->BackgroundRequests();
    counts->crowds += harness.Crowds();
  }
  return result;
}

// ---- survey: set-up and passes ------------------------------------------

// A fresh journal in its own temporary directory, removed on destruction,
// so a leftover journal can never turn a run into a resume.
class TempJournal {
 public:
  static std::unique_ptr<TempJournal> Create(const std::string& work_dir,
                                             const std::string& fingerprint,
                                             std::string* error) {
    std::string pattern = work_dir + "/journal-XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (mkdtemp(buffer.data()) == nullptr) {
      *error = "mkdtemp failed under " + work_dir;
      return nullptr;
    }
    auto temp = std::unique_ptr<TempJournal>(new TempJournal(buffer.data()));
    temp->journal_ = mfc::SurveyJournal::Open(temp->path_, "surveybench", fingerprint,
                                              /*resume=*/false, error);
    if (temp->journal_ == nullptr) {
      return nullptr;
    }
    return temp;
  }
  ~TempJournal() {
    journal_.reset();
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }
  TempJournal(const TempJournal&) = delete;
  TempJournal& operator=(const TempJournal&) = delete;

  mfc::SurveyJournal& Journal() { return *journal_; }
  const std::string& Path() const { return path_; }

 private:
  explicit TempJournal(std::string dir) : dir_(std::move(dir)), path_(dir_ + "/survey.wal") {}

  std::string dir_;
  std::string path_;
  std::unique_ptr<mfc::SurveyJournal> journal_;
};

// A unit of survey work: one survey driver call over |sites| sites of one
// cohort under the chunk's own survey seed.
struct Chunk {
  mfc::Cohort cohort;
  uint64_t seed;
  size_t sites;
};

constexpr size_t kChunkSites = 25;
// A traced run decomposes every kTraceEvery-th chunk.
constexpr size_t kTraceEvery = 3;

std::vector<Chunk> SurveyChunks(const Workload& workload, uint64_t seed, size_t per_cohort) {
  std::vector<Chunk> chunks;
  for (mfc::Cohort cohort : workload.cohorts) {
    for (size_t first = 0; first < per_cohort; first += kChunkSites) {
      chunks.push_back({cohort, mfc::SplitMix64(seed * 4096 + chunks.size()),
                        std::min(kChunkSites, per_cohort - first)});
    }
  }
  return chunks;
}

// Digest of the inputs: every site's provisioning and experiment seed,
// regenerated the way the survey driver regenerates them.
uint64_t SurveyInputDigest(const std::vector<Chunk>& chunks) {
  uint64_t digest = Fnv1a("inputs");
  for (const Chunk& chunk : chunks) {
    mfc::SiteStream stream(chunk.cohort, chunk.seed, chunk.sites, false);
    for (size_t i = 0; i < chunk.sites; ++i) {
      mfc::SiteInstance site = stream.Site(i);
      std::string key = Num(site.base_knee) + " " + Num(site.query_knee) + " " +
                        Num(site.bandwidth_knee) + " " + Num(site.server_access_bps) + " " +
                        Num(site.background_rps) + " " + std::to_string(site.replicas) + " " +
                        std::to_string(stream.ExperimentSeed(i));
      digest = Fnv1a(key, digest);
    }
  }
  return digest;
}

struct SurveyOutputs {
  std::vector<uint64_t> site_digests;  // FNV-1a of each site's encoding, in run order
  SurveyOutcomes outcomes;
  double probe_requests = 0.0;  // sum of ExperimentResult::TotalRequests
  double stage_sim_s = 0.0;     // sum of simulated stage spans over profiled sites
  size_t staged_sites = 0;

  void Add(const std::string& encoded, const mfc::ExperimentResult& result) {
    site_digests.push_back(Fnv1a(encoded));
    ++outcomes.attempted;
    probe_requests += static_cast<double>(result.TotalRequests());
    if (result.aborted) {
      ++outcomes.aborted;
    } else if (result.stages.empty()) {
      ++outcomes.stageless;
    } else {
      stage_sim_s += result.stages[0].Span();
      ++staged_sites;
    }
  }
  uint64_t Digest() const {
    uint64_t digest = Fnv1a("outputs");
    for (uint64_t site : site_digests) {
      digest = Fnv1a(Hex(site), digest);
    }
    return digest;
  }
};

// Runs one chunk through the survey driver and returns its host seconds
// (BeginCohort + RunSurveyCohortParallel).
double RunChunk(const Workload& workload, const Chunk& chunk, mfc::SurveyJournal* journal,
                std::vector<mfc::ExperimentResult>* per_site, Checks& checks) {
  int64_t start = NowNs();
  if (journal != nullptr) {
    std::string error;
    bool begun = journal->BeginCohort(chunk.cohort, workload.stage, chunk.sites, kMaxCrowd,
                                      chunk.seed, /*pid_base=*/0, &error);
    checks.Expect(begun, "BeginCohort: " + error);
  }
  mfc::RunSurveyCohortParallel(chunk.cohort, workload.stage, chunk.sites, kMaxCrowd, chunk.seed,
                               /*jobs=*/1, per_site, nullptr, journal);
  return static_cast<double>(NowNs() - start) * 1e-9;
}

// The program's set-up before each site of a chunk runs, as the survey
// driver and RunSiteExperiment do it: the chunk's SiteStream, then per site
// its instance and seed, its Deployment with the stage objects, and the
// Coordinator. Returns host seconds per site; tear-down is not timed.
double TimeSurveySetup(const Chunk& chunk) {
  const mfc::ExperimentConfig config = SurveyConfig();
  int64_t start = NowNs();
  mfc::SiteStream stream(chunk.cohort, chunk.seed, chunk.sites, false);
  int64_t total_ns = NowNs() - start;
  for (size_t i = 0; i < chunk.sites; ++i) {
    start = NowNs();
    const uint64_t seed = stream.ExperimentSeed(i);
    SiteSetup site = SetUpSite(stream.Site(i), seed, config);
    mfc::Coordinator coordinator(site.deployment->Testbed(), config, seed ^ 0x9e3779b9);
    total_ns += NowNs() - start;
  }
  return static_cast<double>(total_ns) * 1e-9 / static_cast<double>(chunk.sites);
}

// A chunk's journal must have executed every site (no resume) and must
// decode, through ReadJournalFile, to the bytes of the survey's results.
void CheckJournal(TempJournal& journal, const std::vector<mfc::ExperimentResult>& per_site,
                  Checks& checks) {
  size_t resumed = journal.Journal().resumed_sites.load();
  size_t executed = journal.Journal().executed_sites.load();
  checks.Expect(resumed == 0,
                "journal resumed " + std::to_string(resumed) + " sites; every run must execute");
  checks.Expect(executed == per_site.size(), "journal executed " + std::to_string(executed) +
                                                 " of " + std::to_string(per_site.size()) +
                                                 " sites");
  mfc::JournalFileData data;
  std::string error;
  if (!mfc::ReadJournalFile(journal.Path(), &data, &error)) {
    checks.Expect(false, "journal unreadable: " + error);
    return;
  }
  checks.Expect(data.records_dropped == 0, "journal has a corrupt tail");
  size_t mismatches = 0;
  for (size_t i = 0; i < per_site.size(); ++i) {
    auto it = data.sites.find({journal.Journal().CurrentOrdinal(), i});
    if (it == data.sites.end() || mfc::EncodeExperimentResult(it->second.result) !=
                                      mfc::EncodeExperimentResult(per_site[i])) {
      ++mismatches;
    }
  }
  checks.Expect(mismatches == 0, "journal decode differs from the survey result at " +
                                     std::to_string(mismatches) + " sites");
}

// The traced decomposition of one chunk, appending each site's result to
// |results|. Returns host seconds: BeginCohort plus every site span.
double TraceChunk(const Workload& workload, const Chunk& chunk, mfc::SurveyJournal* journal,
                  SpanRecorder& recorder, SurveyLayerInputs& layer,
                  std::vector<mfc::ExperimentResult>& results, Checks& checks) {
  int64_t start = NowNs();
  if (journal != nullptr) {
    std::string error;
    bool begun = journal->BeginCohort(chunk.cohort, workload.stage, chunk.sites, kMaxCrowd,
                                      chunk.seed, /*pid_base=*/0, &error);
    checks.Expect(begun, "BeginCohort: " + error);
  }
  double host_s = static_cast<double>(NowNs() - start) * 1e-9;
  mfc::SiteStream stream(chunk.cohort, chunk.seed, chunk.sites, false);
  for (size_t i = 0; i < chunk.sites; ++i) {
    uint32_t site = static_cast<uint32_t>(layer.site_ms.size() + 1);
    uint32_t span = recorder.Begin(kSite, site);
    results.push_back(DecomposeSite(stream, i, workload.stage, &recorder, site, journal, &layer));
    recorder.End(span);
    const Span& done = recorder.Spans()[span - 1];
    double site_s = static_cast<double>(done.end_ns - done.start_ns) * 1e-9;
    host_s += site_s;
    layer.site_ms.push_back(site_s * 1e3);
  }
  return host_s;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

void WriteSpans(const SpanRecorder& recorder, const std::string& path) {
  FILE* out = fopen(path.c_str(), "w");
  if (out == nullptr) {
    fprintf(stderr, "survey_bench: cannot write %s\n", path.c_str());
    return;
  }
  fprintf(out, "id,parent,site,name,start_ns,end_ns\n");
  const std::vector<Span>& spans = recorder.Spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    fprintf(out, "%zu,%u,%u,%s,%lld,%lld\n", i + 1, s.parent, s.site,
            recorder.Names()[s.name].c_str(), static_cast<long long>(s.start_ns),
            static_cast<long long>(s.end_ns));
  }
  fclose(out);
}

// ---- control plane -------------------------------------------------------

constexpr size_t kAgents = 4;
constexpr double kDropRate = 0.05;
constexpr double kDuplicateRate = 0.01;
constexpr size_t kKneeLevels = 15;  // knees 15, 20, ..., 85

// One profile per entry: the crowd size at which the simulated knee sits.
// Stratified: every knee level appears equally often, in a seeded order.
std::vector<size_t> RtKnees(uint64_t seed, size_t profiles) {
  std::vector<size_t> knees(profiles);
  for (size_t i = 0; i < profiles; ++i) {
    knees[i] = 15 + 5 * (i % kKneeLevels);
  }
  mfc::Rng rng(mfc::SplitMix64(seed ^ 0x7274u));
  rng.Shuffle(knees.begin(), knees.end());
  return knees;
}

// The crowd ladder of one profile: a base measurement round (MEASURE, one
// request per agent), crowds 5, 10, ... up to the knee, then the check phase
// at knee - 5, knee, knee + 5 (capped at the max crowd).
std::vector<size_t> CrowdLadder(size_t knee) {
  std::vector<size_t> ladder = {0};  // 0 = MEASURE round
  for (size_t crowd = 5; crowd <= knee; crowd += 5) {
    ladder.push_back(crowd);
  }
  for (size_t crowd : {knee - 5, knee, std::min(knee + 5, kMaxCrowd)}) {
    ladder.push_back(crowd);
  }
  return ladder;
}

// Counts every datagram a session hands to its transport (traced run only).
class CountingTransport : public mfc::Transport {
 public:
  CountingTransport(std::unique_ptr<mfc::Transport> inner, uint64_t& datagrams,
                    uint64_t& bytes, std::vector<std::string>& frames)
      : inner_(std::move(inner)), datagrams_(datagrams), bytes_(bytes), frames_(frames) {}

  void Send(std::string_view payload, const mfc::TransportAddress& to) override {
    ++datagrams_;
    bytes_ += payload.size();
    if (frames_.size() < kKeptFrames && payload.substr(0, 3) == "S1 ") {
      frames_.emplace_back(payload);
    }
    inner_->Send(payload, to);
  }
  void SetReceiver(RecvCallback on_datagram) override {
    inner_->SetReceiver(std::move(on_datagram));
  }
  mfc::TransportAddress LocalAddress() const override { return inner_->LocalAddress(); }
  mfc::TimerSource& clock() override { return inner_->clock(); }

  static constexpr size_t kKeptFrames = 20000;

 private:
  std::unique_ptr<mfc::Transport> inner_;
  uint64_t& datagrams_;
  uint64_t& bytes_;
  std::vector<std::string>& frames_;
};

struct RtTransportCounts {
  uint64_t datagrams = 0;
  uint64_t bytes = 0;
  std::vector<std::string> frames;  // data frames kept for the wire timing
};

mfc::SessionConfig RtSessionConfig(uint64_t conn) {
  mfc::SessionConfig config;
  config.conn = conn;
  config.retry.max_attempts = 10;
  config.retry.initial_backoff = mfc::Millis(25);
  config.retry.multiplier = 2.0;
  config.retry.max_backoff = mfc::Millis(200);
  return config;
}

// One coordinator Session and kAgents agent Sessions on a MemoryHub under
// virtual time, every endpoint behind a FaultedTransport (5% drop, 1%
// duplication). Every application message carries a unique serial (as its
// token, sample id or sequence number) so exactly-once delivery can be
// checked per message.
class RtWorld {
 public:
  RtWorld(uint64_t seed, SpanRecorder* recorder, RtTransportCounts* transport_counts)
      : clock_(loop_), hub_(clock_) {
    for (size_t e = 0; e <= kAgents; ++e) {
      mfc::FaultConfig faults;
      faults.drop_rate = kDropRate;
      faults.duplicate_rate = kDuplicateRate;
      faults.seed = mfc::SplitMix64(seed * 64 + e);
      injectors_.push_back(std::make_unique<mfc::FaultInjector>(faults));
      std::unique_ptr<mfc::Transport> transport = std::make_unique<mfc::FaultedTransport>(
          hub_.CreateEndpoint(), injectors_.back().get());
      if (transport_counts != nullptr) {
        transport = std::make_unique<CountingTransport>(
            std::move(transport), transport_counts->datagrams, transport_counts->bytes,
            transport_counts->frames);
      }
      addresses_.push_back(transport->LocalAddress());
      transports_.push_back(std::move(transport));
      sessions_.push_back(std::make_unique<mfc::Session>(*transports_.back(),
                                                         RtSessionConfig(e + 1)));
    }
    sessions_[0]->SetDeliveryHandler(
        [this](const mfc::ControlMessage& message, const mfc::TransportAddress&, uint64_t) {
          OnCoordinator(message);
        });
    for (size_t a = 1; a <= kAgents; ++a) {
      sessions_[a]->SetDeliveryHandler(
          [this, a](const mfc::ControlMessage& message, const mfc::TransportAddress&,
                    uint64_t) { OnAgent(a, message); });
    }
    // Registration (set-up, untraced): every agent announces itself.
    for (size_t a = 1; a <= kAgents; ++a) {
      uint64_t serial = Serial();
      Send(a, serial, mfc::MsgRegister{serial}, 0, mfc::kLaneControl);
    }
    Pump();
    recorder_ = recorder;
  }

  // Runs one site profile and returns its virtual duration in seconds.
  double RunProfile(uint32_t site, size_t knee) {
    site_ = site;
    double begin = loop_.Now();
    for (size_t crowd : CrowdLadder(knee)) {
      Scope round(recorder_, kRound, site_);
      // MEASURE/FIRE -> CMDACK.
      std::vector<std::pair<uint64_t, size_t>> commands;  // (token, connections) per agent
      for (size_t a = 1; a <= kAgents; ++a) {
        size_t connections =
            crowd == 0 ? 1 : crowd / kAgents + ((a - 1) < crowd % kAgents ? 1 : 0);
        uint64_t token = Serial();
        if (crowd == 0) {
          Send(0, token, mfc::MsgMeasure{token, "GET", 80, "/index.html"}, a,
               mfc::kLaneControl);
        } else {
          Send(0, token,
               mfc::MsgFire{token, static_cast<uint32_t>(connections), "GET", 80, "/large.bin",
                            0},
               a, mfc::kLaneControl);
          fired_ += connections;
        }
        commands.emplace_back(token, connections);
      }
      Pump();
      // One SAMPLE, with its STATS tail, per request.
      for (size_t a = 1; a <= kAgents; ++a) {
        auto [token, connections] = commands[a - 1];
        for (size_t k = 0; k < connections; ++k) {
          uint64_t id = Serial();
          mfc::MsgSample sample{token, 200, 150000 + id % 1000, 20000 + (id * 7919) % 50000,
                                false, id, AgentStatsOf(a)};
          Send(a, id, sample, 0, mfc::kLaneBulk);
        }
      }
      Pump();
      // PING/PONG health round.
      for (size_t a = 1; a <= kAgents; ++a) {
        uint64_t seq = Serial();
        Send(0, seq, mfc::MsgPing{seq}, a, mfc::kLaneControl);
      }
      Pump();
    }
    return loop_.Now() - begin;
  }

  // Every message sent since construction (set-up included) was delivered
  // exactly once, or at most once when its send gave up; returns how many
  // were not.
  size_t NotExactlyOnce() const {
    size_t bad = 0;
    for (size_t serial = 0; serial < delivered_.size(); ++serial) {
      const uint8_t count = delivered_[serial];
      bad += count == 1 || (count == 0 && gave_up_[serial] != 0) ? 0 : 1;
    }
    return bad;
  }
  // Sends whose outcome reported that attempts ran out.
  uint64_t GaveUp() const {
    uint64_t count = 0;
    for (uint8_t flag : gave_up_) {
      count += flag;
    }
    return count;
  }
  size_t Pending() const {
    size_t pending = 0;
    for (const auto& session : sessions_) {
      pending += session->PendingReliable();
    }
    return pending;
  }
  std::vector<mfc::SessionStats> Stats() const {
    std::vector<mfc::SessionStats> stats;
    for (const auto& session : sessions_) {
      stats.push_back(session->stats());
    }
    return stats;
  }
  uint64_t Messages() const { return delivered_.size(); }
  uint64_t Fired() const { return fired_; }

 private:
  uint64_t Serial() {
    delivered_.push_back(0);
    gave_up_.push_back(0);
    return delivered_.size() - 1;
  }
  void Delivered(uint64_t serial) {
    if (serial < delivered_.size() && delivered_[serial] < 255) {
      ++delivered_[serial];
    }
  }
  void Send(size_t from, uint64_t serial, const mfc::ControlMessage& message, size_t to,
            uint8_t lane) {
    Scope scope(recorder_, kSend, site_);
    sessions_[from]->SendReliable(message, addresses_[to], lane, [this, serial](bool delivered) {
      gave_up_[serial] = delivered ? 0 : 1;
    });
  }
  void Pump() {
    Scope scope(recorder_, kPump, site_);
    loop_.RunUntilIdle();
  }
  mfc::AgentStats AgentStatsOf(size_t a) const {
    mfc::AgentStats stats;
    stats.inflight = 1;
    stats.rtt_ewma_us = 40000 + a;
    stats.dedup_hits = sessions_[a]->stats().duplicates;
    stats.fault_drops = injectors_[a]->stats().dropped;
    stats.requests_fired = fired_;
    return stats;
  }
  void OnCoordinator(const mfc::ControlMessage& message) {
    if (const auto* ack = std::get_if<mfc::MsgCmdAck>(&message)) {
      Delivered(ack->token);
    } else if (const auto* sample = std::get_if<mfc::MsgSample>(&message)) {
      Delivered(sample->sample_id);
    } else if (const auto* pong = std::get_if<mfc::MsgPong>(&message)) {
      Delivered(pong->seq);
    } else if (const auto* reg = std::get_if<mfc::MsgRegister>(&message)) {
      Delivered(reg->client_id);
    }
  }
  void OnAgent(size_t a, const mfc::ControlMessage& message) {
    if (const auto* fire = std::get_if<mfc::MsgFire>(&message)) {
      Delivered(fire->token);
      uint64_t ack = Serial();
      Send(a, ack, mfc::MsgCmdAck{ack}, 0, mfc::kLaneControl);
    } else if (const auto* measure = std::get_if<mfc::MsgMeasure>(&message)) {
      Delivered(measure->token);
      uint64_t ack = Serial();
      Send(a, ack, mfc::MsgCmdAck{ack}, 0, mfc::kLaneControl);
    } else if (const auto* ping = std::get_if<mfc::MsgPing>(&message)) {
      Delivered(ping->seq);
      uint64_t pong = Serial();
      Send(a, pong, mfc::MsgPong{pong, AgentStatsOf(a)}, 0, mfc::kLaneControl);
    }
  }

  mfc::EventLoop loop_;
  mfc::SimTimerSource clock_;
  mfc::MemoryHub hub_;
  SpanRecorder* recorder_ = nullptr;
  uint32_t site_ = 0;
  std::vector<std::unique_ptr<mfc::FaultInjector>> injectors_;
  std::vector<std::unique_ptr<mfc::Transport>> transports_;
  std::vector<mfc::TransportAddress> addresses_;
  std::vector<std::unique_ptr<mfc::Session>> sessions_;  // destroyed before transports
  std::vector<uint8_t> delivered_;  // delivery count per message serial
  std::vector<uint8_t> gave_up_;    // 1 where the serial's send gave up
  uint64_t fired_ = 0;
};

auto StatsTuple(const mfc::SessionStats& s) {
  return std::make_tuple(s.frames_sent, s.retransmits, s.delivered, s.duplicates, s.acks_sent,
                         s.acks_received, s.gave_up, s.legacy_frames, s.decode_errors);
}

bool SameStats(const std::vector<mfc::SessionStats>& a,
               const std::vector<mfc::SessionStats>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (StatsTuple(a[i]) != StatsTuple(b[i])) {
      return false;
    }
  }
  return true;
}

mfc::SessionStats SumStats(const std::vector<mfc::SessionStats>& all) {
  mfc::SessionStats sum;
  for (const mfc::SessionStats& s : all) {
    sum.frames_sent += s.frames_sent;
    sum.retransmits += s.retransmits;
    sum.delivered += s.delivered;
    sum.duplicates += s.duplicates;
    sum.acks_sent += s.acks_sent;
    sum.acks_received += s.acks_received;
    sum.gave_up += s.gave_up;
  }
  return sum;
}

struct RtPass {
  double host_s = 0.0;
  uint64_t messages = 0;       // application messages sent in the timed profiles
  uint64_t fired = 0;          // crowd requests commanded
  double virtual_s = 0.0;      // summed virtual profile durations
  std::vector<mfc::SessionStats> stats;
  size_t not_exactly_once = 0;
  size_t pending = 0;
  uint64_t gave_up = 0;  // sends whose outcome reported a give-up
};

// A pass over |knees|; set-up (world construction and registration) is not
// timed. With a recorder, each profile is a "site" span numbered from
// |first_site| + 1.
RtPass RunRtPass(uint64_t seed, const std::vector<size_t>& knees, uint32_t first_site,
                 SpanRecorder* recorder, RtTransportCounts* transport_counts) {
  RtWorld world(seed, recorder, transport_counts);
  RtPass pass;
  uint64_t setup_messages = world.Messages();
  int64_t start = NowNs();
  for (size_t p = 0; p < knees.size(); ++p) {
    uint32_t site = first_site + static_cast<uint32_t>(p + 1);
    Scope scope(recorder, kRtSite, site);
    pass.virtual_s += world.RunProfile(site, knees[p]);
  }
  pass.host_s = static_cast<double>(NowNs() - start) * 1e-9;
  pass.messages = world.Messages() - setup_messages;
  pass.fired = world.Fired();
  pass.stats = world.Stats();
  pass.not_exactly_once = world.NotExactlyOnce();
  pass.pending = world.Pending();
  pass.gave_up = world.GaveUp();
  return pass;
}

// Worlds built per control-plane set-up sample, each under its own seed.
constexpr size_t kRtSetupWorlds = 64;

// The control plane's set-up: a world's hub, transports and Sessions, and
// the agents' registration. Returns host seconds per world; tear-down is not
// timed.
double TimeRtSetup(uint64_t seed) {
  int64_t total_ns = 0;
  for (size_t w = 0; w < kRtSetupWorlds; ++w) {
    int64_t start = NowNs();
    RtWorld world(mfc::SplitMix64(seed + w), nullptr, nullptr);
    total_ns += NowNs() - start;
  }
  return static_cast<double>(total_ns) * 1e-9 / kRtSetupWorlds;
}

void CheckRtPass(const RtPass& pass, const RtPass* reference, Checks& checks) {
  checks.Expect(pass.not_exactly_once == 0,
                std::to_string(pass.not_exactly_once) +
                    " control messages were not delivered exactly once");
  checks.Expect(pass.pending == 0, std::to_string(pass.pending) +
                                       " reliable transfers still pending after the pass");
  checks.Expect(pass.gave_up == SumStats(pass.stats).gave_up,
                "send outcomes and SessionStats disagree on give-ups");
  if (reference != nullptr) {
    checks.Expect(SameStats(pass.stats, reference->stats),
                  "SessionStats differ between repeats of the same inputs");
    checks.Expect(pass.virtual_s == reference->virtual_s,
                  "virtual profile time differs between repeats");
  }
}

// Times the session codec on the workload's own frames: decode each kept
// frame, re-encode the decoded frame (which must reproduce the bytes), and
// return (encode ns, decode ns) per frame.
std::pair<double, double> TimeWire(const std::vector<std::string>& frames, Checks& checks) {
  if (frames.empty()) {
    return {0.0, 0.0};
  }
  std::vector<mfc::SessionFrame> decoded;
  decoded.reserve(frames.size());
  size_t round_trip_errors = 0;
  int64_t start = NowNs();
  for (const std::string& frame : frames) {
    std::optional<mfc::SessionFrame> parsed = mfc::DecodeSessionFrame(frame);
    if (parsed.has_value()) {
      decoded.push_back(std::move(*parsed));
    } else {
      ++round_trip_errors;
    }
  }
  double decode_ns = static_cast<double>(NowNs() - start) / static_cast<double>(frames.size());
  std::vector<std::string> encoded;
  encoded.reserve(decoded.size());
  start = NowNs();
  for (const mfc::SessionFrame& frame : decoded) {
    encoded.push_back(mfc::EncodeSessionFrame(frame));
  }
  double encode_ns = static_cast<double>(NowNs() - start) / static_cast<double>(frames.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    round_trip_errors += encoded[i] == frames[i] ? 0 : 1;
  }
  checks.Expect(round_trip_errors == 0, std::to_string(round_trip_errors) +
                                            " workload frames fail the codec round trip");
  return {encode_ns, decode_ns};
}

// ---- runs ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string work_dir = ".bench_build/surveybench-work";
  std::string commit = "unknown";
};

struct Result {
  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  Detail detail;
};

void PrintResult(const Result& result) {
  printf("%s\n", result.detail.Json().c_str());
  std::string metrics;
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    metrics += (i == 0 ? "" : ", ") + Quote(m.name) + ": {\"value\": " + Num(m.value) +
               ", \"unit\": " + Quote(m.unit) + "}";
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
         result.checks.Ok() ? "true" : "false",
         static_cast<unsigned long long>(result.attempted),
         static_cast<unsigned long long>(result.failed), metrics.c_str());
  fflush(stdout);
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double value : values) {
    sum += value;
  }
  return sum;
}

uint64_t DigestResults(const std::vector<mfc::ExperimentResult>& results) {
  uint64_t digest = Fnv1a("sentinel");
  for (const mfc::ExperimentResult& result : results) {
    digest = Fnv1a(mfc::EncodeExperimentResult(result), digest);
  }
  return digest;
}

void RunSurvey(const Args& args, const Workload& workload, Result& result) {
  const size_t per_cohort =
      WholeChunks(args.seconds * workload.sites_per_second /
                      static_cast<double>(workload.cohorts.size()),
                  kChunkSites);
  const std::vector<Chunk> chunks = SurveyChunks(workload, args.seed, per_cohort);
  const uint64_t input_digest = SurveyInputDigest(chunks);
  const std::string fingerprint =
      std::string(workload.name) + " seed=" + std::to_string(args.seed);
  auto fresh_journal = [&]() -> std::unique_ptr<TempJournal> {
    if (!workload.journal) {
      return nullptr;
    }
    std::string error;
    auto journal = TempJournal::Create(args.work_dir, fingerprint, &error);
    result.checks.Expect(journal != nullptr, "journal: " + error);
    return journal;
  };
  result.detail.Str("input_digest", Hex(input_digest));
  auto journal_of = [](std::unique_ptr<TempJournal>& temp) {
    return temp != nullptr ? &temp->Journal() : nullptr;
  };
  double total_sites = 0.0;
  for (const Chunk& chunk : chunks) {
    total_sites += static_cast<double>(chunk.sites);
  }

  if (!args.trace) {
    // Every chunk once, placed and bracketed by sentinel probes. The
    // sentinel's outputs must repeat exactly every time it runs.
    const Chunk sentinel{workload.cohorts[0], workload.sentinel_seed, 1};
    uint64_t sentinel_digest = 0;
    size_t sentinel_runs = 0;
    auto run_sentinel = [&] {
      std::vector<mfc::ExperimentResult> per_site;
      double seconds = RunChunk(workload, sentinel, nullptr, &per_site, result.checks);
      uint64_t digest = DigestResults(per_site);
      result.checks.Expect(sentinel_runs++ == 0 || digest == sentinel_digest,
                           "sentinel outputs differ between repeats");
      sentinel_digest = digest;
      return seconds;
    };
    Placement placement;
    SentinelLog log;
    std::vector<double> probe;
    SurveyOutputs outputs;
    for (size_t k = 0; k < chunks.size(); ++k) {
      // Journals open untimed: their fsync latency is the disk's.
      std::unique_ptr<TempJournal> journal = fresh_journal();
      std::vector<mfc::ExperimentResult> per_site;
      PlacedChunk(
          placement, run_sentinel, [&] { return TimeSurveySetup(chunks[k]); },
          [&] { return RunChunk(workload, chunks[k], journal_of(journal), &per_site,
                                result.checks); },
          log, probe);
      for (const mfc::ExperimentResult& site : per_site) {
        outputs.Add(mfc::EncodeExperimentResult(site), site);
      }
      // The first chunk of each cohort also checks the decomposition the
      // traced run uses against the survey driver (untimed).
      if (k == 0 || chunks[k].cohort != chunks[k - 1].cohort) {
        mfc::SiteStream stream(chunks[k].cohort, chunks[k].seed, chunks[k].sites, false);
        for (size_t i = 0; i < std::min(kCheckSites, chunks[k].sites); ++i) {
          mfc::ExperimentResult again =
              DecomposeSite(stream, i, workload.stage, nullptr, 0, nullptr, nullptr);
          result.checks.Expect(
              mfc::EncodeExperimentResult(again) == mfc::EncodeExperimentResult(per_site[i]),
              std::string(mfc::CohortName(chunks[k].cohort)) + " site " + std::to_string(i) +
                  ": decomposition differs from the survey driver");
        }
      }
      if (journal != nullptr) {
        CheckJournal(*journal, per_site, result.checks);
      }
    }
    const double host_s = CorrectedTime(log, kReferenceKernelS);
    result.attempted = static_cast<uint64_t>(total_sites);
    result.failed = outputs.outcomes.aborted;
    result.metrics = {
        {"sites_per_s", total_sites / host_s, "sites/s"},
        {"msgs_per_s", outputs.probe_requests / host_s, "msgs/s"},
        {"completed_frac", outputs.outcomes.CompletedFrac(), "ratio"},
        {"setup_s", CorrectedSetup(log, kReferenceKernelS), "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
        {"probe_reqs_per_site", Ratio(outputs.probe_requests, total_sites), "reqs"},
        {"profile_sim_s_per_site",
         Ratio(outputs.stage_sim_s, static_cast<double>(outputs.staged_sites)), "sim_s"},
    };
    result.detail.Str("output_digest", Hex(outputs.Digest()));
    result.detail.Num("sites", total_sites);
    result.detail.Num("chunks", static_cast<double>(chunks.size()));
    result.detail.Num("corrected_s", host_s);
    result.detail.Num("raw_s", Sum(log.chunk));
    result.detail.Num("raw_sites_per_s", total_sites / Sum(log.chunk));
    result.detail.Num("cpus", static_cast<double>(placement.Cpus()));
    result.detail.Num("kernel_floor_s", Floor(log.kernel));
    result.detail.Add("chunk_s", NumList(log.chunk));
    result.detail.Add("setup_raw_s", NumList(log.setup));
    result.detail.Add("sentinel_best_s", NumList(log.best));
    result.detail.Num("failed_frac", outputs.outcomes.FailedFrac());
    result.detail.Num("aborted_sites", static_cast<double>(outputs.outcomes.aborted));
    result.detail.Num("stageless_sites", static_cast<double>(outputs.outcomes.stageless));
    return;
  }

  // Traced: every third chunk runs untraced through the survey driver and
  // as the traced decomposition, each with its own journal, alternating
  // which goes first so neither always runs on the warmer caches.
  SpanRecorder recorder(SurveySpanNames());
  SurveyLayerInputs layer;
  SurveyOutputs outputs;
  for (size_t k = 0; k < chunks.size(); k += kTraceEvery) {
    const Chunk& chunk = chunks[k];
    std::unique_ptr<TempJournal> journal = fresh_journal();
    std::unique_ptr<TempJournal> traced_journal = fresh_journal();
    std::vector<mfc::ExperimentResult> per_site;
    std::vector<mfc::ExperimentResult> traced;
    auto run_traced = [&] {
      layer.traced_s += TraceChunk(workload, chunk, journal_of(traced_journal), recorder, layer,
                                   traced, result.checks);
    };
    const bool traced_first = (k / kTraceEvery) % 2 == 1;
    if (traced_first) {
      run_traced();
    }
    layer.untraced_s += RunChunk(workload, chunk, journal_of(journal), &per_site, result.checks);
    if (!traced_first) {
      run_traced();
    }
    size_t mismatches = 0;
    for (size_t i = 0; i < per_site.size(); ++i) {
      mismatches += mfc::EncodeExperimentResult(traced[i]) ==
                            mfc::EncodeExperimentResult(per_site[i])
                        ? 0
                        : 1;
    }
    result.checks.Expect(mismatches == 0, std::string(mfc::CohortName(chunk.cohort)) + ": " +
                                              std::to_string(mismatches) +
                                              " sites differ between traced and untraced runs");
    for (const mfc::ExperimentResult& site : per_site) {
      outputs.Add(mfc::EncodeExperimentResult(site), site);
    }
    if (journal != nullptr && traced_journal != nullptr) {
      CheckJournal(*journal, per_site, result.checks);
      result.checks.Expect(ReadFile(journal->Path()) == ReadFile(traced_journal->Path()),
                           "traced journal bytes differ from the survey driver's journal");
      std::error_code ignored;
      layer.journal_bytes += fs::file_size(traced_journal->Path(), ignored);
    }
  }
  WriteSpans(recorder, args.work_dir + "/trace-" + workload.name + ".csv");
  layer.totals = TotalSpans(recorder.Spans(), kSurveySpanCount);
  layer.journal = workload.journal;
  result.metrics = SurveyLayerMetrics(layer);
  result.attempted = 2 * outputs.outcomes.attempted;
  result.failed = 2 * outputs.outcomes.aborted;
  result.detail.Str("output_digest", Hex(outputs.Digest()));
  result.detail.Num("untraced_s", layer.untraced_s);
  result.detail.Num("traced_s", layer.traced_s);
  result.detail.Num("site_self_s", static_cast<double>(layer.totals.self_ns[kSite]) * 1e-9);
  result.detail.Num("deploy_self_s", static_cast<double>(layer.totals.self_ns[kDeploy]) * 1e-9);
  result.detail.Num("spans", static_cast<double>(recorder.Spans().size()));
}

// Control-plane chunks: slices of the stratified knee list, each run in a
// fresh world under its own seed. The sentinel is one profile per knee level
// under a fixed seed.
struct RtChunk {
  uint64_t seed;
  std::vector<size_t> knees;
};

constexpr size_t kRtChunkProfiles = 300;
constexpr size_t kRtSpannedChunks = 1;  // traced chunks whose spans are kept

std::vector<RtChunk> RtChunks(uint64_t seed, size_t profiles) {
  const std::vector<size_t> knees = RtKnees(seed, profiles);
  std::vector<RtChunk> chunks;
  for (size_t first = 0; first < knees.size(); first += kRtChunkProfiles) {
    size_t last = std::min(knees.size(), first + kRtChunkProfiles);
    chunks.push_back({mfc::SplitMix64(seed * 4096 + chunks.size()),
                      std::vector<size_t>(knees.begin() + first, knees.begin() + last)});
  }
  return chunks;
}

void RunControlPlane(const Args& args, const Workload& workload, Result& result) {
  const size_t profiles =
      WholeChunks(args.seconds * workload.sites_per_second, kRtChunkProfiles);
  const std::vector<RtChunk> chunks = RtChunks(args.seed, profiles);

  if (!args.trace) {
    const RtChunk sentinel{mfc::SplitMix64(args.seed ^ 0x73656e74u), RtKnees(0, kKneeLevels)};
    std::optional<RtPass> sentinel_first;
    auto run_sentinel = [&] {
      RtPass pass = RunRtPass(sentinel.seed, sentinel.knees, 0, nullptr, nullptr);
      CheckRtPass(pass, sentinel_first ? &*sentinel_first : nullptr, result.checks);
      double seconds = pass.host_s;
      if (!sentinel_first) {
        sentinel_first = std::move(pass);
      }
      return seconds;
    };
    Placement placement;
    SentinelLog log;
    std::vector<double> probe;
    double messages = 0.0;
    double fired = 0.0;
    double virtual_s = 0.0;
    std::vector<mfc::SessionStats> all;
    for (const RtChunk& chunk : chunks) {
      std::optional<RtPass> pass;
      PlacedChunk(
          placement, run_sentinel, [&] { return TimeRtSetup(chunk.seed); },
          [&] {
            pass = RunRtPass(chunk.seed, chunk.knees, 0, nullptr, nullptr);
            return pass->host_s;
          },
          log, probe);
      CheckRtPass(*pass, nullptr, result.checks);
      messages += static_cast<double>(pass->messages);
      fired += static_cast<double>(pass->fired);
      virtual_s += pass->virtual_s;
      all.insert(all.end(), pass->stats.begin(), pass->stats.end());
    }
    const mfc::SessionStats sum = SumStats(all);
    const double host_s = CorrectedTime(log, kReferenceKernelS);
    const double n = static_cast<double>(profiles);
    result.attempted = static_cast<uint64_t>(messages);
    result.failed = sum.gave_up;
    result.metrics = {
        {"sites_per_s", n / host_s, "sites/s"},
        {"msgs_per_s", messages / host_s, "msgs/s"},
        {"completed_frac", 1.0 - Ratio(static_cast<double>(sum.gave_up), messages), "ratio"},
        {"setup_s", CorrectedSetup(log, kReferenceKernelS), "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
        {"probe_reqs_per_site", Ratio(fired, n), "reqs"},
        {"profile_sim_s_per_site", Ratio(virtual_s, n), "sim_s"},
    };
    uint64_t digest = Fnv1a("rt");
    for (const mfc::SessionStats& s : all) {
      std::apply([&](auto... v) { ((digest = Fnv1a(std::to_string(v) + " ", digest)), ...); },
                 StatsTuple(s));
    }
    result.detail.Str("output_digest", Hex(digest));
    result.detail.Num("profiles", n);
    result.detail.Num("chunks", static_cast<double>(chunks.size()));
    result.detail.Num("corrected_s", host_s);
    result.detail.Num("raw_s", Sum(log.chunk));
    result.detail.Num("raw_msgs_per_s", messages / Sum(log.chunk));
    result.detail.Num("cpus", static_cast<double>(placement.Cpus()));
    result.detail.Num("kernel_floor_s", Floor(log.kernel));
    result.detail.Add("chunk_s", NumList(log.chunk));
    result.detail.Add("setup_raw_s", NumList(log.setup));
    result.detail.Add("sentinel_best_s", NumList(log.best));
    result.detail.Num("messages", messages);
    result.detail.Num("retransmits", static_cast<double>(sum.retransmits));
    result.detail.Num("duplicates", static_cast<double>(sum.duplicates));
    result.detail.Num("failed_frac", Ratio(static_cast<double>(sum.gave_up), messages));
    return;
  }

  // Traced: every third chunk runs untraced and traced, alternating which
  // goes first, and the traced pass must repeat the SessionStats exactly.
  // Spans and counts are kept for the first kRtSpannedChunks of them; later
  // ones trace into a throwaway recorder so they cost the same.
  SpanRecorder recorder(RtSpanNames());
  RtTransportCounts transport;
  std::vector<mfc::SessionStats> all;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  size_t spanned = 0;
  for (size_t k = 0; k < chunks.size(); k += kTraceEvery) {
    const uint32_t first_site = static_cast<uint32_t>(k * kRtChunkProfiles);
    const bool keep = spanned < kRtSpannedChunks;
    SpanRecorder scratch(RtSpanNames());
    RtTransportCounts scratch_transport;
    auto run_traced = [&] {
      return RunRtPass(chunks[k].seed, chunks[k].knees, first_site, keep ? &recorder : &scratch,
                       keep ? &transport : &scratch_transport);
    };
    const bool traced_first = (k / kTraceEvery) % 2 == 1;
    std::optional<RtPass> traced_pass;
    if (traced_first) {
      traced_pass = run_traced();
    }
    RtPass plain = RunRtPass(chunks[k].seed, chunks[k].knees, first_site, nullptr, nullptr);
    if (!traced_first) {
      traced_pass = run_traced();
    }
    const RtPass& traced = *traced_pass;
    CheckRtPass(plain, nullptr, result.checks);
    untraced_s += plain.host_s;
    CheckRtPass(traced, &plain, result.checks);
    traced_s += traced.host_s;
    if (keep) {
      ++spanned;
      all.insert(all.end(), traced.stats.begin(), traced.stats.end());
    }
  }
  WriteSpans(recorder, args.work_dir + "/trace-" + workload.name + ".csv");
  const mfc::SessionStats sum = SumStats(all);
  RtLayerInputs in;
  in.totals = TotalSpans(recorder.Spans(), kRtSpanCount);
  in.frames_sent = sum.frames_sent;
  in.retransmits = sum.retransmits;
  in.delivered = sum.delivered;
  in.duplicates = sum.duplicates;
  in.gave_up = sum.gave_up;
  in.datagrams = transport.datagrams;
  in.bytes = transport.bytes;
  std::tie(in.encode_ns, in.decode_ns) = TimeWire(transport.frames, result.checks);
  in.untraced_s = untraced_s;
  in.traced_s = traced_s;
  result.metrics = RtLayerMetrics(in);
  result.attempted = 2 * sum.delivered;
  result.failed = 2 * sum.gave_up;
  result.detail.Num("profiles_spanned", static_cast<double>(spanned * kRtChunkProfiles));
  result.detail.Num("untraced_s", in.untraced_s);
  result.detail.Num("traced_s", in.traced_s);
  result.detail.Num("round_self_s", static_cast<double>(in.totals.self_ns[kRound]) * 1e-9);
  result.detail.Num("site_self_s", static_cast<double>(in.totals.self_ns[kRtSite]) * 1e-9);
  result.detail.Num("frames_timed", static_cast<double>(transport.frames.size()));
  result.detail.Num("spans", static_cast<double>(recorder.Spans().size()));
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "survey_bench: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    auto number = [&](const char* flag, double* out) {
      const char* text = value(flag);
      if (text == nullptr) {
        return false;
      }
      char* end = nullptr;
      *out = strtod(text, &end);
      if (end == text || *end != '\0' || *out < 0) {
        fprintf(stderr, "survey_bench: bad %s value '%s'\n", flag, text);
        return false;
      }
      return true;
    };
    double parsed = 0.0;
    if (arg == "--workload") {
      const char* text = value("--workload");
      if (text == nullptr) return false;
      args.workload = text;
    } else if (arg == "--seed") {
      if (!number("--seed", &parsed)) return false;
      args.seed = static_cast<uint64_t>(parsed);
    } else if (arg == "--seconds") {
      if (!number("--seconds", &parsed)) return false;
      args.seconds = parsed;
    } else if (arg == "--trace") {
      if (!number("--trace", &parsed) || (parsed != 0 && parsed != 1)) return false;
      args.trace = parsed == 1;
    } else if (arg == "--work-dir") {
      const char* text = value("--work-dir");
      if (text == nullptr) return false;
      args.work_dir = text;
    } else if (arg == "--commit") {
      const char* text = value("--commit");
      if (text == nullptr) return false;
      args.commit = text;
    } else if (arg == "--self-test") {
      args.self_test = true;
    } else {
      fprintf(stderr, "survey_bench: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    return 2;
  }
  if (args.self_test) {
    int failures = RunSelfTests();
    fprintf(stderr, "survey_bench: self-test %s\n", failures == 0 ? "passed" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    fprintf(stderr, "survey_bench: unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!Comparable()) {
    fprintf(stderr,
            "survey_bench: refusing to measure a %s build (sanitizer '%s', asserts %s); "
            "only Release builds are comparable\n",
            SURVEYBENCH_BUILD_TYPE, kSanitizer, kAssertsOff ? "off" : "on");
    return 3;
  }
  std::error_code error;
  fs::create_directories(args.work_dir, error);
  if (error) {
    fprintf(stderr, "survey_bench: cannot create %s\n", args.work_dir.c_str());
    return 2;
  }

  Result result;
  result.detail.Str("workload", workload->name);
  result.detail.Num("seed", static_cast<double>(args.seed));
  result.detail.Add("trace", args.trace ? "1" : "0");
  AddProvenance(result.detail, args.commit, args.work_dir);
  if (workload->kind == Kind::kSurvey) {
    RunSurvey(args, *workload, result);
  } else {
    RunControlPlane(args, *workload, result);
  }
  if (result.metrics.empty()) {
    fprintf(stderr, "survey_bench: %s produced no measurement\n", workload->name);
    return 1;
  }
  result.detail.Num("checks", static_cast<double>(result.checks.Count()));
  std::string failures = "[";
  for (size_t i = 0; i < result.checks.Failures().size(); ++i) {
    failures += (i == 0 ? "" : ", ") + Quote(result.checks.Failures()[i]);
  }
  result.detail.Add("check_failures", failures + "]");
  PrintResult(result);
  return result.checks.Ok() ? 0 : 1;
}

}  // namespace
}  // namespace surveybench

int main(int argc, char** argv) { return surveybench::Main(argc, argv); }
