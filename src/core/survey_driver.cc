#include "src/core/survey_driver.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/core/arg_parse.h"
#include "src/core/export.h"
#include "src/core/journal/shutdown.h"
#include "src/core/parallel_runner.h"

namespace mfc {

const char kSurveyFlagsUsage[] =
    "  --jobs=<N>            survey worker threads (default: MFC_JOBS env, then cores)\n"
    "  --shards=<K>          split the survey across K cooperating processes; this one\n"
    "                        runs sites with index % K == --shard-index (needs --journal)\n"
    "  --shard-index=<J>     this process's shard (default 0)\n"
    "  --legacy-seeds        old seed derivation (sequential sampling, seed*1000+i;\n"
    "                        collides past 1000 sites) for replaying old journals\n"
    "  --json=<path>         write the result as JSON\n"
    "  --trace=<path>        write request/coordinator spans as Chrome trace JSON\n"
    "  --metrics=<path>      write the (merged) metrics registry as CSV\n"
    "  --journal=<path>      write-ahead journal: completed experiments are appended\n"
    "                        + fsynced; surveys drain gracefully on SIGINT/SIGTERM\n"
    "  --resume              replay already-journaled experiments from --journal\n"
    "  --stats-stream=<path> stream runtime health snapshots as JSONL ('-' = stdout)\n"
    "  --stats-interval=<S>  snapshot cadence in seconds (wall-clock for surveys,\n"
    "                        simulated time for single experiments; default 1)\n"
    "  --progress            verbose per-site survey lines on stderr (default: a\n"
    "                        rate-limited progress line, terminal only)\n";

FlagMatch ParseSurveyFlag(const std::string& arg, SurveyFlags* flags) {
  std::string v;
  auto value_of = [&arg, &v](const char* prefix) {
    size_t n = strlen(prefix);
    if (arg.compare(0, n, prefix) != 0) {
      return false;
    }
    v = arg.substr(n);
    return true;
  };
  bool ok = true;
  if (value_of("--jobs=")) {
    ok = ParseSizeFlag("--jobs", v, &flags->jobs);
  } else if (value_of("--shards=")) {
    ok = ParseSizeFlag("--shards", v, &flags->shards);
  } else if (value_of("--shard-index=")) {
    ok = ParseSizeFlag("--shard-index", v, &flags->shard_index);
  } else if (arg == "--legacy-seeds") {
    flags->legacy_seeds = true;
  } else if (value_of("--json=")) {
    flags->json_path = v;
  } else if (value_of("--trace=")) {
    flags->trace_path = v;
  } else if (value_of("--metrics=")) {
    flags->metrics_path = v;
  } else if (value_of("--journal=")) {
    flags->journal_path = v;
  } else if (arg == "--resume") {
    flags->resume = true;
  } else if (value_of("--stats-stream=")) {
    flags->stats_stream_path = v;
  } else if (value_of("--stats-interval=")) {
    ok = ParseDoubleFlag("--stats-interval", v, &flags->stats_interval);
  } else if (arg == "--progress") {
    flags->progress = true;
  } else {
    return FlagMatch::kUnknown;
  }
  return ok ? FlagMatch::kMatched : FlagMatch::kInvalid;
}

bool ValidateSurveyFlags(const SurveyFlags& flags, ShardMode mode) {
  if (flags.resume && flags.journal_path.empty()) {
    fprintf(stderr, "--resume requires --journal=<path>\n");
    return false;
  }
  if (flags.shards == 0) {
    fprintf(stderr, "--shards must be >= 1\n");
    return false;
  }
  if (flags.shard_index >= flags.shards) {
    fprintf(stderr, "--shard-index=%zu out of range for --shards=%zu\n", flags.shard_index,
            flags.shards);
    return false;
  }
  if (flags.shards == 1 || mode == ShardMode::kSupervised) {
    return true;
  }
  if (mode == ShardMode::kJournaled && flags.journal_path.empty()) {
    // Without journals there is nothing to merge: a sharded run's only
    // durable output is its journal.
    fprintf(stderr, "--shards requires --journal=<path> (shards are merged from journals)\n");
    return false;
  }
  if (!flags.json_path.empty()) {
    fprintf(stderr,
            "--json with --shards > 1 would be a partial report; use --merge after the "
            "shards finish\n");
    return false;
  }
  return true;
}

std::unique_ptr<SurveyJournal> OpenJournal(const std::string& path, const std::string& tool,
                                           const std::string& fingerprint, bool resume) {
  std::string error;
  std::unique_ptr<SurveyJournal> journal =
      SurveyJournal::Open(path, tool, fingerprint, resume, &error);
  if (journal == nullptr) {
    fprintf(stderr, "journal error: %s\n", error.c_str());
    return nullptr;
  }
  if (!journal->Warning().empty()) {
    fprintf(stderr, "journal warning: %s\n", journal->Warning().c_str());
  }
  return journal;
}

std::unique_ptr<StatsStream> OpenStatsStream(const std::string& path) {
  std::string error;
  std::unique_ptr<StatsStream> stats = StatsStream::Open(path, &error);
  if (stats == nullptr) {
    fprintf(stderr, "%s\n", error.c_str());
  }
  return stats;
}

bool WriteOutputFile(const std::string& path, const std::string& contents) {
  if (!WriteFileAtomic(path, contents)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  printf("wrote %s\n", path.c_str());
  return true;
}

SurveyDriver::SurveyDriver(const SurveyFlags& flags)
    : flags_(flags), jobs_(ResolveJobs(flags.jobs)) {
  run_.shards = flags.shards;
  run_.shard_index = flags.shard_index;
  run_.legacy_seeds = flags.legacy_seeds;
  telemetry_.collect_trace = !flags.trace_path.empty();
  telemetry_.collect_metrics = !flags.metrics_path.empty();
  telemetry_.progress = flags.progress;
  telemetry_.stats_interval = flags.stats_interval;
}

ExitCode SurveyDriver::Open(const std::string& tool, const std::string& fingerprint) {
  // Health plane: the verbose per-site lines are opt-in (--progress); by
  // default a rate-limited terminal line and/or the --stats-stream JSONL
  // feed report progress instead.
  if (!flags_.stats_stream_path.empty()) {
    stats_ = OpenStatsStream(flags_.stats_stream_path);
    if (stats_ == nullptr) {
      return kExitUsage;
    }
    telemetry_.stats = stats_.get();
  }
  if (!flags_.progress && progress_line_.Enabled()) {
    telemetry_.progress_line = &progress_line_;
  }
  if (!flags_.journal_path.empty()) {
    journal_ = OpenJournal(flags_.journal_path, tool, fingerprint, flags_.resume);
    if (journal_ == nullptr) {
      return kExitJournal;  // permanent: the same argv fails the same way
    }
    ClearShutdownRequest();
    InstallShutdownHandlers();
  }
  return kExitOk;
}

ExitCode SurveyDriver::RunCohort(const SurveyCohortRun& run, SurveyBreakdown* breakdown,
                                 std::vector<ExperimentResult>* per_site) {
  if (journal_ != nullptr) {
    if (ShutdownRequested()) {
      skipped_ = true;
      return kExitInterrupted;
    }
    std::string error;
    if (!journal_->BeginCohort(run.cohort, run.stage, run.servers, run.max_crowd, run.seed,
                               telemetry_.next_pid, &error, run_.shards, run_.shard_index,
                               run_.legacy_seeds)) {
      fprintf(stderr, "journal error: %s\n", error.c_str());
      return kExitJournal;
    }
  }
  telemetry_.stats_label = std::string(CohortName(run.cohort));
  SurveyTelemetry* telemetry =
      telemetry_.Enabled() || telemetry_.progress || telemetry_.HealthAttached() ? &telemetry_
                                                                                 : nullptr;
  *breakdown = RunSurveyCohortParallel(run.cohort, run.stage, run.servers, run.max_crowd,
                                       run.seed, jobs_, per_site, telemetry, journal_.get(),
                                       run_);
  return kExitOk;
}

bool SurveyDriver::Interrupted() const {
  return skipped_ || (journal_ != nullptr && journal_->interrupted.load());
}

ExitCode SurveyDriver::Finish() {
  const bool interrupted = Interrupted();
  if (journal_ != nullptr) {
    journal_->Sync();
    if (interrupted) {
      fprintf(stderr, "interrupted: %zu site(s) journaled; resume with --journal=%s --resume\n",
              journal_->resumed_sites.load() + journal_->executed_sites.load(),
              journal_->Path().c_str());
    }
  }
  // A non-zero stall count means some allocation pass left flows pinned at
  // rate 0 (see FlowNetworkStats::no_progress): results are suspect.
  double stalls =
      telemetry_.collect_metrics ? telemetry_.metrics.Counter("flow_network.no_progress") : 0.0;
  if (stalls > 0.0) {
    fprintf(stderr, "warning: flow_network.no_progress = %.0f (water-filling stalls)\n", stalls);
  }
  bool written = true;
  if (telemetry_.collect_trace) {
    written &= WriteOutputFile(flags_.trace_path, ExportTraceJson(telemetry_.trace));
  }
  if (telemetry_.collect_metrics) {
    written &= WriteOutputFile(flags_.metrics_path, ExportMetricsCsv(telemetry_.metrics));
  }
  if (!written) {
    return kExitAborted;
  }
  return interrupted ? kExitInterrupted : kExitOk;
}

namespace {

void PrintBreakdownHeader() {
  printf("%-20s %-8s %-7s %-7s %-7s %-7s %-7s %-7s %-8s %-10s\n", "cohort", "servers",
         "<=10", "10-20", "20-30", "30-40", "40-50", ">50", "NoStop", "stop frac");
}

void PrintBreakdownRow(const SurveyBreakdown& b) {
  auto pct = [&](size_t n) {
    char buf[16];
    double v = b.servers == 0 ? 0.0 : 100.0 * static_cast<double>(n) /
                                          static_cast<double>(b.servers);
    snprintf(buf, sizeof(buf), "%.0f%%", v);
    return std::string(buf);
  };
  printf("%-20s %-8zu %-7s %-7s %-7s %-7s %-7s %-7s %-8s %-10s\n",
         std::string(CohortName(b.cohort)).c_str(), b.servers, pct(b.b10).c_str(),
         pct(b.b20).c_str(), pct(b.b30).c_str(), pct(b.b40).c_str(), pct(b.b50).c_str(),
         pct(b.b50plus).c_str(), pct(b.nostop).c_str(), pct(b.servers - b.nostop).c_str());
}

// The bench --json record. The journal audit fields appear only with
// --journal and span_totals / flow_network only with --metrics, so a plain
// run's record keeps its original shape.
std::string BuildPresetJson(const char* name, const SurveyDriver& driver, double wall_seconds,
                            const std::vector<SurveyBreakdown>& breakdowns) {
  std::string json;
  auto add = [&json](const char* format, auto... args) {
    char line[512];
    snprintf(line, sizeof(line), format, args...);
    json += line;
  };
  add("{\n  \"bench\": \"%s\",\n  \"jobs\": %zu,\n", name, driver.Jobs());
  if (const SurveyJournal* journal = driver.Journal()) {
    add("  \"resumed_sites\": %zu,\n  \"executed_sites\": %zu,\n  \"interrupted\": %s,\n",
        journal->resumed_sites.load(), journal->executed_sites.load(),
        driver.Interrupted() ? "true" : "false");
    if (driver.Interrupted()) {
      add("  \"resume_hint\": \"--journal=%s --resume\",\n", journal->Path().c_str());
    }
  }
  add("  \"wall_seconds\": %.6f,\n  \"breakdowns\": [\n", wall_seconds);
  for (size_t i = 0; i < breakdowns.size(); ++i) {
    const SurveyBreakdown& b = breakdowns[i];
    add("    {\"cohort\": \"%s\", \"servers\": %zu, \"le10\": %zu, \"b20\": %zu, "
        "\"b30\": %zu, \"b40\": %zu, \"b50\": %zu, \"gt50\": %zu, \"nostop\": %zu}%s\n",
        std::string(CohortName(b.cohort)).c_str(), b.servers, b.b10, b.b20, b.b30, b.b40, b.b50,
        b.b50plus, b.nostop, i + 1 < breakdowns.size() ? "," : "");
  }
  const SurveyTelemetry& telemetry = driver.Telemetry();
  if (!telemetry.collect_metrics) {
    return json + "  ]\n}\n";
  }
  // Per-stage span-time breakdown: seconds of simulated time each request
  // spent per lifecycle phase, summed over every surveyed site.
  json += "  ],\n  \"span_totals\": {\n";
  const MetricsRegistry& m = telemetry.metrics;
  const char* separator = "";
  for (const char* stage : {"Base", "SmallQuery", "LargeObject"}) {
    std::string prefix = std::string("span.") + stage + ".";
    double count = m.Counter(prefix + "count");
    if (count == 0.0) {
      continue;
    }
    add("%s    \"%s\": {\"count\": %.0f, \"queue_s\": %.9g, \"cpu_s\": %.9g, \"db_s\": %.9g, "
        "\"disk_s\": %.9g, \"net_s\": %.9g}",
        separator, stage, count, m.Counter(prefix + "queue_s"), m.Counter(prefix + "cpu_s"),
        m.Counter(prefix + "db_s"), m.Counter(prefix + "disk_s"), m.Counter(prefix + "net_s"));
    separator = ",\n";
  }
  // Allocator health: water-filling passes that made no progress; always 0
  // in a healthy run (see FlowNetworkStats::no_progress).
  add("\n  },\n  \"flow_network\": {\"no_progress\": %.0f}\n}\n",
      m.Counter("flow_network.no_progress"));
  return json;
}

}  // namespace

int RunSurveyPreset(int argc, char** argv, const SurveyPreset& preset) {
  SurveyFlags flags;
  size_t servers_override = 0;  // 0 = the paper's per-row counts
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    FlagMatch match = ParseSurveyFlag(arg, &flags);
    if (match == FlagMatch::kInvalid) {
      return kExitUsage;
    }
    if (match == FlagMatch::kMatched) {
      continue;
    }
    if (arg.empty() || arg[0] == '-') {
      fprintf(stderr, "unknown flag '%s'\nusage: %s [<servers>] [flags]\n%s", arg.c_str(),
              preset.name, kSurveyFlagsUsage);
      return kExitUsage;
    }
    if (!ParseSizeFlag("<servers>", arg, &servers_override)) {
      return kExitUsage;
    }
  }
  if (!ValidateSurveyFlags(flags)) {
    return kExitUsage;
  }

  printf("==============================================================================\n");
  printf("%s\nReproduces: %s\n", preset.title, preset.reproduces);
  printf("==============================================================================\n\n");
  PrintBreakdownHeader();
  auto start = std::chrono::steady_clock::now();
  SurveyDriver driver(flags);
  char fingerprint[96];
  snprintf(fingerprint, sizeof(fingerprint), "trace=%d;metrics=%d;servers_override=%zu",
           flags.trace_path.empty() ? 0 : 1, flags.metrics_path.empty() ? 0 : 1,
           servers_override);
  if (ExitCode rc = driver.Open(preset.name, fingerprint); rc != kExitOk) {
    return rc;
  }
  std::vector<SurveyBreakdown> breakdowns;
  for (SurveyCohortRun row : preset.rows) {
    if (servers_override > 0) {
      row.servers = servers_override;
    }
    SurveyBreakdown b;
    ExitCode rc = driver.RunCohort(row, &b);
    if (rc == kExitJournal) {
      return rc;
    }
    if (rc == kExitOk) {
      PrintBreakdownRow(b);
      breakdowns.push_back(b);
    }
  }
  fputs(preset.footer, stdout);
  ExitCode rc = driver.Finish();
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!flags.json_path.empty() &&
      !WriteOutputFile(flags.json_path, BuildPresetJson(preset.name, driver, wall, breakdowns))) {
    rc = kExitAborted;
  }
  return rc;
}

}  // namespace mfc
