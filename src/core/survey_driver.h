// The one place that turns survey flags into a run (DESIGN.md §6):
// mfc_profile --survey drives a SurveyDriver directly, and the five Section 5
// survey benches (Figures 7-9, Tables 4-5) are SurveyPreset tables handed to
// RunSurveyPreset. Each front end keeps its own stdout rows, --json schema,
// journal tool name and journal fingerprint.
#ifndef MFC_SRC_CORE_SURVEY_DRIVER_H_
#define MFC_SRC_CORE_SURVEY_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/journal/journal.h"
#include "src/core/survey.h"
#include "src/telemetry/stats_stream.h"

namespace mfc {

// Process exit codes of mfc_profile and the survey benches (README table).
// The supervisor relies on the split: 2 and 3 are permanent (restarting the
// same argv fails the same way), everything else is retryable.
enum ExitCode {
  kExitOk = 0,
  kExitAborted = 1,        // experiment aborted, or an output write failed
  kExitUsage = 2,          // flag errors
  kExitJournal = 3,        // journal or merge errors
  kExitInterrupted = 130,  // SIGINT/SIGTERM, after draining in-flight sites
};

// The flags every survey front end takes, spelled --flag=value or bare.
struct SurveyFlags {
  size_t jobs = 0;              // worker threads (0 = MFC_JOBS env / hardware)
  size_t shards = 1;            // split the survey across K processes
  size_t shard_index = 0;       // this process's shard in [0, shards)
  bool legacy_seeds = false;    // old sequential sampling + seed*1000+i seeds
  std::string json_path;        // front-end-specific JSON record
  std::string trace_path;       // empty = tracing off (the default path)
  std::string metrics_path;     // empty = metrics off
  std::string journal_path;     // empty = no journal (default crash behavior)
  bool resume = false;          // replay journaled sites, run the rest
  std::string stats_stream_path;  // JSONL health snapshots ("-" = stdout)
  double stats_interval = 1.0;    // snapshot cadence in seconds
  bool progress = false;          // verbose per-site stderr lines
};

// Usage lines for the SurveyFlags, for a front end's own usage text.
extern const char kSurveyFlagsUsage[];

enum class FlagMatch { kMatched, kUnknown, kInvalid };

// Consumes |arg| when it is one of the SurveyFlags. kUnknown leaves it to
// the caller; kInvalid means its value did not parse (reported on stderr).
FlagMatch ParseSurveyFlag(const std::string& arg, SurveyFlags* flags);

// How a front end's shards come back together, which decides the rules for
// --shards > 1.
enum class ShardMode {
  kJournaled,   // every shard journals and --merge folds them: needs
                // --journal, and a per-shard --json would be partial
  kSampleOnly,  // mfc_profile --sample-only: shards print digests only
  kSupervised,  // mfc_profile --supervise forks and merges the shards itself
};

// Cross-flag rules; prints the first violation and returns false.
bool ValidateSurveyFlags(const SurveyFlags& flags, ShardMode mode = ShardMode::kJournaled);

// Output helpers for every mfc_profile mode and the benches; each prints
// its own error.
std::unique_ptr<SurveyJournal> OpenJournal(const std::string& path, const std::string& tool,
                                           const std::string& fingerprint, bool resume);
std::unique_ptr<StatsStream> OpenStatsStream(const std::string& path);
// Atomic (temp file + rename, see WriteFileAtomic), then "wrote <path>".
bool WriteOutputFile(const std::string& path, const std::string& contents);

// One cohort of a survey: one table row of a bench, or mfc_profile --survey.
struct SurveyCohortRun {
  Cohort cohort;
  StageKind stage;
  size_t servers;
  size_t max_crowd;
  uint64_t seed;
};

// Runs one survey, cohort by cohort, with the outputs its SurveyFlags ask
// for. Without any of them nothing is attached: the plain
// RunSurveyCohortParallel path.
class SurveyDriver {
 public:
  explicit SurveyDriver(const SurveyFlags& flags);
  // Not copyable or movable: telemetry_ points at stats_ and progress_line_.
  SurveyDriver(const SurveyDriver&) = delete;
  SurveyDriver& operator=(const SurveyDriver&) = delete;

  // Opens the stats stream and the journal (with the SIGINT/SIGTERM drain
  // handlers). |tool| and |fingerprint| name the run in the journal; the
  // fingerprint pins what shapes the work, never --jobs or output paths.
  // Returns kExitOk or the code to exit with.
  ExitCode Open(const std::string& tool, const std::string& fingerprint);

  // Runs one cohort into |breakdown| (and |per_site|, when non-null).
  // Returns kExitInterrupted without running once a shutdown signal arrived
  // (the cohort stays out of the journal and outputs), kExitJournal on a
  // journal error.
  ExitCode RunCohort(const SurveyCohortRun& run, SurveyBreakdown* breakdown,
                     std::vector<ExperimentResult>* per_site = nullptr);

  // Syncs the journal (printing the resume hint when interrupted), warns
  // about flow-network stalls, writes --trace and --metrics. Returns
  // kExitAborted on a write failure, else kExitInterrupted or kExitOk.
  ExitCode Finish();

  size_t Jobs() const { return jobs_; }
  bool Interrupted() const;
  const SurveyJournal* Journal() const { return journal_.get(); }
  const SurveyTelemetry& Telemetry() const { return telemetry_; }

 private:
  SurveyFlags flags_;
  size_t jobs_;
  SurveyRunOptions run_;
  SurveyTelemetry telemetry_;
  std::unique_ptr<StatsStream> stats_;
  ProgressLine progress_line_{1.0};
  std::unique_ptr<SurveyJournal> journal_;
  bool skipped_ = false;  // a cohort was skipped after a shutdown signal
};

// A survey bench: a banner, one stopping-breakdown row per cohort, a footer.
struct SurveyPreset {
  const char* name;        // journal tool name and the --json "bench" field
  const char* title;       // banner title
  const char* reproduces;  // banner "Reproduces:" line
  std::vector<SurveyCohortRun> rows;
  const char* footer;      // printed verbatim after the table
};

// main() of a survey bench: the SurveyFlags plus a positional <servers>
// that replaces every row's count. --json is {bench, jobs, wall_seconds,
// breakdowns}, plus the journal audit fields with --journal and
// span_totals with --metrics.
int RunSurveyPreset(int argc, char** argv, const SurveyPreset& preset);

}  // namespace mfc

#endif  // MFC_SRC_CORE_SURVEY_DRIVER_H_
