// Shared pieces of the end-to-end benchmark driver: the span tracer, the
// per-process measurement record, and small file/process helpers.
//
// Every number the driver reports is taken from outside the library, by
// timing calls into its public functions. A workload process measures one
// cold user run (set-up, then the run proper), checks its own outputs
// against answers the matcher under test did not produce, and prints one
// JSON record on stdout for run.py to aggregate.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace subg {
class Netlist;
}  // namespace subg

namespace subg::obs {
struct Snapshot;
}  // namespace subg::obs

namespace subg::e2e {

/// Seconds on the steady clock since the process entered main().
double now_s();
/// Pin the clock origin; called first thing in main().
void start_clock();

/// In-memory span recorder. Disabled, every call is a no-op, so untraced
/// runs pay nothing for the spans the traced run records.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index into spans(), -1 for a top-level span
    double start = 0;
    double end = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Summed self time (duration minus the part its children cover) of
  /// every span called `name`.
  [[nodiscard]] double self_seconds(std::string_view name) const;
  /// Summed duration of every span called `name`.
  [[nodiscard]] double total_seconds(std::string_view name) const;
  /// Summed duration of the top-level spans that end by `until`.
  [[nodiscard]] double top_level_seconds(double until) const;
  /// The spans as a JSON array (name, parent, start, end).
  [[nodiscard]] json::Value to_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// What one workload process measured and checked.
struct Record {
  double setup_s = 0;
  double run_s = 0;
  double peak_rss_mb = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  /// Per-request latencies in ms, by request kind ("find", "patch").
  std::map<std::string, std::vector<double>> latency_ms;
  /// Deterministic work counts; identical on every run of one input.
  std::map<std::string, double> counts;
  /// Per-layer times and ratios (traced runs only).
  std::map<std::string, double> layers;
  /// FNV-1a digest of a deterministic output file, when the workload has one.
  std::string output_digest;

  /// Count one checked operation; a false `ok` records `what` as failed.
  void check(bool ok, const std::string& what);
};

struct RunArgs {
  std::string inputs;  ///< directory the gen step wrote
  std::string out;     ///< directory for the workload's output files
  bool trace = false;
  bool setup_only = false;
  /// Skip the costly output checks: the caller compares output_digest with
  /// that of a fully checked process on the same inputs instead.
  bool light_checks = false;
};

Record run_soc_find(const RunArgs& args, Tracer& tracer);
Record run_soup_extract(const RunArgs& args, Tracer& tracer);
Record run_soup_eco_serve(const RunArgs& args, Tracer& tracer);

/// Write the inputs of `workload` for `seed` into `dir` (not timed).
void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& dir);

/// Read, parse and flatten a SPICE deck under a top-level "load" span
/// (children load.read, spice.parse, netlist.flatten). When `mb_per_s` is
/// set it receives the parse throughput.
[[nodiscard]] Netlist load_deck(Tracer& tracer, const std::string& path,
                                double* mb_per_s = nullptr);

// --- helpers -----------------------------------------------------------
[[nodiscard]] std::string digest(std::string_view bytes);
[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view text);
/// Peak resident set of this process so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();
/// The gen step's manifest.json of an input directory.
[[nodiscard]] json::Value read_manifest(const std::string& dir);
/// Sum the top-level spans inside the timed region and record coverage.
void record_coverage(Record& record, const Tracer& tracer, double run_end);
/// Matcher-layer counts and times (phase1.*, phase2.*, label_cache.*,
/// analyze.*) from the obs registry the timed matches reported into.
void record_match_layers(Record& record, const obs::Snapshot& snapshot);
/// Re-time the parts of HostSession::build — CircuitGraph, CsrCore and the
/// host path labels — by calling each builder on `host` under a top-level
/// "probe" span. Runs after the timed region: the session builds them in
/// one call, so this is the only way to attribute them from outside.
void probe_session_parts(Record& record, Tracer& tracer, const Netlist& host);

}  // namespace subg::e2e
