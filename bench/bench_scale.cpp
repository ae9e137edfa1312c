// Experiment E12 — monolithic matching on a million-device SoC
// (DESIGN.md §11).
//
// Over a ~1M-device tiled SoC (gen::soc_grid: 512 tiles x 326 units of
// nand2+inv, a shared 8-net bus, and a 1024-cell res/diode pad ring) this
// bench runs the nand2 find at --jobs=1 (row "soc_1m", gated exactly in
// BENCH_baseline.json) and again at --jobs=8, and exits 1 unless
//
//  * the find recovers every placed nand2 (found == placed_count), and
//  * the two reports are byte-identical (report::to_json with the
//    wall-clock seconds zeroed).
//
// Timings (advisory): Phase I/II wall clock of the gated row; the full
// (non --quick) run adds a per-jobs scaling sweep.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"

namespace subg::bench {
namespace {

/// report::to_json with the wall-clock members zeroed — the byte-identity
/// comparand across lane counts.
std::string report_fingerprint(MatchReport report) {
  report.phase1_seconds = 0;
  report.phase2_seconds = 0;
  return report::to_json(report).dump();
}

void run(cli::Format format, CoreMode core, bool quick) {
  // 512*326*6 = 1,001,472 core transistors (+ pads + bus drivers), placed
  // nand2 = 166,912.
  gen::Generated g = gen::soc_grid(512, 326, 1024);
  cells::CellLibrary lib;
  const Netlist& pattern = lib.pattern("nand2");
  const std::size_t expected = g.placed_count("nand2");

  // One cold session per lane count; returns the report fingerprint.
  auto find_at = [&](std::size_t jobs, MatchRow* row) {
    SessionOptions so;
    so.core = core;
    HostSession session = HostSession::build(g.netlist, so);
    MatchReport report;
    *row = run_match_in_session("soc_1m", session, "nand2", pattern, expected,
                                jobs, core, Phase2Filter::kPaths, &report);
    return report_fingerprint(std::move(report));
  };
  // Gate the jobs=1 row only: the jobs=8 counters equal it by the
  // determinism contract, and its report is checked byte for byte.
  MatchRow row;
  MatchRow row_j8;
  const std::string fingerprint = find_at(1, &row);
  const bool identical = find_at(8, &row_j8) == fingerprint;
  const bool found_all = row.found == expected;
  const std::vector<MatchRow> rows = {row};

  std::vector<ScalingRow> scaling;
  if (!quick) scaling = jobs_scaling(pattern, g.netlist, 1);

  if (format == cli::Format::kJson) {
    write_quick_doc(
        "bench_scale", "E12", core, quick, rows, counters_json(rows),
        [&](report::Document& doc) {
          doc.set("found_all_placed", found_all);
          doc.set("jobs_identical", identical);
        },
        [&](report::Document& doc) {
          if (!quick) {
            doc.set("scaling", scaling_json("nand2 in soc_1m", scaling));
          }
        });
  } else {
    std::printf("E12: nand2 find on a %s-device SoC\n\n",
                with_commas(static_cast<long long>(
                    g.netlist.device_count())).c_str());
    print_rows(rows);
    std::printf("\nfound %s placed nand2\n",
                found_all ? "EVERY" : "NOT EVERY");
    std::printf("jobs=8 report %s jobs=1\n",
                identical ? "MATCHES" : "DIVERGED FROM");
    if (!quick) print_scaling("nand2 in soc_1m", scaling);
  }
  if (!found_all || !identical) std::exit(1);
}

}  // namespace
}  // namespace subg::bench

int main(int argc, char** argv) {
  subg::cli::Format format = subg::cli::Format::kText;
  subg::CoreMode core = subg::CoreMode::kCsr;
  bool quick = false;
  if (int code = subg::bench::parse_bench_args("bench_scale", argc, argv,
                                               &format, &core, &quick)) {
    return code;
  }
  subg::bench::run(format, core, quick);
  return 0;
}
