// Csr-vs-legacy core equivalence: --core must change the memory layout only.
//
// The contract (MatchOptions::core, graph/csr_core.hpp): the flattened SoA
// core visits the same edges in the same order with the same label
// arithmetic as the legacy CircuitGraph walks, so reports — instances,
// their order, every Phase I/II statistic including the deterministic work
// counters, traces, and the serialized JSON — are BYTE-identical across
// cores, at every jobs value, in both matching semantics, and through the
// extract sweep. These tests pin that contract; the CI bench gate re-checks
// it end to end on the quick bench workloads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cells/cells.hpp"
#include "extract/extract.hpp"
#include "gemini/gemini.hpp"
#include "gen/generators.hpp"
#include "match/matcher.hpp"
#include "report/document.hpp"
#include "test_circuits.hpp"

namespace subg {
namespace {

void expect_reports_equal(const MatchReport& legacy, const MatchReport& csr,
                          const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(legacy.instances.size(), csr.instances.size());
  for (std::size_t i = 0; i < legacy.instances.size(); ++i) {
    EXPECT_EQ(legacy.instances[i].device_image, csr.instances[i].device_image)
        << "instance " << i;
    EXPECT_EQ(legacy.instances[i].net_image, csr.instances[i].net_image)
        << "instance " << i;
  }
  EXPECT_EQ(legacy.phase1.feasible, csr.phase1.feasible);
  EXPECT_EQ(legacy.phase1.key, csr.phase1.key);
  EXPECT_EQ(legacy.phase1.candidates, csr.phase1.candidates);
  EXPECT_EQ(legacy.phase1.rounds, csr.phase1.rounds);
  EXPECT_EQ(legacy.phase1.relabel_ops, csr.phase1.relabel_ops);
  EXPECT_EQ(legacy.phase1.valid_pattern_vertices,
            csr.phase1.valid_pattern_vertices);
  EXPECT_EQ(legacy.phase1.possible_host_vertices,
            csr.phase1.possible_host_vertices);
  EXPECT_EQ(legacy.phase2.candidates_tried, csr.phase2.candidates_tried);
  EXPECT_EQ(legacy.phase2.candidates_matched, csr.phase2.candidates_matched);
  EXPECT_EQ(legacy.phase2.passes, csr.phase2.passes);
  EXPECT_EQ(legacy.phase2.bindings, csr.phase2.bindings);
  EXPECT_EQ(legacy.phase2.guesses, csr.phase2.guesses);
  EXPECT_EQ(legacy.phase2.backtracks, csr.phase2.backtracks);
  EXPECT_EQ(legacy.phase2.verify_failures, csr.phase2.verify_failures);
  EXPECT_EQ(legacy.phase2.max_guess_depth, csr.phase2.max_guess_depth);
  EXPECT_EQ(legacy.phase2.expansion_ops, csr.phase2.expansion_ops);
  EXPECT_EQ(legacy.status.outcome, csr.status.outcome);
  EXPECT_EQ(legacy.status.reason, csr.status.reason);
  EXPECT_EQ(legacy.status.candidates_skipped, csr.status.candidates_skipped);
  EXPECT_EQ(legacy.status.guesses_abandoned, csr.status.guesses_abandoned);
}

/// The serialized report with the wall-clock members zeroed: byte equality
/// of this string is the report-identity claim of the --core toggle.
std::string report_json(MatchReport report) {
  report.phase1_seconds = 0;
  report.phase2_seconds = 0;
  return report::to_json(report).dump();
}

MatchReport run_with_core(const Netlist& pattern, const Netlist& host,
                          CoreMode core, std::size_t jobs = 1,
                          bool exhaustive = false) {
  MatchOptions opts;
  opts.core = core;
  opts.jobs = jobs;
  opts.exhaustive = exhaustive;
  SubgraphMatcher matcher(pattern, host, opts);
  return matcher.find_all();
}

TEST(CoreEquivalence, GeneratedCircuitsAllCells) {
  cells::CellLibrary lib;
  struct Case {
    const char* cell;
    gen::Generated host;
    /// Also require found == placed_count(cell): set only where the host
    /// cannot form an accidental instance of the cell.
    bool exact = false;
  };
  std::vector<Case> cases;
  cases.push_back({"fulladder", gen::ripple_carry_adder(12)});
  cases.push_back({"nand2", gen::logic_soup(250, 7)});
  cases.push_back({"xor2", gen::kogge_stone_adder(8)});
  cases.push_back({"dff", gen::register_file(4, 4)});
  cases.push_back({"sram6t", gen::sram_array(4, 8)});
  // The scale bench's soc_grid family at toy size: tiles of nand2 -> inv
  // chains, a shared bus and a res/diode pad ring.
  cases.push_back({"nand2", gen::soc_grid(12, 6, 8, 2), true});
  for (const Case& c : cases) {
    Netlist pattern = lib.pattern(c.cell);
    MatchReport legacy =
        run_with_core(pattern, c.host.netlist, CoreMode::kLegacy);
    MatchReport csr = run_with_core(pattern, c.host.netlist, CoreMode::kCsr);
    expect_reports_equal(legacy, csr, c.cell);
    EXPECT_EQ(report_json(legacy), report_json(csr)) << c.cell;
    if (c.exact) {
      EXPECT_EQ(csr.count(), c.host.placed_count(c.cell)) << c.cell;
    }
  }
}

TEST(CoreEquivalence, PaperNand2Example) {
  // The paper's Fig 1 shape: hand-built NAND2 pattern against a small host
  // of gates on shared rails — the deck the phase tests also pin.
  test::Cmos3 f;
  Netlist host = f.netlist("host");
  NetId vdd = host.add_net("vdd"), gnd = host.add_net("gnd");
  host.mark_global(vdd);
  host.mark_global(gnd);
  NetId a = host.add_net("a"), b = host.add_net("b"), c = host.add_net("c");
  NetId u = host.add_net("u"), v = host.add_net("v"), w = host.add_net("w");
  f.nand2(host, a, b, u, vdd, gnd);
  f.nand2(host, u, c, v, vdd, gnd);
  f.nor2(host, a, c, w, vdd, gnd);
  f.inv(host, v, host.add_net("y"), vdd, gnd);

  Netlist pattern = f.nand2_pattern(/*global_rails=*/true);
  MatchReport legacy = run_with_core(pattern, host, CoreMode::kLegacy);
  MatchReport csr = run_with_core(pattern, host, CoreMode::kCsr);
  expect_reports_equal(legacy, csr, "nand2 paper example");
  EXPECT_EQ(report_json(legacy), report_json(csr));
  EXPECT_EQ(csr.instances.size(), 2u);
}

/// A symmetric k-wide parallel-transistor pattern plus fatter decoys: the
/// shape that forces Phase II through its guess/backtrack machinery, where
/// the fresh-label rng draws make any cross-core divergence visible
/// immediately.
struct AmbiguityDeck {
  test::Cmos3 f;
  Netlist pattern = f.netlist("par3");
  Netlist host = f.netlist("host");

  AmbiguityDeck() {
    NetId pa = pattern.add_net("a"), pd = pattern.add_net("d"),
          ps = pattern.add_net("s");
    for (int i = 0; i < 3; ++i) pattern.add_device(f.nmos, {pd, pa, ps});
    pattern.mark_port(pa);
    pattern.mark_port(pd);
    pattern.mark_port(ps);

    // Two true instances and one 5-wide decoy (contains instances too).
    for (int copy = 0; copy < 2; ++copy) {
      NetId ha = host.add_net(), hd = host.add_net(), hs = host.add_net();
      for (int i = 0; i < 3; ++i) host.add_device(f.nmos, {hd, ha, hs});
    }
    NetId fa = host.add_net(), fd = host.add_net(), fs = host.add_net();
    for (int i = 0; i < 5; ++i) host.add_device(f.nmos, {fd, fa, fs});
  }
};

TEST(CoreEquivalence, SymmetricAmbiguityDeck) {
  AmbiguityDeck deck;
  MatchReport legacy = run_with_core(deck.pattern, deck.host,
                                     CoreMode::kLegacy);
  MatchReport csr = run_with_core(deck.pattern, deck.host, CoreMode::kCsr);
  expect_reports_equal(legacy, csr, "ambiguity");
  EXPECT_EQ(report_json(legacy), report_json(csr));
  EXPECT_GT(csr.phase2.guesses, 0u) << "deck must exercise the guess path";
}

TEST(CoreEquivalence, ExhaustiveSemantics) {
  AmbiguityDeck deck;
  MatchReport legacy = run_with_core(deck.pattern, deck.host,
                                     CoreMode::kLegacy, 1, true);
  MatchReport csr =
      run_with_core(deck.pattern, deck.host, CoreMode::kCsr, 1, true);
  expect_reports_equal(legacy, csr, "exhaustive ambiguity");
  EXPECT_EQ(report_json(legacy), report_json(csr));
  EXPECT_GT(csr.phase2.backtracks, 0u);
}

TEST(CoreEquivalence, TracesBitIdentical) {
  // The pass-by-pass trace exposes every intermediate label, including the
  // rng-drawn fresh labels — the strictest equality the cores can satisfy.
  test::Cmos3 f;
  Netlist pattern = f.inv_pattern(/*global_rails=*/true);
  Netlist host = f.netlist("host");
  NetId vdd = host.add_net("vdd"), gnd = host.add_net("gnd");
  host.mark_global(vdd);
  host.mark_global(gnd);
  NetId a = host.add_net("a"), b = host.add_net("b");
  f.inv(host, a, b, vdd, gnd);
  f.inv(host, b, host.add_net("c"), vdd, gnd);

  auto traced = [&](CoreMode core) {
    Phase2Trace trace;
    MatchOptions opts;
    opts.core = core;
    opts.trace = &trace;
    SubgraphMatcher matcher(pattern, host, opts);
    (void)matcher.find_all();
    return trace;
  };
  Phase2Trace legacy = traced(CoreMode::kLegacy);
  Phase2Trace csr = traced(CoreMode::kCsr);
  ASSERT_EQ(legacy.entries.size(), csr.entries.size());
  for (std::size_t i = 0; i < legacy.entries.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(legacy.entries[i].candidate, csr.entries[i].candidate);
    EXPECT_EQ(legacy.entries[i].pass, csr.entries[i].pass);
    EXPECT_EQ(legacy.entries[i].host, csr.entries[i].host);
    EXPECT_EQ(legacy.entries[i].vertex, csr.entries[i].vertex);
    EXPECT_EQ(legacy.entries[i].label, csr.entries[i].label);
    EXPECT_EQ(legacy.entries[i].safe, csr.entries[i].safe);
    EXPECT_EQ(legacy.entries[i].matched, csr.entries[i].matched);
  }
}

TEST(CoreEquivalence, ExtractSweepBothCores) {
  // The extract machinery (per-tier shared host core, greedy application)
  // must hand back the same gate netlist device-for-device in both modes.
  cells::CellLibrary lib;
  gen::Generated host = gen::register_file(4, 4);
  std::vector<extract::LibraryCell> library;
  for (const char* cell : {"dff", "mux2", "nand2", "inv"}) {
    library.push_back(extract::LibraryCell{cell, lib.pattern(cell)});
  }
  auto run = [&](CoreMode core) {
    extract::ExtractOptions opts;
    opts.match.core = core;
    return extract::extract_gates(host.netlist, library, opts);
  };
  extract::ExtractResult legacy = run(CoreMode::kLegacy);
  extract::ExtractResult csr = run(CoreMode::kCsr);

  ASSERT_EQ(legacy.report.cells.size(), csr.report.cells.size());
  for (std::size_t i = 0; i < legacy.report.cells.size(); ++i) {
    EXPECT_EQ(legacy.report.cells[i].cell, csr.report.cells[i].cell);
    EXPECT_EQ(legacy.report.cells[i].instances, csr.report.cells[i].instances);
    EXPECT_EQ(legacy.report.cells[i].devices_replaced,
              csr.report.cells[i].devices_replaced);
    EXPECT_EQ(legacy.report.cells[i].outcome, csr.report.cells[i].outcome);
  }
  EXPECT_EQ(legacy.report.devices_after, csr.report.devices_after);
  ASSERT_EQ(legacy.netlist.device_count(), csr.netlist.device_count());
  for (std::uint32_t d = 0; d < legacy.netlist.device_count(); ++d) {
    const DeviceId id(d);
    EXPECT_EQ(legacy.netlist.device_name(id), csr.netlist.device_name(id));
    EXPECT_EQ(legacy.netlist.device_type_info(id).name,
              csr.netlist.device_type_info(id).name);
  }
  EXPECT_TRUE(compare_netlists(legacy.netlist, csr.netlist).isomorphic);
}

TEST(CoreEquivalence, CsrCountersIdenticalAcrossJobs) {
  // The deterministic work counters the CI bench gate relies on must be
  // jobs-invariant under the csr core (the --jobs contract extended to the
  // new counters). Runs under TSan via the concurrency label.
  cells::CellLibrary lib;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    gen::Generated host = gen::logic_soup(180, seed);
    for (const char* cell : {"nand2", "nor2", "mux2"}) {
      Netlist pattern = lib.pattern(cell);
      MatchReport serial =
          run_with_core(pattern, host.netlist, CoreMode::kCsr, 1);
      MatchReport parallel =
          run_with_core(pattern, host.netlist, CoreMode::kCsr, 8);
      expect_reports_equal(serial, parallel,
                           std::string(cell) + " soup " +
                               std::to_string(seed));
      EXPECT_EQ(report_json(serial), report_json(parallel)) << cell;
    }
  }
}

TEST(CoreEquivalence, MixedCoreOptionsAgree) {
  // Phase1Options allows the cores to be set independently; every
  // combination must agree (the csr sweep and the legacy sweep are the
  // same arithmetic, so mixing sides cannot drift).
  cells::CellLibrary lib;
  gen::Generated host = gen::ripple_carry_adder(8);
  Netlist pattern = lib.pattern("fulladder");
  CircuitGraph pattern_graph(pattern);
  CircuitGraph host_graph(host.netlist);
  CsrCore pattern_core(pattern_graph);
  CsrCore host_core(host_graph);

  auto run_p1 = [&](const CsrCore* pc, const CsrCore* hc) {
    Phase1Options o;
    o.pattern_core = pc;
    o.host_core = hc;
    return run_phase1(pattern_graph, host_graph, o);
  };
  Phase1Result both_legacy = run_p1(nullptr, nullptr);
  const CsrCore* pattern_cores[] = {nullptr, &pattern_core};
  const CsrCore* host_cores[] = {nullptr, &host_core};
  for (const CsrCore* pc : pattern_cores) {
    for (const CsrCore* hc : host_cores) {
      Phase1Result r = run_p1(pc, hc);
      EXPECT_EQ(both_legacy.feasible, r.feasible);
      EXPECT_EQ(both_legacy.key, r.key);
      EXPECT_EQ(both_legacy.candidates, r.candidates);
      EXPECT_EQ(both_legacy.rounds, r.rounds);
      EXPECT_EQ(both_legacy.relabel_ops, r.relabel_ops);
    }
  }
}

}  // namespace
}  // namespace subg
