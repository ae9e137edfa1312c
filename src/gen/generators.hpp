// Transistor-level workload generators (the paper's §VI evaluation used the
// authors' proprietary CMOS chips; these parameterized circuits are the
// open substitute — see DESIGN.md §4). Each generator builds a hierarchical
// design out of the standard-cell library, flattens it, and reports ground
// truth: how many instances of each cell the construction placed.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "netlist/netlist.hpp"

namespace subg::gen {

struct Generated {
  Netlist netlist;
  /// Cell name → number of instances placed by construction. A lower bound
  /// on what a matcher must find (incidental structural copies can exist,
  /// e.g. the cross-coupled inverter pair inside an SRAM cell).
  std::map<std::string, std::size_t> placed;

  [[nodiscard]] std::size_t placed_count(const std::string& cell) const {
    auto it = placed.find(cell);
    return it == placed.end() ? 0 : it->second;
  }
};

/// Size parameters are uint64 throughout (ISSUE 10 / ROADMAP "million-device
/// hosts"): callers can request arbitrarily large workloads and every
/// generator guards its own arithmetic — a size whose device+net total would
/// overflow the uint32 graph-vertex space (or whose intermediate products
/// would overflow uint64) throws subg::Error BEFORE allocating anything.

/// N-bit ripple-carry adder: a chain of `fulladder` cells.
[[nodiscard]] Generated ripple_carry_adder(std::uint64_t bits);

/// N×N Braun array multiplier: N² AND gates (nand2+inv) plus an adder array
/// of halfadder/fulladder cells.
[[nodiscard]] Generated array_multiplier(std::uint64_t bits);

/// SRAM block: rows×cols 6T cells, a NAND/INV row decoder (rows ≤ 16), and
/// per-column pmos precharge pairs.
[[nodiscard]] Generated sram_array(std::uint64_t rows, std::uint64_t cols);

/// n-to-2^n decoder (n ≤ 4): per-output nand_n + inverter, plus address
/// inverters.
[[nodiscard]] Generated decoder(std::uint64_t addr_bits);

/// words×width register file: dff storage with a write-select mux2 per bit.
[[nodiscard]] Generated register_file(std::uint64_t words, std::uint64_t width);

/// Random combinational/sequential "logic soup": `gates` random cells with
/// random input wiring; realistic fanout distribution, reconvergence, and
/// rails shared by everything.
[[nodiscard]] Generated logic_soup(std::size_t gates, std::uint64_t seed);

/// Kogge–Stone parallel-prefix adder: log-depth carry tree with heavy
/// reconvergent fanout (every prefix node feeds two successors). Exercises
/// the paper's claim that the matcher handles reconvergence, unlike
/// tree-covering technology mappers (§I).
[[nodiscard]] Generated kogge_stone_adder(std::uint64_t bits);

/// Balanced XOR parity tree over n inputs (n rounded up to a power of two
/// internally is NOT done — n-1 xor2 cells in a left-balanced tree).
[[nodiscard]] Generated parity_tree(std::uint64_t inputs);

/// Tiled synthetic SoC at transistor level — the million-device host behind
/// bench_scale's E12 experiment and the end-to-end soc_find workload
/// (DESIGN.md §11). Three structurally distinct districts:
///
///   cores    `tiles` tiles, each a chain of `tile_units` (nand2 → inv)
///            units — 6 transistors per unit. Unit 0's nand2 takes its
///            second input from bus[t % bus_bits] (one bus tap per tile);
///            later units feed from the previous unit's nand2 output, so
///            intra-tile nets stay degree ≤ 3 (per-candidate match cost
///            stays O(1) in the SoC size).
///   bus      `bus_bits` shared nets driven by one inv each (so no net
///            dangles). Bus fanout is tiles/bus_bits + 1.
///   pad ring `pads` ESD cells: res(pad_i → pnode_i) plus clamp diodes
///            pnode_i → vdd and gnd → pnode_i. Pads touch only res/diode
///            devices and degree-1/3 nets, so they share no round-0 label
///            with a CMOS logic pattern and Phase I prunes them at once.
///
/// Devices = 6·tiles·tile_units + 3·pads + 2·bus_bits. placed["nand2"] is
/// exactly tiles·tile_units (the ground truth bench_scale checks).
[[nodiscard]] Generated soc_grid(std::uint64_t tiles, std::uint64_t tile_units,
                                 std::uint64_t pads,
                                 std::uint64_t bus_bits = 8);

/// ISCAS-85 c17 (6 NAND2 gates) at transistor level.
[[nodiscard]] Generated c17();

/// Copy `pattern` into `host` `count` times. Internal pattern nets get
/// fresh host nets (so every copy is a true induced instance); port nets
/// are wired to nets drawn from `pool` (distinct nets within one copy).
/// Pool nets must not be internal to anything the caller cares about.
/// Returns the number of instances planted (== count).
std::size_t plant_instances(Netlist& host, const Netlist& pattern,
                            std::size_t count, std::span<const NetId> pool,
                            std::uint64_t seed);

}  // namespace subg::gen
