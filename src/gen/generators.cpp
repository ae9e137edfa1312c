#include "gen/generators.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "cells/cells.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace subg::gen {

namespace {

using cells::CellLibrary;

// --- overflow guards --------------------------------------------------
// Size parameters are uint64 (generators.hpp): every generator bounds its
// own arithmetic BEFORE allocating. checked_mul/checked_add throw on uint64
// overflow; check_vertex_space throws when the (conservative) device+net
// estimate would not fit the uint32 graph-vertex space CircuitGraph uses.

std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b, const char* what) {
  std::uint64_t out = 0;
  SUBG_CHECK_MSG(!__builtin_mul_overflow(a, b, &out),
                 what << ": size arithmetic overflows uint64 (" << a << " * "
                      << b << ")");
  return out;
}

std::uint64_t checked_add(std::uint64_t a, std::uint64_t b, const char* what) {
  std::uint64_t out = 0;
  SUBG_CHECK_MSG(!__builtin_add_overflow(a, b, &out),
                 what << ": size arithmetic overflows uint64 (" << a << " + "
                      << b << ")");
  return out;
}

void check_vertex_space(std::uint64_t devices, std::uint64_t nets,
                        const char* what) {
  const std::uint64_t vertices = checked_add(devices, nets, what);
  SUBG_CHECK_MSG(vertices <= std::numeric_limits<std::uint32_t>::max(),
                 what << ": workload needs about " << vertices
                      << " graph vertices, exceeding the 32-bit vertex space");
}

/// Builder wrapper that tracks placed-cell counts.
struct TopBuilder {
  CellLibrary lib;
  ModuleId top;
  Module* m;
  std::map<std::string, std::size_t> placed;

  explicit TopBuilder(std::string name, std::vector<std::string> ports = {}) {
    top = lib.design().add_module(std::move(name), std::move(ports));
    m = &lib.design().module(top);
  }

  NetId net(const std::string& name) { return m->ensure_net(name); }

  void place(const std::string& cell, std::initializer_list<NetId> actuals) {
    m->add_instance(lib.module(cell),
                    std::span<const NetId>(actuals.begin(), actuals.size()));
    ++placed[cell];
  }

  Generated finish() {
    const std::string& name =
        lib.design().module(top).name();
    Generated out{lib.design().flatten(name), std::move(placed)};
    out.netlist.validate();
    return out;
  }
};

}  // namespace

Generated ripple_carry_adder(std::uint64_t bits) {
  SUBG_CHECK_MSG(bits >= 1, "adder needs at least 1 bit");
  check_vertex_space(checked_mul(bits, 32, "rca"),
                     checked_mul(bits, 24, "rca"), "rca");
  TopBuilder b("rca" + std::to_string(bits));
  NetId carry = b.net("cin");
  for (std::uint64_t i = 0; i < bits; ++i) {
    const std::string idx = std::to_string(i);
    NetId next = (i == bits - 1) ? b.net("cout") : b.net("c" + idx);
    b.place("fulladder",
            {b.net("a" + idx), b.net("b" + idx), carry, b.net("s" + idx), next});
    carry = next;
  }
  return b.finish();
}

Generated array_multiplier(std::uint64_t bits) {
  SUBG_CHECK_MSG(bits >= 2, "multiplier needs at least 2 bits");
  const std::uint64_t n = bits;
  const std::uint64_t n2 = checked_mul(n, n, "multiplier");
  check_vertex_space(checked_mul(n2, 40, "multiplier"),
                     checked_mul(n2, 28, "multiplier"), "multiplier");
  TopBuilder b("mul" + std::to_string(n));

  // Partial products pp[i][j] = a[i] & b[j] (nand2 + inv).
  std::vector<std::vector<NetId>> pp(n, std::vector<NetId>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      NetId nband = b.net("nb_" + std::to_string(i) + "_" + std::to_string(j));
      pp[i][j] = b.net("pp_" + std::to_string(i) + "_" + std::to_string(j));
      b.place("nand2", {b.net("a" + std::to_string(i)),
                        b.net("b" + std::to_string(j)), nband});
      b.place("inv", {nband, pp[i][j]});
    }
  }

  // Braun array: row r (r = 1..n-1) adds pp[*][r] into the running sum.
  // acc[i] holds the current sum bit for weight r+i.
  std::vector<NetId> acc(n);
  for (std::uint64_t i = 0; i < n; ++i) acc[i] = pp[i][0];
  // p0 = acc[0] of row 0.
  for (std::uint64_t r = 1; r < n; ++r) {
    std::vector<NetId> nacc(n);
    NetId carry;  // carry chain within the row
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::string tag = std::to_string(r) + "_" + std::to_string(i);
      // Add acc[i+1] (shifted) + pp[i][r] (+ carry for i>0).
      NetId addend = (i == n - 1) ? pp[n - 1][r - 1] : acc[i + 1];
      NetId x = pp[i][r];
      NetId s = b.net("s_" + tag);
      if (i == 0) {
        carry = b.net("c_" + tag);
        b.place("halfadder", {addend, x, s, carry});
      } else {
        NetId nc = b.net("c_" + tag);
        b.place("fulladder", {addend, x, carry, s, nc});
        carry = nc;
      }
      nacc[i] = s;
    }
    acc = nacc;
  }
  return b.finish();
}

Generated sram_array(std::uint64_t rows, std::uint64_t cols) {
  SUBG_CHECK_MSG(rows >= 4 && cols >= 1, "sram needs rows >= 4, cols >= 1");
  SUBG_CHECK_MSG(rows <= 16, "row decoder supports up to 16 rows (nand4)");
  check_vertex_space(checked_mul(checked_mul(rows, cols, "sram"), 16, "sram"),
                     checked_mul(checked_mul(rows, cols, "sram"), 8, "sram"),
                     "sram");
  // Address width.
  std::uint64_t abits = 2;
  while ((std::uint64_t{1} << abits) < rows) ++abits;

  TopBuilder b("sram" + std::to_string(rows) + "x" + std::to_string(cols));
  // Address lines + complements.
  std::vector<NetId> addr(abits), naddr(abits);
  for (std::uint64_t i = 0; i < abits; ++i) {
    addr[i] = b.net("addr" + std::to_string(i));
    naddr[i] = b.net("naddr" + std::to_string(i));
    b.place("inv", {addr[i], naddr[i]});
  }
  // Row decoder: nand over literals, then inverter to the wordline.
  const std::string nand_cell = "nand" + std::to_string(abits);
  for (std::uint64_t r = 0; r < rows; ++r) {
    NetId nwl = b.net("nwl" + std::to_string(r));
    NetId wl = b.net("wl" + std::to_string(r));
    Module& m = *b.m;
    std::vector<NetId> lits;
    for (std::uint64_t i = 0; i < abits; ++i) {
      lits.push_back(((r >> i) & 1) ? addr[i] : naddr[i]);
    }
    lits.push_back(nwl);
    m.add_instance(b.lib.module(nand_cell), lits);
    ++b.placed[nand_cell];
    b.place("inv", {nwl, wl});
    // Cells along the row.
    for (std::uint64_t c = 0; c < cols; ++c) {
      b.place("sram6t",
              {b.net("bl" + std::to_string(c)), b.net("blb" + std::to_string(c)),
               wl});
    }
  }
  // Column precharge: pmos pair per column, gated by prech.
  {
    Module& m = *b.m;
    const DeviceCatalog& cat = b.lib.design().catalog();
    DeviceTypeId pmos = cat.require("pmos");
    NetId prech = b.net("prech");
    NetId vdd = m.ensure_net("vdd");
    for (std::uint64_t c = 0; c < cols; ++c) {
      m.add_device(pmos, {b.net("bl" + std::to_string(c)), prech, vdd, vdd});
      m.add_device(pmos, {b.net("blb" + std::to_string(c)), prech, vdd, vdd});
    }
  }
  return b.finish();
}

Generated decoder(std::uint64_t addr_bits) {
  SUBG_CHECK_MSG(addr_bits >= 2 && addr_bits <= 4,
                 "decoder supports 2..4 address bits");
  TopBuilder b("dec" + std::to_string(addr_bits));
  std::vector<NetId> addr(addr_bits), naddr(addr_bits);
  for (std::uint64_t i = 0; i < addr_bits; ++i) {
    addr[i] = b.net("addr" + std::to_string(i));
    naddr[i] = b.net("naddr" + std::to_string(i));
    b.place("inv", {addr[i], naddr[i]});
  }
  const std::string nand_cell = "nand" + std::to_string(addr_bits);
  for (std::uint64_t out = 0; out < (std::uint64_t{1} << addr_bits); ++out) {
    NetId nsel = b.net("nsel" + std::to_string(out));
    std::vector<NetId> lits;
    for (std::uint64_t i = 0; i < addr_bits; ++i) {
      lits.push_back(((out >> i) & 1) ? addr[i] : naddr[i]);
    }
    lits.push_back(nsel);
    b.m->add_instance(b.lib.module(nand_cell), lits);
    ++b.placed[nand_cell];
    b.place("inv", {nsel, b.net("sel" + std::to_string(out))});
  }
  return b.finish();
}

Generated register_file(std::uint64_t words, std::uint64_t width) {
  SUBG_CHECK_MSG(words >= 1 && width >= 1, "register file needs words, width >= 1");
  check_vertex_space(
      checked_mul(checked_mul(words, width, "register file"), 64,
                  "register file"),
      checked_mul(checked_mul(words, width, "register file"), 40,
                  "register file"),
      "register file");
  TopBuilder b("rf" + std::to_string(words) + "x" + std::to_string(width));
  NetId clk = b.net("clk");
  for (std::uint64_t w = 0; w < words; ++w) {
    NetId wsel = b.net("wsel" + std::to_string(w));
    for (std::uint64_t i = 0; i < width; ++i) {
      const std::string tag = std::to_string(w) + "_" + std::to_string(i);
      NetId q = b.net("q" + tag);
      NetId d = b.net("d" + tag);
      // d = wsel ? din[i] : q   (write-enable recirculation mux)
      b.place("mux2", {q, b.net("din" + std::to_string(i)), wsel, d});
      b.place("dff", {d, clk, q});
    }
  }
  return b.finish();
}

Generated logic_soup(std::size_t gates, std::uint64_t seed) {
  SUBG_CHECK_MSG(gates >= 1, "soup needs at least one gate");
  TopBuilder b("soup" + std::to_string(gates));
  Xoshiro256 rng(seed);

  // Primary inputs plus a clock.
  std::vector<NetId> nets;
  const std::size_t inputs = 8 + gates / 8;
  for (std::size_t i = 0; i < inputs; ++i) {
    nets.push_back(b.net("pi" + std::to_string(i)));
  }
  NetId clk = b.net("clk");

  // Weighted cell mix, roughly standard-cell-netlist-shaped.
  struct Choice {
    const char* cell;
    int inputs;
    int weight;
  };
  static constexpr Choice kMix[] = {
      {"inv", 1, 24},  {"nand2", 2, 20}, {"nor2", 2, 12}, {"nand3", 3, 8},
      {"nor3", 3, 4},  {"aoi21", 3, 6},  {"oai21", 3, 4}, {"xor2", 2, 6},
      {"xnor2", 2, 3}, {"mux2", 3, 5},   {"aoi22", 4, 3}, {"nand4", 4, 2},
      {"dff", 1, 3},
  };
  int total_weight = 0;
  for (const Choice& c : kMix) total_weight += c.weight;

  for (std::size_t g = 0; g < gates; ++g) {
    int pick = static_cast<int>(rng.below(static_cast<std::uint64_t>(total_weight)));
    const Choice* choice = nullptr;
    for (const Choice& c : kMix) {
      pick -= c.weight;
      if (pick < 0) {
        choice = &c;
        break;
      }
    }
    NetId out = b.net("w" + std::to_string(g));
    std::vector<NetId> actuals;
    if (std::string_view(choice->cell) == "dff") {
      actuals = {nets[rng.below(nets.size())], clk, out};
    } else {
      // Distinct input nets per gate: tying two inputs of one gate together
      // makes a degenerate structure that is not an instance of the cell.
      for (int i = 0; i < choice->inputs; ++i) {
        NetId in;
        do {
          in = nets[rng.below(nets.size())];
        } while (std::find(actuals.begin(), actuals.end(), in) != actuals.end());
        actuals.push_back(in);
      }
      actuals.push_back(out);
    }
    b.m->add_instance(b.lib.module(choice->cell), actuals);
    ++b.placed[choice->cell];
    nets.push_back(out);
  }
  return b.finish();
}

Generated kogge_stone_adder(std::uint64_t bits) {
  SUBG_CHECK_MSG(bits >= 2, "kogge-stone needs at least 2 bits");
  // Device count is O(bits log bits); 64 per bit per level is a safe roof
  // (the log factor is < 64 for any count that fits the vertex space).
  check_vertex_space(checked_mul(bits, 64 * 24, "kogge-stone"),
                     checked_mul(bits, 64 * 12, "kogge-stone"),
                     "kogge-stone");
  TopBuilder b("ks" + std::to_string(bits));

  // Preprocess: g_i = a_i & b_i (nand2+inv), p_i = a_i ^ b_i (xor2).
  std::vector<NetId> g(bits), p(bits);
  for (std::uint64_t i = 0; i < bits; ++i) {
    const std::string idx = std::to_string(i);
    NetId a = b.net("a" + idx), bb = b.net("b" + idx);
    NetId ng = b.net("ng" + idx);
    g[i] = b.net("g0_" + idx);
    p[i] = b.net("p0_" + idx);
    b.place("nand2", {a, bb, ng});
    b.place("inv", {ng, g[i]});
    b.place("xor2", {a, bb, p[i]});
  }

  // Prefix tree: at level L (span s = 2^L), node i >= s combines
  //   G' = G_i | (P_i & G_{i-s})  — aoi21 + inv
  //   P' = P_i & P_{i-s}          — nand2 + inv
  // Each (G_{i-s}, P_{i-s}) pair fans out to every i' >= i: reconvergence.
  std::uint64_t level = 1;
  for (std::uint64_t span = 1; span < bits; span *= 2, ++level) {
    std::vector<NetId> ng(bits), np(bits);
    for (std::uint64_t i = 0; i < bits; ++i) {
      if (i < span) {
        ng[i] = g[i];
        np[i] = p[i];
        continue;
      }
      const std::string tag = std::to_string(level) + "_" + std::to_string(i);
      NetId gi = b.net("gn" + tag);
      ng[i] = b.net("g" + tag);
      // aoi21: y = !((a&b) | c) with a=P_i, b=G_{i-s}, c=G_i.
      b.place("aoi21", {p[i], g[i - span], g[i], gi});
      b.place("inv", {gi, ng[i]});
      NetId pi = b.net("pn" + tag);
      np[i] = b.net("p" + tag);
      b.place("nand2", {p[i], p[i - span], pi});
      b.place("inv", {pi, np[i]});
    }
    g = ng;
    p = np;
  }

  // Sum: s_i = p0_i ^ carry_{i-1}; carry_i = G at the final level.
  for (std::uint64_t i = 0; i < bits; ++i) {
    const std::string idx = std::to_string(i);
    NetId sum = b.net("s" + idx);
    if (i == 0) {
      b.place("buf", {*b.m->find_net("p0_0"), sum});
    } else {
      b.place("xor2", {*b.m->find_net("p0_" + idx), g[i - 1], sum});
    }
  }
  return b.finish();
}

Generated parity_tree(std::uint64_t inputs) {
  SUBG_CHECK_MSG(inputs >= 2, "parity tree needs at least 2 inputs");
  check_vertex_space(checked_mul(inputs, 16, "parity tree"),
                     checked_mul(inputs, 12, "parity tree"), "parity tree");
  TopBuilder b("parity" + std::to_string(inputs));
  std::vector<NetId> layer;
  for (std::uint64_t i = 0; i < inputs; ++i) {
    layer.push_back(b.net("in" + std::to_string(i)));
  }
  std::uint64_t serial = 0;
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      NetId y = b.net("x" + std::to_string(serial++));
      b.place("xor2", {layer[i], layer[i + 1], y});
      next.push_back(y);
    }
    if (layer.size() % 2) next.push_back(layer.back());
    layer = next;
  }
  return b.finish();
}

Generated soc_grid(std::uint64_t tiles, std::uint64_t tile_units,
                   std::uint64_t pads, std::uint64_t bus_bits) {
  SUBG_CHECK_MSG(tiles >= 1 && tile_units >= 1,
                 "soc needs tiles, tile_units >= 1");
  SUBG_CHECK_MSG(bus_bits >= 1, "soc needs at least one bus net");
  // Guards run BEFORE any allocation: 6 transistors per (nand2, inv) unit,
  // 3 discrete devices per pad, 2 per bus driver; nets are bounded by 4 per
  // unit (chain, nand-internal, x, slack), 2 per pad, 2 per bus bit, one
  // chain head per tile, and the rails.
  const std::uint64_t units = checked_mul(tiles, tile_units, "soc");
  std::uint64_t devices = checked_mul(units, 6, "soc");
  devices = checked_add(devices, checked_mul(pads, 3, "soc"), "soc");
  devices = checked_add(devices, checked_mul(bus_bits, 2, "soc"), "soc");
  std::uint64_t nets = checked_mul(units, 4, "soc");
  nets = checked_add(nets, checked_mul(pads, 2, "soc"), "soc");
  nets = checked_add(nets, checked_mul(bus_bits, 2, "soc"), "soc");
  nets = checked_add(nets, checked_add(tiles, 2, "soc"), "soc");
  check_vertex_space(devices, nets, "soc");

  TopBuilder b("soc" + std::to_string(tiles) + "x" + std::to_string(tile_units));

  // Shared bus district: one inv driver per bus net so the bus ties into
  // the rails like real logic. Each tile taps exactly one bus net (below),
  // so a bus net's fanout is tiles/bus_bits + 1, while every net INSIDE a
  // tile stays degree <= 3. Bounding the per-net fanout this way (instead
  // of wiring every unit to the bus) is what keeps both generation and the
  // per-candidate match cost linear in the device count.
  std::vector<NetId> bus(bus_bits);
  for (std::uint64_t k = 0; k < bus_bits; ++k) {
    bus[k] = b.net("bus" + std::to_string(k));
    b.place("inv", {b.net("busin" + std::to_string(k)), bus[k]});
  }

  // Core tiles: a chain of (nand2 -> inv) units. Unit 0 is the tile's bus
  // tap — its nand2 takes the bus net as second input; every later unit
  // feeds from the previous unit's nand2 output instead, so the intra-tile
  // nets stay degree <= 3.
  for (std::uint64_t t = 0; t < tiles; ++t) {
    const std::string tag = "t" + std::to_string(t) + "_";
    NetId chain = b.net(tag + "c0");
    NetId side = bus[t % bus_bits];
    for (std::uint64_t u = 0; u < tile_units; ++u) {
      NetId x = b.net(tag + "x" + std::to_string(u));
      NetId next = b.net(tag + "c" + std::to_string(u + 1));
      b.place("nand2", {chain, side, x});
      b.place("inv", {x, next});
      chain = next;
      side = x;
    }
  }

  // Pad ring: ESD cells from discrete devices — a series resistor into the
  // pad node plus clamp diodes to both rails. Pads touch only res/diode
  // devices and degree-1/3 nets, so they share no round-0 label with a
  // CMOS logic pattern.
  {
    Module& m = *b.m;
    const DeviceCatalog& cat = b.lib.design().catalog();
    const DeviceTypeId res = cat.require("res");
    const DeviceTypeId diode = cat.require("diode");
    NetId vdd = m.ensure_net("vdd");
    NetId gnd = m.ensure_net("gnd");
    for (std::uint64_t i = 0; i < pads; ++i) {
      NetId pad = b.net("pad" + std::to_string(i));
      NetId pnode = b.net("pnode" + std::to_string(i));
      m.add_device(res, {pad, pnode});
      m.add_device(diode, {pnode, vdd});
      m.add_device(diode, {gnd, pnode});
    }
  }
  return b.finish();
}

Generated c17() {
  TopBuilder b("c17");
  NetId n1 = b.net("N1"), n2 = b.net("N2"), n3 = b.net("N3"), n6 = b.net("N6"),
        n7 = b.net("N7");
  NetId n10 = b.net("N10"), n11 = b.net("N11"), n16 = b.net("N16"),
        n19 = b.net("N19"), n22 = b.net("N22"), n23 = b.net("N23");
  b.place("nand2", {n1, n3, n10});
  b.place("nand2", {n3, n6, n11});
  b.place("nand2", {n2, n11, n16});
  b.place("nand2", {n11, n7, n19});
  b.place("nand2", {n10, n16, n22});
  b.place("nand2", {n16, n19, n23});
  return b.finish();
}

std::size_t plant_instances(Netlist& host, const Netlist& pattern,
                            std::size_t count, std::span<const NetId> pool,
                            std::uint64_t seed) {
  SUBG_CHECK_MSG(!pool.empty(), "plant_instances needs a target net pool");
  // Pool slots are consumed globally: two planted instances never share a
  // port net, so each copy is an independent instance (copies that share
  // identically-wired ports can combine into "mixed" instances that a
  // one-per-key-image matcher reports only once).
  SUBG_CHECK_MSG(pool.size() >= count * pattern.ports().size(),
                 "pool needs at least count * port_count nets ("
                     << count * pattern.ports().size() << "), got "
                     << pool.size());
  Xoshiro256 rng(seed);
  std::vector<bool> pool_used(pool.size(), false);
  for (std::size_t k = 0; k < count; ++k) {
    // Map every pattern net to a host net.
    std::vector<NetId> net_map(pattern.net_count());
    for (std::uint32_t n = 0; n < pattern.net_count(); ++n) {
      const NetId pn(n);
      if (pattern.is_global(pn)) {
        net_map[n] = host.ensure_net(pattern.net_name(pn));
        host.mark_global(net_map[n]);
      } else if (pattern.is_port(pn)) {
        std::size_t slot;
        do {
          slot = rng.below(pool.size());
        } while (pool_used[slot]);
        pool_used[slot] = true;
        net_map[n] = pool[slot];
      } else {
        net_map[n] = host.add_net();  // fresh internal net
      }
    }
    std::vector<NetId> pins;
    for (std::uint32_t d = 0; d < pattern.device_count(); ++d) {
      const DeviceId pd(d);
      pins.clear();
      for (NetId pn : pattern.device_pins(pd)) {
        pins.push_back(net_map[pn.index()]);
      }
      // Resolve the device type by name: host and pattern may use distinct
      // catalog objects.
      host.add_device(host.catalog().require(pattern.device_type_info(pd).name),
                      pins);
    }
  }
  return count;
}

}  // namespace subg::gen
